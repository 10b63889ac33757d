"""Per-iteration step parameters for the four curvature regimes.

Each regime fixes the tuple (beta_k, gamma_k, b_k, c_k) driving the
alternating projection updates:

    nonconvex / strongly concave   beta_k = eta,            gamma_k = 1/rho
    nonconvex / concave            beta_k = eta~ + beta~_k,  gamma_k = 1/rho~,
                                   c_k = 1/(2 rho~ k^(1/4))
    strongly convex / nonconcave   beta_k = 1/zeta,         gamma_k = nu
    convex / nonconcave            beta_k = 1/zeta~,        gamma_k = nu~ + gamma~_k,
                                   b_k = q_k = 1/(2 zeta~ k^(1/4))

with the growing parts

    alpha_k  = (4 tau - 8) L12^2 / (rho~ c_k^2)
    beta~_k  = rho~ L12^2 + 16 L12^2/(rho~ c_k^2) + 2 alpha_k - 2 eta~
    gamma~_k = zeta~ L21^2 + 8 tau L21^2/(zeta~ q_k^2) - 2 nu~

The solver reads the tuple of each k from ``_steps(cfg, data)``, which
computes the constants of these formulas once per run; ``nc_c_beta_bar``
and ``c_nc_gamma_bar`` evaluate them at one k, for ``validate``.

``validate`` reports every inequality the convergence analysis imposes on a
configuration, including the first index k0 at which the decay condition
1/c_{k+1} - 1/c_k <= rho~/10 starts to hold (k0 = 9 for the k^(1/4)
schedule; the Lyapunov monitors only assert from there on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .objective import Regime, SmoothnessData

__all__ = [
    "RegimeConfig",
    "NcScConfig",
    "NcCConfig",
    "ScNcConfig",
    "CNcConfig",
    "auto_configure",
    "validate",
    "ValidationReport",
    "ConditionCheck",
    "InfeasibleConfigError",
    "UnsupportedRegimeError",
]

# strict inequalities in the analysis get a 1% margin so the descent
# constants stay positive in floating point
SAFETY = 1.01
DEFAULT_TAU = 3.0


class InfeasibleConfigError(ValueError):
    """A step parameter came out nonpositive; names the violated inequality."""


class UnsupportedRegimeError(ValueError):
    """The problem's constants do not meet the regime's structural needs."""


class RegimeConfig:
    regime: Regime


@dataclass(frozen=True)
class NcScConfig(RegimeConfig):
    eta: float
    rho: float
    regime: Regime = field(default=Regime.NC_SC, init=False)


@dataclass(frozen=True)
class NcCConfig(RegimeConfig):
    eta_bar: float
    rho_bar: float
    tau: float = DEFAULT_TAU
    regime: Regime = field(default=Regime.NC_C, init=False)

    def __post_init__(self):
        if not (self.tau > 2):
            raise ValueError("tau must be > 2")
        if not (self.rho_bar > 0):
            raise ValueError("rho_bar must be > 0")

    def c(self, k: int) -> float:
        return 1.0 / (2.0 * self.rho_bar * k**0.25)


@dataclass(frozen=True)
class ScNcConfig(RegimeConfig):
    zeta: float
    nu: float
    regime: Regime = field(default=Regime.SC_NC, init=False)


@dataclass(frozen=True)
class CNcConfig(RegimeConfig):
    zeta_bar: float
    nu_bar: float
    tau: float = DEFAULT_TAU
    regime: Regime = field(default=Regime.C_NC, init=False)

    def __post_init__(self):
        if not (self.tau > 2):
            raise ValueError("tau must be > 2")
        if not (self.zeta_bar > 0):
            raise ValueError("zeta_bar must be > 0")

    def q(self, k: int) -> float:
        return 1.0 / (2.0 * self.zeta_bar * k**0.25)


def nc_c_beta_bar(cfg: NcCConfig, data: SmoothnessData, k: int) -> float:
    ck = cfg.c(k)
    alpha = (4 * cfg.tau - 8) * data.L_12**2 / (cfg.rho_bar * ck**2)
    return (cfg.rho_bar * data.L_12**2
            + 16 * data.L_12**2 / (cfg.rho_bar * ck**2)
            + 2 * alpha - 2 * cfg.eta_bar)


def c_nc_gamma_bar(cfg: CNcConfig, data: SmoothnessData, k: int) -> float:
    qk = cfg.q(k)
    return (cfg.zeta_bar * data.L_21**2
            + 8 * cfg.tau * data.L_21**2 / (cfg.zeta_bar * qk**2)
            - 2 * cfg.nu_bar)


def _steps(cfg: RegimeConfig, data: SmoothnessData):
    """The map ``k -> (beta, gamma, b, c, floored)`` of iterations k >= 1,
    as plain floats.

    The solver builds it once per run and reads k = 1 before its loop and
    each k of a growing schedule (NC-C, C-NC) in it.  The constants of the
    growing formulas are computed here, once, in the operation order of
    ``nc_c_beta_bar``/``c_nc_gamma_bar``, so each k has their bits.  A k
    whose beta or gamma is not positive, NaN included, is infeasible.
    """
    if isinstance(cfg, NcScConfig):
        def step(k):
            if not (cfg.eta > 0 and 0 < cfg.rho < math.inf):
                raise InfeasibleConfigError("needs eta > 0 and 0 < rho < inf")
            return cfg.eta, 1.0 / cfg.rho, 0.0, 0.0, False
        return step
    if isinstance(cfg, ScNcConfig):
        def step(k):
            if not (0 < cfg.zeta < math.inf and cfg.nu > 0):
                raise InfeasibleConfigError("needs 0 < zeta < inf and nu > 0")
            return 1.0 / cfg.zeta, cfg.nu, 0.0, 0.0, False
        return step
    if isinstance(cfg, NcCConfig):
        rho, eta, L12 = cfg.rho_bar, cfg.eta_bar, data.L_12
        two_rho, gamma = 2.0 * rho, 1.0 / rho
        head, grow, alpha_num = rho * L12**2, 16 * L12**2, (4 * cfg.tau - 8) * L12**2
        tail = 2 * eta
        floor = SAFETY * data.L_x if L12 == 0.0 else None

        def step(k):
            ck = 1.0 / (two_rho * k**0.25)  # cfg.c(k)
            den = rho * ck**2
            beta = eta + (head + grow / den + 2 * (alpha_num / den) - tail)
            floored = False
            if floor is not None and beta <= floor:
                # decoupled instance: the schedule formula presumes coupling
                beta, floored = floor, True
            if not beta > 0:
                raise InfeasibleConfigError(
                    "beta_k <= 0 in the nonconvex-concave schedule "
                    "(needs eta~ + beta~_k > 0; with L_12 = 0 the floor 1.01*L_x "
                    "also degenerates because L_x = 0)")
            return beta, gamma, 0.0, ck, floored
        return step
    if isinstance(cfg, CNcConfig):
        zeta, nu, L21 = cfg.zeta_bar, cfg.nu_bar, data.L_21
        two_zeta, beta = 2.0 * zeta, 1.0 / zeta
        head, grow, tail = zeta * L21**2, 8 * cfg.tau * L21**2, 2 * nu
        floor = SAFETY * data.L_y if L21 == 0.0 else None

        def step(k):
            qk = 1.0 / (two_zeta * k**0.25)  # cfg.q(k)
            gamma = nu + (head + grow / (zeta * qk**2) - tail)
            floored = False
            if floor is not None and gamma <= floor:
                gamma, floored = floor, True
            if not gamma > 0:
                raise InfeasibleConfigError(
                    "gamma_k <= 0 in the convex-nonconcave schedule "
                    "(needs nu~ + gamma~_k > 0; with L_21 = 0 the floor 1.01*L_y "
                    "also degenerates because L_y = 0)")
            return beta, gamma, qk, 0.0, floored
        return step
    raise TypeError(f"unknown regime config {cfg!r}")


def auto_configure(data: SmoothnessData, regime: Regime) -> RegimeConfig:
    """Pick feasible regime constants from the smoothness data.

    The analysis only states inequalities; this selection rule saturates
    them with a 1% margin on the strict ones.
    """
    regime = Regime(regime) if not isinstance(regime, Regime) else regime
    if regime is Regime.NC_SC:
        if not (data.mu > 0):
            raise UnsupportedRegimeError("nonconvex-strongly-concave needs mu > 0")
        rho = data.mu / (4 * data.L_y**2)
        eta = SAFETY * max(data.L_x, data.L_y,
                           data.L_12**2 * rho + 4 * data.L_12**2 / (rho * data.mu**2))
        return NcScConfig(eta=eta, rho=rho)
    if regime is Regime.NC_C:
        if not (data.L_y > 0 and data.L_12 > 0):
            raise UnsupportedRegimeError(
                "nonconvex-concave auto-configuration needs L_y > 0 and L_12 > 0; "
                "pass an explicit config for degenerate instances")
        rho_bar = 1.0 / data.L_y
        return NcCConfig(eta_bar=rho_bar * data.L_12**2 / 2, rho_bar=rho_bar, tau=DEFAULT_TAU)
    if regime is Regime.SC_NC:
        if not (data.theta > 0):
            raise UnsupportedRegimeError("strongly-convex-nonconcave needs theta > 0")
        zeta = min(data.theta / (4 * data.L_x**2), 6.0 / data.theta)
        nu = SAFETY * max(data.L_y,
                          data.L_21**2 * zeta + 4 * data.L_21**2 / (zeta * data.theta**2))
        return ScNcConfig(zeta=zeta, nu=nu)
    # C_NC: Regime(regime) has refused every other value
    if not (data.L_x > 0 and data.L_21 > 0):
        raise UnsupportedRegimeError(
            "convex-nonconcave auto-configuration needs L_x > 0 and L_21 > 0; "
            "pass an explicit config for degenerate instances")
    zeta_bar = 1.0 / data.L_x
    return CNcConfig(nu_bar=zeta_bar * data.L_21**2 / 2, zeta_bar=zeta_bar, tau=DEFAULT_TAU)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    lhs: float
    rhs: float
    op: str  # "<" / "<=" / ">"
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    regime: Regime
    checks: tuple
    k0: int | None = None  # first k at which the decay condition holds

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"{'condition':<42} {'lhs':>14} {'op':^4} {'rhs':>14} {'ok':>4}"]
        for c in self.checks:
            lines.append(f"{c.name:<42} {c.lhs:>14.6g} {c.op:^4} {c.rhs:>14.6g} "
                         f"{'yes' if c.passed else 'NO':>4}")
        if self.k0 is not None:
            lines.append(f"decay condition first holds at k0 = {self.k0}")
        return "\n".join(lines)


def _lt(name, lhs, rhs):
    return ConditionCheck(name, float(lhs), float(rhs), "<", lhs < rhs)


def _le(name, lhs, rhs):
    return ConditionCheck(name, float(lhs), float(rhs), "<=", lhs <= rhs)


def _decay_k0(schedule, limit, k_max=100000) -> int | None:
    """First k with 1/s(k+1) - 1/s(k) <= limit; None if never within k_max."""
    for k in range(1, k_max + 1):
        if 1.0 / schedule(k + 1) - 1.0 / schedule(k) <= limit:
            return k
    return None


def validate(cfg: RegimeConfig, data: SmoothnessData) -> ValidationReport:
    """Evaluate every analysis condition; reports, never throws."""
    d = data
    if isinstance(cfg, NcScConfig):
        checks = (
            _lt("L_x < eta", d.L_x, cfg.eta),
            _lt("L_y < eta", d.L_y, cfg.eta),
            _lt("L_12^2 rho + 4 L_12^2/(rho mu^2) < eta",
                d.L_12**2 * cfg.rho + 4 * d.L_12**2 / (cfg.rho * d.mu**2)
                if d.mu > 0 and cfg.rho > 0 else float("inf"), cfg.eta),
            _le("rho <= mu/(4 L_y^2)", cfg.rho,
                d.mu / (4 * d.L_y**2) if d.L_y > 0 else float("inf")),
        )
        return ValidationReport(Regime.NC_SC, checks)
    if isinstance(cfg, NcCConfig):
        c1 = cfg.c(1)
        Lyp = d.L_y + c1
        checks = (
            _le("rho~ <= 2/(L_y' + c_1)", cfg.rho_bar, 2.0 / (Lyp + c1)),
            _le("c_1 <= L_y'", c1, Lyp),
            _lt("L_x < beta~_1 (nondecreasing in k)", d.L_x, nc_c_beta_bar(cfg, d, 1)),
        )
        k0 = _decay_k0(cfg.c, cfg.rho_bar / 10.0)
        return ValidationReport(Regime.NC_C, checks, k0=k0)
    if isinstance(cfg, ScNcConfig):
        checks = (
            _lt("L_y < nu", d.L_y, cfg.nu),
            _lt("L_21^2 zeta + 4 L_21^2/(zeta theta^2) < nu",
                d.L_21**2 * cfg.zeta + 4 * d.L_21**2 / (cfg.zeta * d.theta**2)
                if d.theta > 0 and cfg.zeta > 0 else float("inf"), cfg.nu),
            _le("zeta <= theta/(4 L_x^2)", cfg.zeta,
                d.theta / (4 * d.L_x**2) if d.L_x > 0 else float("inf")),
            _le("zeta <= 6/theta", cfg.zeta,
                6.0 / d.theta if d.theta > 0 else float("inf")),
        )
        return ValidationReport(Regime.SC_NC, checks)
    if isinstance(cfg, CNcConfig):
        q1 = cfg.q(1)
        Lxp = d.L_x + q1
        checks = (
            _le("zeta~ <= 2/(L_x' + q_1)", cfg.zeta_bar, 2.0 / (Lxp + q1)),
            _le("q_1 <= L_x'", q1, Lxp),
            _lt("L_y < gamma~_1 (nondecreasing in k)", d.L_y, c_nc_gamma_bar(cfg, d, 1)),
        )
        k0 = _decay_k0(cfg.q, cfg.zeta_bar / 10.0)
        return ValidationReport(Regime.C_NC, checks, k0=k0)
    raise TypeError(f"unknown regime config {cfg!r}")
