"""Independent checkers: gradient validation, runtime monitors for the
per-iteration descent/ascent inequalities, and the iteration-complexity
bound calculators.

The monitors re-evaluate, on a recorded trace, every inequality the
convergence analysis asserts along the iterates.  They are diagnostics for
pathological configurations and implementation drift, not proofs: a
violation beyond the relative tolerance 1e-8 * (1 + |lhs| + |rhs|) means
either the configuration breaks a required condition or the arithmetic
disagrees with the analysis.  Monitors whose derivations consume the decay
condition 1/c_{k+1} - 1/c_k <= rho~/10 (resp. q, zeta~) only assert from
the first index k0 where that condition holds; the k^(1/4) schedules reach
it at k0 = 9.

The potentials and monitors are array functions of the trace's columns:
squared norms of iterates and steps, f(x_k, y_k), f(x_{k+1}, y_k), gaps,
steps and the run's schedule b_k, c_k.  The monitors and the bound constants
take the trace alone: its ``potential`` column, ``cfg`` and ``problem``.
They make no oracle calls but for the bound's certified bound of f over a
compact X x Y, by best-first bisection of the joint bounding box.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import geometry
from .objective import MinimaxProblem, Regime
from .schedules import (CNcConfig, NcCConfig, NcScConfig, ScNcConfig,
                        InfeasibleConfigError, validate)

if TYPE_CHECKING:
    from .solver import SolverTrace

__all__ = [
    "MonitorEntry",
    "MonitorReport",
    "TheoryConstants",
    "InvalidTraceError",
    "finite_diff_check",
    "compute_bound",
    "theory_constants",
    "rate_slope",
    "lemma_monitor",
    "d1_nc_sc",
    "dhat1_sc_nc",
]

MONITOR_TOL = 1e-8
FD_TOL = 1e-6


class InvalidTraceError(ValueError):
    """The trace cannot support the requested monitors."""


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class MonitorEntry:
    id: str
    k_start: int
    k_end: int  # inclusive; k_end < k_start means "not applicable"
    n_checked: int
    max_violation: float  # relative to 1 + |lhs| + |rhs|
    tol: float
    passed: bool


@dataclass(frozen=True)
class MonitorReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, eid: str) -> MonitorEntry:
        for e in self.entries:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def __str__(self):
        lines = [f"{'inequality':<28} {'k range':>12} {'checked':>8} "
                 f"{'max rel viol':>13} {'ok':>4}"]
        for e in self.entries:
            rng = f"{e.k_start}..{e.k_end}" if e.n_checked else "n/a"
            lines.append(f"{e.id:<28} {rng:>12} {e.n_checked:>8} "
                         f"{e.max_violation:>13.3e} {'yes' if e.passed else 'NO':>4}")
        return "\n".join(lines)


def _entry(eid, ks, lhs, rhs, sense, tol=MONITOR_TOL):
    """Fold pointwise comparisons into a monitor entry.

    sense "le" asserts lhs <= rhs, "ge" asserts lhs >= rhs, both up to
    tol * (1 + |lhs| + |rhs|).
    """
    ks = np.asarray(ks)
    if ks.size == 0:
        return MonitorEntry(eid, 0, -1, 0, 0.0, tol, True)
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    excess = lhs - rhs if sense == "le" else rhs - lhs
    rel = excess / (1.0 + np.abs(lhs) + np.abs(rhs))
    worst = float(np.max(rel))
    return MonitorEntry(eid, int(ks[0]), int(ks[-1]), int(ks.size),
                        max(worst, 0.0), tol, bool(worst <= tol))


# ---------------------------------------------------------------------------
# constants entering the complexity bounds


def _nc_sc_terms(cfg: NcScConfig, d):
    """The dx2, dy2 rates of the NC-SC potential decrease (d1's numerator is
    the smaller), and the dy2 coefficient of F_k beyond 2/(rho^2 mu)."""
    eta, rho, mu, Ly, L12 = cfg.eta, cfg.rho, d.mu, d.L_y, d.L_12
    return (eta / 2 - rho * L12**2 / 2 - 2 * L12**2 / (rho * mu**2),
            (3 * mu - rho * Ly**2) / 2 + (mu - 4 * rho * Ly**2) / (2 * rho * mu),
            mu + 7 / (2 * rho) - rho * Ly**2 / 2 - 2 * Ly**2 / mu)


def _sc_nc_terms(cfg: ScNcConfig, d):
    """The dy2, dx2 rates of the SC-NC potential increase (dhat1's numerator
    is the smaller), and the dx2 coefficient of Fhat_k beyond 2/(zeta^2 theta)."""
    zeta, nu, th, Lx, L21 = cfg.zeta, cfg.nu, d.theta, d.L_x, d.L_21
    return (nu / 2 - zeta * L21**2 / 2 - 2 * L21**2 / (zeta * th**2),
            (3 * th - zeta * Lx**2) / 2 + (th - 4 * zeta * Lx**2) / (2 * zeta * th),
            th / 2 - 3 / zeta)


def d1_nc_sc(cfg: NcScConfig, data) -> float:
    """Per-iteration gap-to-potential-decrease ratio of the NC-SC analysis."""
    if data.mu <= 0:
        return -math.inf
    den = max(cfg.eta**2 + 2 * data.L_12**2, 2 / cfg.rho**2)
    return min(_nc_sc_terms(cfg, data)[:2]) / den


def dhat1_sc_nc(cfg: ScNcConfig, data) -> float:
    """Per-iteration gap-to-potential-increase ratio of the SC-NC analysis."""
    if data.theta <= 0:
        return -math.inf
    den = max(1 / cfg.zeta**2 + 2 * data.L_12**2, 2 * cfg.nu**2)
    return min(_sc_nc_terms(cfg, data)[:2]) / den


def dbar1_nc_c(cfg: NcCConfig, data) -> float:
    t, rb, L12 = cfg.tau, cfg.rho_bar, data.L_12
    return (8 * t**2 / (t - 2) ** 2
            + (2 * (rb * L12**2 - cfg.eta_bar) ** 2 + 3 * L12**2)
            / (16**2 * rb**2 * (t - 2) ** 2 * L12**4))


def Dhat1_c_nc(cfg: CNcConfig, data) -> float:
    t, zb, L21 = cfg.tau, cfg.zeta_bar, data.L_21
    return (16 * t**2 / (t - 2) ** 2
            + (zb * L21**2 - cfg.nu_bar) ** 2 / (64 * (t - 2) ** 2 * L21**4 * zb**2))


# ---------------------------------------------------------------------------
# per-trace inequality evaluation


def _missing_modulus(cfg, d) -> str | None:
    """``"mu"`` for an NC-SC config without mu > 0, ``"theta"`` for an SC-NC
    one without theta > 0, else None: their potentials divide by it."""
    if isinstance(cfg, NcScConfig) and not d.mu > 0:
        return "mu"
    if isinstance(cfg, ScNcConfig) and not d.theta > 0:
        return "theta"
    return None


def potentials(trace: SolverTrace) -> np.ndarray:
    """Lyapunov potential of every row of ``trace`` under its own config.

    Reads its squared norms, ``f[k-1] = f(x_k, y_k)``, ``f_mixed[k-1] =
    f(x_{k+1}, y_k)`` and its ``c`` (NC-C) or ``b`` (C-NC) schedule.  Entry
    j-1 is the j-th potential, from rows up to j+1 only: NC-SC and NC-C add
    iterate terms to ``f[j-1]``, SC-NC and C-NC to ``f_mixed[j-1]``.
    NaN while the referenced iterates or schedule values do not exist yet
    (the first 1-2 rows, or the missing lookahead x_{j+1} on the last row),
    and everywhere for an NC-SC (SC-NC) config without mu > 0 (theta > 0).
    """
    cfg, d = trace.cfg, trace.problem.constants
    f, fmix = trace.f, trace.f_mixed
    n = len(f)
    pot = np.full(n, np.nan)
    if _missing_modulus(cfg, d):
        return pot
    if isinstance(cfg, NcScConfig):  # j = 2..n
        s = 2.0 / (cfg.rho**2 * d.mu)
        pot[1:] = f[1:] + (s - _nc_sc_terms(cfg, d)[2]) * trace.dy2[1:]
    elif isinstance(cfg, NcCConfig):  # j = 3..n
        rb = cfg.rho_bar
        cj, cjm1, cjm2 = trace.c[2:], trace.c[1:-1], trace.c[:-2]
        dy2, yn2 = trace.dy2[2:], trace.yn2[2:]
        s = (4.0 / (rb**2 * cj)) * dy2 - (4.0 / rb) * (cjm2 / cjm1 - 1.0) * yn2
        pot[2:] = f[2:] + s - 7.0 / (2 * rb) * dy2 - 0.5 * cjm1 * yn2
    elif isinstance(cfg, ScNcConfig):  # j = 1..n-1
        dx2 = trace.dx2[1:]
        pot[:-1] = fmix - (2.0 / (cfg.zeta**2 * d.theta)) * dx2 - _sc_nc_terms(cfg, d)[2] * dx2
    elif isinstance(cfg, CNcConfig):  # j = 2..n-1
        zb = cfg.zeta_bar
        qj, qjm1 = trace.b[1:-1], trace.b[:-2]
        dx2, xn2 = trace.dx2[2:], trace.xn2[2:]
        s = -(4.0 / (zb**2 * qj)) * dx2 - (4.0 / zb) * (1.0 - qjm1 / qj) * xn2
        pot[1:-1] = fmix[1:] + s + 17.0 / (5 * zb) * dx2 + 0.5 * qjm1 * xn2
    else:
        raise TypeError(f"unknown regime config {cfg!r}")
    return pot


def _inequalities(trace, pot):
    """All per-iteration inequalities of the regime of the trace's config.

    Yields (id, ks, lhs, rhs, sense) with 1-based iteration indices ks.
    ``d`` is the smoothness data of the trace's problem, ``pot[j-1]`` the
    j-th potential of ``trace``; c_k and q_k are its ``c`` and ``b``.
    """
    cfg, d = trace.cfg, trace.problem.constants
    modulus = _missing_modulus(cfg, d)
    if modulus:
        raise InvalidTraceError(f"the {cfg.regime.value} inequalities need {modulus} > 0")
    f, fmix, gap, rgap = trace.f, trace.f_mixed, trace.gap_norm, trace.reg_gap_norm
    n = len(f)
    dx2, dy2 = trace.dx2[1:], trace.dy2[1:]  # dx2[k-1] = ||x_{k+1}-x_k||^2
    xn2, yn2 = trace.xn2, trace.yn2
    out = []

    if isinstance(cfg, NcScConfig):
        eta, rho, mu, Ly, L12 = cfg.eta, cfg.rho, d.mu, d.L_y, d.L_12
        ks = np.arange(1, n)
        out.append(("x_descent", ks, fmix - f[:-1], -(eta / 2) * dx2, "le"))
        ks = np.arange(2, n)  # k = 2..n-1
        lhs = f[2:] - f[1:-1]
        rhs = (-(eta / 2 - L12**2 * rho / 2) * dx2[1:]
               - (mu / 2 - 1 / rho) * dy2[1:]
               - (mu - 1 / (2 * rho) - rho * Ly**2 / 2) * dy2[:-1])
        out.append(("joint_recursion", ks, lhs, rhs, "le"))
        lhs = pot[2:] - pot[1:-1]  # F_{k+1} - F_k
        rate_x, rate_y, _ = _nc_sc_terms(cfg, d)
        rhs = -rate_x * dx2[1:] - rate_y * dy2[1:]
        out.append(("potential_decrease", ks, lhs, rhs, "le"))
        d1 = d1_nc_sc(cfg, d)
        out.append(("gap_potential_periter", ks,
                    d1 * gap[1:-1] ** 2, pot[1:-1] - pot[2:], "le"))
        return out

    if isinstance(cfg, NcCConfig):
        rb, eb, L12 = cfg.rho_bar, cfg.eta_bar, d.L_12
        call = trace.c  # call[k-1] = c_k
        bbar = trace.beta - eb  # actual beta~_k, respects any flooring
        ks = np.arange(1, n)
        out.append(("x_descent", ks, fmix - f[:-1], -(eb + bbar[:-1] / 2) * dx2, "le"))
        ks = np.arange(2, n)
        i = ks - 1  # 0-based row of iteration k
        lhs = f[2:] - f[1:-1]
        rhs = (-(eb + bbar[i] / 2 - L12**2 * rb / 2) * dx2[i]
               + (1 / rb - (call[i - 1] - call[i]) / 2) * dy2[i]
               + (1 / (2 * rb)) * dy2[i - 1]
               + (call[i - 1] / 2) * (yn2[i + 1] - yn2[i]))
        out.append(("joint_recursion", ks, lhs, rhs, "le"))
        k0 = validate(cfg, d).k0 or n + 1
        ks = np.arange(max(k0, 3), n)
        i = ks - 1
        lhs = pot[i + 1] - pot[i]
        rhs = (-(eb + bbar[i] / 2 - rb * L12**2 / 2
                 - 8 * L12**2 / (rb * call[i] ** 2)) * dx2[i]
               - (1 / (10 * rb)) * dy2[i]
               + (4 / rb) * (call[i - 2] / call[i - 1] - call[i - 1] / call[i]) * yn2[i]
               + ((call[i - 1] - call[i]) / 2) * yn2[i + 1])
        out.append(("potential_decrease", ks, lhs, rhs, "le"))
        ks = np.arange(1, n + 1)
        c_prev = np.concatenate([[call[0]], call[: n - 1]])  # c_0 := c_1
        out.append(("gap_bridge", ks, gap, rgap + c_prev * np.sqrt(yn2), "le"))
        return out

    if isinstance(cfg, ScNcConfig):
        zeta, nu, th, Lx, L21 = cfg.zeta, cfg.nu, d.theta, d.L_x, d.L_21
        ks = np.arange(1, n)
        out.append(("y_ascent", ks, f[1:] - fmix, (nu / 2) * dy2, "ge"))
        ks = np.arange(1, n - 1)  # k = 1..n-2, needs x_{k+2}
        lhs = fmix[1:] - fmix[:-1]  # f(x_{k+2},y_{k+1}) - f(x_{k+1},y_k)
        rhs = ((nu / 2 - L21**2 * zeta / 2) * dy2[:-1]
               + (th / 2 - 1 / zeta) * dx2[1:]
               + (th - 1 / (2 * zeta) - zeta * Lx**2 / 2) * dx2[:-1])
        out.append(("joint_recursion", ks, lhs, rhs, "ge"))
        lhs = pot[1 : n - 1] - pot[: n - 2]  # Fhat_{k+1} - Fhat_k
        rate_y, rate_x, _ = _sc_nc_terms(cfg, d)
        rhs = rate_y * dy2[:-1] + rate_x * dx2[:-1]
        out.append(("potential_increase", ks, lhs, rhs, "ge"))
        dh1 = dhat1_sc_nc(cfg, d)
        out.append(("gap_potential_periter", ks,
                    dh1 * gap[: n - 2] ** 2, pot[1 : n - 1] - pot[: n - 2], "le"))
        return out

    if isinstance(cfg, CNcConfig):
        zb, nb, L21 = cfg.zeta_bar, cfg.nu_bar, d.L_21
        qall = trace.b  # qall[k-1] = q_k
        gbar = trace.gamma - nb
        ks = np.arange(1, n)
        out.append(("y_ascent", ks, f[1:] - fmix, (nb + gbar[:-1] / 2) * dy2, "ge"))
        ks = np.arange(2, n - 1)  # k = 2..n-2
        i = ks - 1
        lhs = fmix[i + 1] - fmix[i]
        rhs = ((nb + gbar[i] / 2 - L21**2 * zb / 2) * dy2[i]
               + ((qall[i - 1] - qall[i]) / 2 - 1 / zb) * dx2[i + 1]
               - (1 / (2 * zb)) * dx2[i]
               - (qall[i - 1] / 2) * (xn2[i + 2] - xn2[i + 1]))
        out.append(("joint_recursion", ks, lhs, rhs, "ge"))
        k0 = validate(cfg, d).k0 or n + 1
        ks = np.arange(max(k0, 2), n - 1)
        i = ks - 1
        lhs = pot[i + 1] - pot[i]
        rhs = ((nb + gbar[i] / 2 - zb * L21**2 / 2
                - 8 * L21**2 / (zb * qall[i] ** 2)) * dy2[i]
               + ((qall[i] - qall[i - 1]) / 2) * xn2[i + 2]
               + (1 / (10 * zb)) * dx2[i]
               + (4 / zb) * (qall[i] / qall[i + 1] - qall[i - 1] / qall[i]) * xn2[i + 2])
        out.append(("potential_increase", ks, lhs, rhs, "ge"))
        ks = np.arange(1, n + 1)
        q_prev = np.concatenate([[qall[0]], qall[: n - 1]])  # q_0 := q_1
        out.append(("gap_bridge", ks, gap, rgap + q_prev * np.sqrt(xn2), "le"))
        return out

    raise TypeError(f"unknown regime config {cfg!r}")


def _require_alternating(trace):
    """Refuse a trace that is not an alternating run with its mixed values."""
    if trace.algo != "agp":
        raise InvalidTraceError(
            "monitors assume the alternating update; this trace was produced by "
            f"{trace.algo!r} and the descent/ascent derivations do not apply")
    if trace.f_mixed is None:
        raise InvalidTraceError("trace carries no f(x_{k+1}, y_k) column")


def lemma_monitor(trace: SolverTrace) -> MonitorReport:
    """Evaluate every analysis inequality along a trace, under the config
    and the problem constants of its own run."""
    _require_alternating(trace)
    items = _inequalities(trace, trace.potential)
    return MonitorReport(tuple(_entry(eid, ks, lhs, rhs, sense)
                               for eid, ks, lhs, rhs, sense in items))


_HEADLINE = {
    Regime.NC_SC: "gap_potential_periter",
    Regime.SC_NC: "gap_potential_periter",
    Regime.NC_C: "potential_decrease",
    Regime.C_NC: "potential_increase",
}


def trace_columns(trace):
    """The potential and monitor-slack columns of an alternating trace,
    from its other columns, its config and its problem's constants.

    The slack is the signed per-iteration margin of the regime's headline
    inequality: positive means satisfied with room, NaN outside the
    admissible index range (everywhere when the NC-SC/SC-NC ratio d1 is not
    positive).
    """
    pot = potentials(trace)
    slack = np.full(len(trace.f), np.nan)
    ratio = {Regime.NC_SC: d1_nc_sc, Regime.SC_NC: dhat1_sc_nc}.get(trace.regime)
    if ratio is not None and not ratio(trace.cfg, trace.problem.constants) > 0:
        return pot, slack
    for eid, ks, lhs, rhs, sense in _inequalities(trace, pot):
        if eid == _HEADLINE[trace.regime]:
            slack[ks - 1] = rhs - lhs if sense == "le" else lhs - rhs
    return pot, slack


# ---------------------------------------------------------------------------
# gradient validation


def finite_diff_check(problem: MinimaxProblem, n_points: int, seed=0) -> MonitorReport:
    """Central differences of the value against both block gradients."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    sqeps = math.sqrt(np.finfo(float).eps)
    worst = {"grad_x": 0.0, "grad_y": 0.0}
    for _ in range(n_points):
        x = problem.X.sample(rng)
        y = problem.Y.sample(rng)
        for label, point, grad in (("grad_x", x, problem.grad_x),
                                   ("grad_y", y, problem.grad_y)):
            g = grad(x, y)
            fd = np.empty_like(point)
            for i in range(point.size):
                h = sqeps * (1.0 + abs(point[i]))
                p_hi = point.copy()
                p_lo = point.copy()
                p_hi[i] += h
                p_lo[i] -= h
                if label == "grad_x":
                    fd[i] = (problem.value(p_hi, y) - problem.value(p_lo, y)) / (2 * h)
                else:
                    fd[i] = (problem.value(x, p_hi) - problem.value(x, p_lo)) / (2 * h)
            rel = float(np.linalg.norm(fd - g) / max(1.0, float(np.linalg.norm(g))))
            worst[label] = max(worst[label], rel)
    entries = tuple(MonitorEntry(label, 1, n_points, n_points, worst[label],
                                 FD_TOL, worst[label] <= FD_TOL)
                    for label in ("grad_x", "grad_y"))
    return MonitorReport(entries)


def _bounding_box(s: geometry.ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Corners ``(lo, hi)`` of an axis-aligned box holding ``s``."""
    if isinstance(s, geometry.WholeSpace):
        return np.full(s.dim, -math.inf), np.full(s.dim, math.inf)
    if isinstance(s, geometry.Box):
        return s.lower, s.upper
    if isinstance(s, geometry.Ball):
        return s.center - s.radius, s.center + s.radius
    if isinstance(s, geometry.Simplex):
        return np.zeros(s.dim), np.full(s.dim, s.scale)
    if isinstance(s, geometry.Product):
        boxes = [_bounding_box(p) for p in s.parts]
        return (np.concatenate([lo for lo, _ in boxes]),
                np.concatenate([hi for _, hi in boxes]))
    raise TypeError(f"unknown set {s!r}")


# cells of the joint bounding box that ``_certified_range`` scores; each
# costs one value and two gradient calls
_CELL_BUDGET = 201


def _cell_bound(problem: MinimaxProblem, lo, hi, sign: float, L: float) -> float | None:
    """A lower bound of ``sign * f`` over the points of X x Y in the cell
    ``[lo, hi]``, or None when the cell holds none of them.

    f is evaluated once, at the projection p of the cell's center c.  Every
    feasible z in the cell lies within r, half the cell's diagonal, of c, so
    within r of p: projection is nonexpansive and fixes z.  The descent lemma
    with the joint gradient's Lipschitz constant ``L`` then bounds
    ``sign * f(z)`` by ``sign * f(p) - ||grad f(p)|| r - (L/2) r^2``, rounded
    outward by ``1e-12 |b| + 4 ulp(f(p))``.  A c farther than r from p has
    every feasible point farther still, so the cell is empty.
    """
    nx = problem.dim_x
    c = (lo + hi) / 2
    r = 0.5 * float(np.linalg.norm(hi - lo))
    x, y = problem.X.project(c[:nx]), problem.Y.project(c[nx:])
    if math.hypot(float(np.linalg.norm(c[:nx] - x)),
                  float(np.linalg.norm(c[nx:] - y))) > r * (1 + 1e-12):
        return None
    v = float(problem.value(x, y))
    g = math.hypot(float(np.linalg.norm(problem.grad_x(x, y))),
                   float(np.linalg.norm(problem.grad_y(x, y))))
    if not (math.isfinite(v) and math.isfinite(g)):
        raise ValueError(f"f or its gradient is not finite on X x Y: f = {v}, "
                         f"||grad f|| = {g}")
    b = sign * v - (g * r + L / 2 * r * r)
    return b - (1e-12 * abs(b) + 4 * math.ulp(v))


def _certified_range(problem: MinimaxProblem, side: str) -> float:
    """A lower (``side="lower"``) or upper (``"upper"``) bound of f over X x Y.

    Best-first bisection of the joint bounding box: the cell with the
    weakest bound is split across its longest axis until ``_CELL_BUDGET``
    cells have been scored by ``_cell_bound``.  The bound of each partition
    is its weakest cell's, and the best over the partitions is returned.  A
    non-finite f or gradient at a scored point raises ``ValueError``.
    """
    sign = {"lower": 1.0, "upper": -1.0}[side]
    lo, hi = (np.concatenate(b) for b in zip(_bounding_box(problem.X),
                                             _bounding_box(problem.Y)))
    if not np.isfinite(hi - lo).all():
        raise ValueError("a certified range of f needs compact feasible sets")
    d = problem.constants
    L = float(np.linalg.norm([[d.L_x, d.L_21], [d.L_12, d.L_y]], 2))
    # the bounding box holds all of X x Y, so it is never empty
    heap = [(_cell_bound(problem, lo, hi, sign, L), 0, lo, hi)]
    best, cells = heap[0][0], 1
    while cells + 2 <= _CELL_BUDGET:
        _, _, lo, hi = heapq.heappop(heap)
        axis = int(np.argmax(hi - lo))
        mid_hi, mid_lo = hi.copy(), lo.copy()
        mid_hi[axis] = mid_lo[axis] = (lo[axis] + hi[axis]) / 2
        for half in ((lo, mid_hi), (mid_lo, hi)):
            b = _cell_bound(problem, *half, sign, L)
            if b is not None:
                cells += 1
                heapq.heappush(heap, (b, cells, *half))
        best = max(best, heap[0][0])
    return sign * best


# ---------------------------------------------------------------------------
# complexity bounds


@dataclass(frozen=True)
class TheoryConstants:
    """Everything the iteration-complexity bound formulas consume."""

    regime: Regime
    # the certified side of the range of f over X x Y: f_lower for NC-SC
    # and NC-C, f_upper for SC-NC and C-NC; the other side is None
    f_lower: float | None
    f_upper: float | None
    sigma_x: float
    sigma_y: float
    sighat_x: float
    sighat_y: float
    tau: float | None = None
    # NC_SC
    d1: float | None = None
    F1: float | None = None
    F_lower: float | None = None
    # SC_NC
    dhat1: float | None = None
    Fhat1: float | None = None
    Fhat_upper: float | None = None  # f_upper - (theta/2 - 3/zeta) sigma_x^2
    # NC_C
    dbar1: float | None = None
    d3: float | None = None
    d4: float | None = None
    rho_bar: float | None = None
    L_12: float | None = None
    Ftilde3: float | None = None
    # C_NC
    Dhat1: float | None = None
    dhat3: float | None = None
    dhat4: float | None = None
    zeta_bar: float | None = None
    L_21: float | None = None
    Fcal2: float | None = None


def _finite_sizes(problem):
    vals = (problem.X.diameter(), problem.Y.diameter(),
            problem.X.max_norm(), problem.Y.max_norm())
    if not all(map(math.isfinite, vals)):
        raise ValueError("complexity bounds require compact feasible sets")
    return vals


def theory_constants(trace: SolverTrace) -> TheoryConstants:
    """Assemble the bound constants of the run that produced ``trace``.

    They read its ``cfg``, its ``problem``'s constants and feasible sets,
    and its ``potential`` column, of which the initial potential is an entry
    (F1 is f(x_1, y_1): the convention y_0 = y_1 collapses its delta term).
    The one side of the range of f that the regime's bound reads comes from
    ``_certified_range``.  A config that fails a ``validate`` condition, or
    a trace too short for the initial potential, gets no bound.
    """
    _require_alternating(trace)
    cfg, d = trace.cfg, trace.problem.constants
    modulus = _missing_modulus(cfg, d)
    if modulus:
        raise InfeasibleConfigError(f"the {cfg.regime.value} bound needs {modulus} > 0")
    sigma_x, sigma_y, sighat_x, sighat_y = _finite_sizes(trace.problem)
    # a run with no bound is refused before it pays for the certified range
    ratio = (d1_nc_sc(cfg, d) if isinstance(cfg, NcScConfig)
             else dhat1_sc_nc(cfg, d) if isinstance(cfg, ScNcConfig) else None)
    _require_positive_ratio(cfg.regime, ratio)
    failed = next((c for c in validate(cfg, d).checks if not c.passed), None)
    if failed is not None:
        raise InfeasibleConfigError(f"the {cfg.regime.value} bound needs {failed.name}, which "
                                    f"fails: {failed.lhs:.6g} {failed.op} {failed.rhs:.6g}")
    rows = {Regime.SC_NC: 2, Regime.NC_C: 3, Regime.C_NC: 3}.get(cfg.regime, 1)
    if len(trace) < rows:
        raise ValueError(f"need at least {rows} iterations to evaluate the initial potential")
    lower = isinstance(cfg, (NcScConfig, NcCConfig))
    f_range = _certified_range(trace.problem, "lower" if lower else "upper")
    base = dict(regime=cfg.regime, f_lower=f_range if lower else None,
                f_upper=None if lower else f_range,
                sigma_x=sigma_x, sigma_y=sigma_y,
                sighat_x=sighat_x, sighat_y=sighat_y)

    if isinstance(cfg, NcScConfig):
        return TheoryConstants(**base, d1=ratio,
                               F1=float(trace.f[0]),
                               F_lower=f_range - _nc_sc_terms(cfg, d)[2] * sigma_y**2)
    if isinstance(cfg, ScNcConfig):
        upper = f_range - _sc_nc_terms(cfg, d)[2] * sigma_x**2
        return TheoryConstants(**base, dhat1=ratio, Fhat1=float(trace.potential[0]),
                               Fhat_upper=upper)
    if isinstance(cfg, NcCConfig):
        Ftilde3 = float(trace.potential[2])
        db1 = dbar1_nc_c(cfg, d)
        t, rb, L12 = cfg.tau, cfg.rho_bar, d.L_12
        d3 = (Ftilde3 - f_range + 7 * sigma_y**2 / (2 * rb)
              + (6 + 3 / max(128 * (t - 2) * rb**2 * L12**2 * db1, 120 * math.sqrt(2)))
              * sighat_y**2 / rb)
        d4 = max(db1, 5 * math.sqrt(3) / (8 * (t - 2) * rb**2 * L12**2))
        return TheoryConstants(**base, tau=t, dbar1=db1, d3=d3, d4=d4,
                               rho_bar=rb, L_12=L12, Ftilde3=Ftilde3)
    if isinstance(cfg, CNcConfig):
        Fcal2 = float(trace.potential[1])
        Dh1 = Dhat1_c_nc(cfg, d)
        t, zb, L21 = cfg.tau, cfg.zeta_bar, d.L_21
        dh3 = f_range - Fcal2 + (17 / (5 * zb)) * sigma_x**2 + (31 / (5 * zb)) * sighat_x**2
        dh4 = max(Dh1, 5 * math.sqrt(2) * (1 + 2 * d.L_12**2 * zb**2)
                  / (16 * (t - 2) * zb**2 * L21**2))
        return TheoryConstants(**base, tau=t, Dhat1=Dh1, dhat3=dh3, dhat4=dh4,
                               zeta_bar=zb, L_21=L21, Fcal2=Fcal2)
    raise TypeError(f"unknown regime config {cfg!r}")


def _require_positive_ratio(regime, ratio):
    """Refuse a missing or nonpositive NC-SC ``d1`` or SC-NC ``dhat1``; the
    other regimes have no such ratio."""
    if regime in (Regime.NC_SC, Regime.SC_NC) and not (ratio is not None and ratio > 0):
        name, side = ("d1", "descent") if regime is Regime.NC_SC else ("dhat1", "ascent")
        raise InfeasibleConfigError(f"nonpositive per-iteration ratio {name}: the "
                                    f"configuration violates the {side} conditions")


def compute_bound(tc: TheoryConstants, eps: float) -> float:
    """Literal iteration-count bound for reaching gap norm <= eps.

    No first hit comes before iteration 1, so a formula that is not a finite
    number >= 1 (a NaN f at the start point, say, or an eps whose powers
    underflow or overflow) raises ``ArithmeticError`` naming regime and eps.
    """
    if not (eps > 0):
        raise ValueError("eps must be > 0")
    try:
        if tc.regime is Regime.NC_SC:
            _require_positive_ratio(tc.regime, tc.d1)
            bound = (tc.F1 - tc.F_lower) / (tc.d1 * eps**2)
        elif tc.regime is Regime.SC_NC:
            _require_positive_ratio(tc.regime, tc.dhat1)
            bound = (tc.Fhat_upper - tc.Fhat1) / (tc.dhat1 * eps**2)
        elif tc.regime is Regime.NC_C:
            first = (64 * tc.rho_bar * (tc.tau - 2) * tc.L_12**2 * tc.d3 * tc.d4 / eps**2 + 2) ** 2
            bound = max(first, tc.sighat_y**4 / (tc.rho_bar**4 * eps**4) + 1)
        elif tc.regime is Regime.C_NC:
            first = (64 * tc.zeta_bar * (tc.tau - 2) * tc.L_21**2 * tc.dhat3 * tc.dhat4 / eps**2 + 1) ** 2
            bound = max(first, tc.sighat_x**4 / (tc.zeta_bar**4 * eps**4) + 1)
        else:
            raise TypeError(f"unknown regime {tc.regime!r}")
    except (ZeroDivisionError, OverflowError) as e:
        raise ArithmeticError(f"the {tc.regime.value} bound at eps = {eps!r} is out of "
                              f"float range: {e}") from None
    if not (math.isfinite(bound) and bound >= 1):
        raise ArithmeticError(f"the {tc.regime.value} bound at eps = {eps!r} is {bound!r}, "
                              "not a finite number >= 1")
    return bound


def rate_slope(points) -> float:
    """Least-squares slope of log T against log(1/eps).

    points: iterable of (eps, T); eps strictly decreasing, T nondecreasing.
    """
    pts = [(float(e), float(t)) for e, t in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 (eps, T) points")
    eps = np.array([p[0] for p in pts])
    T = np.array([p[1] for p in pts])
    if not np.all(np.diff(eps) < 0):
        raise ValueError("eps values must be strictly decreasing")
    if not np.all(np.diff(T) >= 0):
        raise ValueError("T values must be nondecreasing")
    lg = np.log(1.0 / eps)
    lt = np.log(T)
    A = np.vstack([lg, np.ones_like(lg)]).T
    coef, *_ = np.linalg.lstsq(A, lt, rcond=None)
    return float(coef[0])
