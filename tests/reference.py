"""Reference implementations the tests check the package against.

The solver computes its step parameters and its stationarity gap inline;
these are second, one-call-at-a-time copies of both, and the schedule and
the svm's ``grad_x`` also have their unhoisted forms here.  The saddle oracle
solves the quadratic testbed's first-order system directly, and
``read_trace_csv`` inverts ``agp.bench.write_trace_csv``.  A trace keeps no
iterate history: ``record_iterates`` records the iterates a run visits, and
``iterate_norms`` reduces them by one formula over the whole history.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from agp.bench import CSV_COLUMNS
from agp.objective import MinimaxProblem, SmoothnessData
from agp.objective import _HINGE_WIDTH
from agp.schedules import (SAFETY, CNcConfig, NcCConfig, NcScConfig, RegimeConfig,
                           ScNcConfig, _steps, c_nc_gamma_bar, nc_c_beta_bar)


@dataclass(frozen=True)
class StepParams:
    beta: float
    gamma: float
    b: float
    c: float
    floored: bool = False


def params_at(cfg: RegimeConfig, data: SmoothnessData, k: int) -> StepParams:
    """Step parameters of iteration k >= 1, as the solver reads them."""
    return StepParams(*_steps(cfg, data)(k))


def steps_unhoisted(cfg: RegimeConfig, data: SmoothnessData, k: int) -> tuple:
    """``(beta, gamma, b, c, floored)`` of iteration k, every constant of the
    growing schedules recomputed at k by ``nc_c_beta_bar``/``c_nc_gamma_bar``
    and ``cfg.c``/``cfg.q``; ``None`` where the step is infeasible."""
    if isinstance(cfg, NcScConfig):
        ok = cfg.eta > 0 and 0 < cfg.rho < math.inf
        return (cfg.eta, 1.0 / cfg.rho, 0.0, 0.0, False) if ok else None
    if isinstance(cfg, ScNcConfig):
        ok = 0 < cfg.zeta < math.inf and cfg.nu > 0
        return (1.0 / cfg.zeta, cfg.nu, 0.0, 0.0, False) if ok else None
    if isinstance(cfg, NcCConfig):
        beta = cfg.eta_bar + nc_c_beta_bar(cfg, data, k)
        floored = data.L_12 == 0.0 and beta <= SAFETY * data.L_x
        if floored:
            beta = SAFETY * data.L_x
        return (beta, 1.0 / cfg.rho_bar, 0.0, cfg.c(k), floored) if beta > 0 else None
    assert isinstance(cfg, CNcConfig)
    gamma = cfg.nu_bar + c_nc_gamma_bar(cfg, data, k)
    floored = data.L_21 == 0.0 and gamma <= SAFETY * data.L_y
    if floored:
        gamma = SAFETY * data.L_y
    return (1.0 / cfg.zeta_bar, gamma, cfg.q(k), 0.0, floored) if gamma > 0 else None


def hinge_d(t):
    """Derivative of the svm's smoothed hinge, case by case."""
    t = np.asarray(t, dtype=float)
    w = _HINGE_WIDTH
    return np.where(t <= 0, 0.0, np.where(t >= w, 1.0, t / w))


def svm_grad_x(feats, labels):
    """``grad_x`` of ``make_robust_svm_toy`` on data (feats, labels), with
    ``hinge_d`` and every operand formed inside the call."""
    n, m = feats.shape
    aug = np.hstack([feats, np.ones((n, 1))])

    def grad_x(x, y):
        xw, xb = x[:m], x[m]
        yu, yv = y[:m], y[m]
        margins = 1.0 - labels * (feats @ xw + xb)
        w = hinge_d(margins) * (-labels)
        g = np.empty(m + 1)
        g[:m] = yv * yu + (aug[:, :m].T @ w) / n
        g[m] = yv + float(np.sum(w)) / n
        return g

    return grad_x


@dataclass(frozen=True)
class GapVector:
    gx: np.ndarray
    gy: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm",
                           math.sqrt(float(self.gx @ self.gx) + float(self.gy @ self.gy)))


def stationarity_gap(problem: MinimaxProblem, x, y, beta: float, gamma: float) -> GapVector:
    """Scaled projected-gradient mapping of the raw objective."""
    if not (beta > 0 and gamma > 0):
        raise ValueError("beta and gamma must be > 0")
    x, y = problem.check_point(x, y)
    gxf, gyf = problem.grad_x(x, y), problem.grad_y(x, y)
    return GapVector(gx=beta * (x - problem.X.project(x - gxf / beta)),
                     gy=gamma * (y - problem.Y.project(y + gyf / gamma)))


def saddle_oracle_quadratic(A, B, C, a=None, c_lin=None):
    """Unconstrained first-order point of the quadratic testbed.

    Solves A x + B y = -a, B' x - C y = c_lin; returns (x, y) or None when
    the system is singular or the residual exceeds 1e-10.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    nx, ny = A.shape[0], C.shape[0]
    a = np.zeros(nx) if a is None else np.asarray(a, dtype=float)
    c_lin = np.zeros(ny) if c_lin is None else np.asarray(c_lin, dtype=float)
    M = np.block([[A, B], [B.T, -C]])
    rhs = np.concatenate([-a, c_lin])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    if np.linalg.norm(M @ sol - rhs) > 1e-10 * (1.0 + np.linalg.norm(rhs)):
        return None
    return sol[:nx], sol[nx:]


def read_trace_csv(path) -> dict:
    """Inverse of write_trace_csv; returns column arrays keyed by name."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected trace header {header}")
    rows = [line.split(",") for line in text[1:]]
    out = {}
    for j, name in enumerate(CSV_COLUMNS):
        col = [r[j] for r in rows]
        out[name] = (np.array([int(v) for v in col], dtype=int) if name == "k"
                     else np.array([float(v) for v in col]))
    return out


@dataclass
class RecordedIterates:
    """The points ``(x, y)`` a problem's ``grad_x`` was called at, in order."""

    points: list = field(default_factory=list)

    @property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.points])

    @property
    def ys(self) -> np.ndarray:
        return np.array([y for _, y in self.points])


def record_iterates(problem: MinimaxProblem):
    """``(copy, rec)``: a copy of ``problem`` whose ``grad_x`` records each
    point it is called at in ``rec``, a ``RecordedIterates``.

    ``run`` and ``run_gda`` call ``grad_x`` exactly once per trace row, at
    (x_k, y_k), so right after a run ``rec.xs``/``rec.ys`` hold the iterates
    of its rows.  Other callers of ``grad_x``, such as the bound constants,
    record their points too.
    """
    rec = RecordedIterates()
    grad_x = problem.grad_x

    def recording(x, y):
        rec.points.append((np.array(x, dtype=float), np.array(y, dtype=float)))
        return grad_x(x, y)

    return dataclasses.replace(problem, grad_x=recording), rec


def iterate_norms(xs, ys) -> dict:
    """The squared-norm columns ``xn2``, ``yn2``, ``dx2``, ``dy2`` of a trace
    over iterates xs/ys, each by one formula over the whole history (steps
    from the convention x_0 = x_1)."""
    cols = {}
    for v, a in (("x", xs), ("y", ys)):
        steps = np.diff(a, axis=0, prepend=a[:1])
        cols[f"{v}n2"], cols[f"d{v}2"] = np.vecdot(a, a), np.vecdot(steps, steps)
    return cols
