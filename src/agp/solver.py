"""Alternating gradient projection iteration and its instrumentation.

One iteration from (x_k, y_k):

    x_{k+1} = P_X( x_k - (grad_x f(x_k, y_k) + b_k x_k) / beta_k )
    y_{k+1} = P_Y( y_k + (grad_y f(x_{k+1}, y_k) - c_k y_k) / gamma_k )

The y-step always sees the fresh x_{k+1}; that alternating order is the
point of the method and is what the descent/ascent monitors assume.  The
simultaneous-step baseline ``gda_step`` updates both blocks from the old
iterate and famously spirals outward on bilinear games.

Stopping uses the stationarity-gap norm of the raw objective

    gap_x = beta_k  (x_k - P_X(x_k - grad_x f(x_k,y_k)/beta_k))
    gap_y = gamma_k (y_k - P_Y(y_k + grad_y f(x_k,y_k)/gamma_k))

evaluated with the current iteration's (beta_k, gamma_k); the regularized
variant swaps in the gradients of f~.

The loop records the iterates; after it, one batched pass of
``problem.values`` gives the f(x_k, y_k) column, and an alternating trace
also records f(x_{k+1}, y_k) (``SolverTrace.f_mixed``).  Its potential and
monitor-slack columns are array functions of those records, computed by the
verification module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objective import MinimaxProblem, Regime
from .schedules import RegimeConfig, StepParams, _step_floats, params_at
from .verify import trace_columns

__all__ = [
    "SolverState",
    "GapVector",
    "SolverTrace",
    "NumericFailureError",
    "agp_step",
    "gda_step",
    "stationarity_gap",
    "regularized_gap",
    "run",
    "run_gda",
]


class NumericFailureError(RuntimeError):
    """A gradient came back non-finite; carries the iteration and block."""

    def __init__(self, k: int, block: str):
        super().__init__(f"non-finite gradient in block {block!r} at iteration {k}")
        self.k = k
        self.block = block


@dataclass
class SolverState:
    k: int
    x: np.ndarray
    y: np.ndarray
    x_prev: np.ndarray | None = None
    y_prev: np.ndarray | None = None


@dataclass(frozen=True)
class GapVector:
    gx: np.ndarray
    gy: np.ndarray
    regularized: bool
    norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", _norm(self.gx, self.gy))


def _require_finite(g, k, block):
    if not np.all(np.isfinite(g)):
        raise NumericFailureError(k, block)
    return g


def agp_step(problem: MinimaxProblem, state: SolverState, params: StepParams) -> SolverState:
    """One alternating update; x first, then y at the fresh x."""
    if params.k != state.k:
        raise ValueError(f"params are for iteration {params.k}, state is at {state.k}")
    x, y = problem.check_point(state.x, state.y)
    gxf = _require_finite(problem.grad_x(x, y), params.k, "x")
    x_new = problem.X.project(x - (gxf + params.b * x) / params.beta)
    gy_new = _require_finite(problem.grad_y(x_new, y), params.k, "y")
    y_new = problem.Y.project(y + (gy_new - params.c * y) / params.gamma)
    return SolverState(k=state.k + 1, x=x_new, y=y_new, x_prev=x, y_prev=y)


def gda_step(problem: MinimaxProblem, state: SolverState, step_x: float, step_y: float) -> SolverState:
    """Simultaneous projected descent/ascent, both blocks from the old iterate."""
    if not (step_x > 0 and step_y > 0):
        raise ValueError("step sizes must be > 0")
    x, y = problem.check_point(state.x, state.y)
    gxf = _require_finite(problem.grad_x(x, y), state.k, "x")
    gyf = _require_finite(problem.grad_y(x, y), state.k, "y")
    x_new = problem.X.project(x - step_x * gxf)
    y_new = problem.Y.project(y + step_y * gyf)
    return SolverState(k=state.k + 1, x=x_new, y=y_new, x_prev=x, y_prev=y)


def _gap_blocks(problem, x, y, gxf, gyf, beta, gamma):
    return (beta * (x - problem.X.project(x - gxf / beta)),
            gamma * (y - problem.Y.project(y + gyf / gamma)))


def _norm(gx, gy) -> float:
    return math.sqrt(float(gx @ gx) + float(gy @ gy))


def stationarity_gap(problem: MinimaxProblem, x, y, beta: float, gamma: float) -> GapVector:
    """Scaled projected-gradient mapping of the raw objective."""
    if not (beta > 0 and gamma > 0):
        raise ValueError("beta and gamma must be > 0")
    x, y = problem.check_point(x, y)
    gx, gy = _gap_blocks(problem, x, y, problem.grad_x(x, y), problem.grad_y(x, y),
                         beta, gamma)
    return GapVector(gx=gx, gy=gy, regularized=False)


def regularized_gap(problem: MinimaxProblem, x, y, params: StepParams) -> GapVector:
    """Same mapping with the gradients of f~ = f + (b/2)||x||^2 - (c/2)||y||^2."""
    x, y = problem.check_point(x, y)
    gxf = problem.grad_x(x, y) + params.b * x
    gyf = problem.grad_y(x, y) - params.c * y
    gx, gy = _gap_blocks(problem, x, y, gxf, gyf, params.beta, params.gamma)
    return GapVector(gx=gx, gy=gy, regularized=True)


# ---------------------------------------------------------------------------
# traces


@dataclass
class SolverTrace:
    """Per-iteration records of one solver run; immutable by convention."""

    k: np.ndarray
    f: np.ndarray
    gap_norm: np.ndarray
    reg_gap_norm: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    b: np.ndarray
    c: np.ndarray
    dx_norm: np.ndarray
    dy_norm: np.ndarray
    potential: np.ndarray
    monitor_slack: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    reason: str
    T_eps: int | None
    eps: float
    algo: str
    regime: Regime | None
    problem_name: str
    floored_any: bool = False
    # f(x_{k+1}, y_k) for k = 1..n-1; None on GDA traces
    f_mixed: np.ndarray | None = None

    def __len__(self):
        return len(self.k)

    @property
    def iterations(self) -> int:
        return int(self.k[-1]) if len(self.k) else 0

    def first_hit(self, eps: float) -> int | None:
        """First iteration index with gap norm <= eps."""
        idx = np.nonzero(self.gap_norm <= eps)[0]
        return int(self.k[idx[0]]) if idx.size else None

    @property
    def final_gap(self) -> float:
        return float(self.gap_norm[-1]) if len(self.k) else math.nan


def _resolve_init(problem, init):
    if isinstance(init, str):
        if init != "project-origin":
            raise ValueError(f"unknown init mode {init!r}")
        return (problem.X.project(np.zeros(problem.dim_x)),
                problem.Y.project(np.zeros(problem.dim_y)))
    x0, y0 = init
    x0, y0 = problem.check_point(x0, y0)
    return problem.X.project(x0), problem.Y.project(y0)


def _check_eps(eps):
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError("eps must be positive and finite")
    return eps


def run(problem: MinimaxProblem, cfg: RegimeConfig, eps: float, max_iter: int,
        init="project-origin") -> SolverTrace:
    """Iterate until the raw stationarity gap drops to eps or max_iter hits.

    Deterministic in (problem, cfg, eps, max_iter, init).  The returned
    trace carries the full iterate history, so the monitors can be run on
    it afterwards.
    """
    return _iterate(problem, cfg, None, eps, max_iter, init)


def run_gda(problem: MinimaxProblem, step_x: float, step_y: float, eps: float,
            max_iter: int, init="project-origin") -> SolverTrace:
    """Simultaneous-step baseline with constant step sizes.

    The gap is evaluated with beta = 1/step_x, gamma = 1/step_y so the
    projected-gradient mapping matches the steps actually taken.
    """
    if not (step_x > 0 and step_y > 0):
        raise ValueError("step sizes must be > 0")
    return _iterate(problem, None, (step_x, step_y), eps, max_iter, init)


# trace columns recorded per iteration, in the order of a row of the buffer
_COLUMNS = ("gap_norm", "reg_gap_norm", "beta", "gamma", "b", "c")


def _iterate(problem, cfg, steps, eps, max_iter, init) -> SolverTrace:
    """The one solver loop: record row k at (x_k, y_k), stop or step.

    With a regime config it steps by the alternating rule of ``agp_step``;
    with ``cfg=None`` by the simultaneous rule of ``gda_step`` with
    ``steps = (step_x, step_y)``.  Both wrappers reproduce it bit for bit.
    """
    eps = _check_eps(eps)
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x, y = _resolve_init(problem, init)
    data = problem.constants
    if cfg is None:
        step_x, step_y = steps
        p = StepParams(1.0 / step_x, 1.0 / step_y, 0.0, 0.0, 1)
    else:
        p = params_at(cfg, data, 1)
    beta, gamma, b, c = p.beta, p.gamma, p.b, p.c
    growing = cfg is not None and cfg.regime in (Regime.NC_C, Regime.C_NC)
    grad_x, grad_y = problem.grad_x, problem.grad_y
    project_x, project_y = problem.X.project, problem.Y.project
    # zeros . g is 0 for a finite g and NaN as soon as one entry is not;
    # ndarray.dot is the dot of @, with less call overhead
    zx, zy = np.zeros(problem.dim_x), np.zeros(problem.dim_y)

    cap = min(max_iter, 1024)
    rows = np.empty((cap, len(_COLUMNS)))
    xs = np.empty((cap, problem.dim_x))
    ys = np.empty((cap, problem.dim_y))
    T_eps = None
    reason = "max_iter"
    floored_any = False
    n = 0
    # an infinite gradient entry makes the check's zeros . g an invalid
    # inf * 0; the check reports it, so numpy need not warn as well
    with np.errstate(invalid="ignore"):
        for k in range(1, max_iter + 1):
            if n == cap:
                cap = min(max_iter, 2 * cap)
                rows = np.resize(rows, (cap, len(_COLUMNS)))
                xs = np.resize(xs, (cap, problem.dim_x))
                ys = np.resize(ys, (cap, problem.dim_y))
            if growing:
                beta, gamma, b, c, floored = _step_floats(cfg, data, k)
                floored_any = floored_any or floored
            gxf = grad_x(x, y)
            gyf = grad_y(x, y)
            if zx.dot(gxf) + zy.dot(gyf) != 0.0:
                raise NumericFailureError(k, "x" if not np.all(np.isfinite(gxf)) else "y")
            # The raw gap.  A regularized block whose coefficient is 0 is the raw
            # block: x - (g + 0*x)/beta has the bits of x - g/beta, and
            # y + (g - 0*y)/gamma differs from y + g/gamma at most in the sign of
            # a zero, which the norm ignores.  The regularized x projection is
            # the alternating x-step.
            px = project_x(x - gxf / beta)
            gx = beta * (x - px)
            gy = gamma * (y - project_y(y + gyf / gamma))
            gap = math.sqrt(gx.dot(gx) + gy.dot(gy))
            if b != 0.0:
                px = project_x(x - (gxf + b * x) / beta)
                gx = beta * (x - px)
            if c != 0.0:
                gy = gamma * (y - project_y(y + (gyf - c * y) / gamma))
            reg_gap = math.sqrt(gx.dot(gx) + gy.dot(gy)) if b != 0.0 or c != 0.0 else gap
            rows[n] = (gap, reg_gap, beta, gamma, b, c)
            xs[n] = x
            ys[n] = y
            n += 1
            if gap <= eps:
                T_eps = k
                reason = "gap_le_eps"
                break
            if k == max_iter:
                break
            if cfg is None:
                x, y = project_x(x - step_x * gxf), project_y(y + step_y * gyf)
            else:
                gy_new = grad_y(px, y)
                if zy.dot(gy_new) != 0.0:
                    raise NumericFailureError(k, "y")
                x, y = px, project_y(y + (gy_new - c * y) / gamma)

    return _assemble_trace(problem, cfg, rows[:n], xs[:n].copy(), ys[:n].copy(),
                           reason, T_eps, eps, "agp" if cfg is not None else "gda",
                           floored_any)


def _assemble_trace(problem, cfg, rows, xs, ys, reason, T_eps, eps, algo,
                    floored_any) -> SolverTrace:
    n = len(rows)
    cols = {name: rows[:, i].copy() for i, name in enumerate(_COLUMNS)}
    cols["f"] = problem.values(xs, ys)
    dx = np.full(n, np.nan)
    dy = np.full(n, np.nan)
    if n > 1:
        dx[1:] = np.linalg.norm(np.diff(xs, axis=0), axis=1)
        dy[1:] = np.linalg.norm(np.diff(ys, axis=0), axis=1)
    f_mixed = None
    potential = np.full(n, np.nan)
    slack = np.full(n, np.nan)
    if cfg is not None:
        f_mixed = problem.values(xs[1:], ys[:-1])
        potential, slack = trace_columns(
            cfg, problem.constants, xs, ys, cols["f"], f_mixed, cols["gap_norm"],
            cols["reg_gap_norm"], cols["beta"], cols["gamma"])
    return SolverTrace(
        k=np.arange(1, n + 1), dx_norm=dx, dy_norm=dy, potential=potential,
        monitor_slack=slack, xs=xs, ys=ys, reason=reason, T_eps=T_eps, eps=eps,
        algo=algo, regime=cfg.regime if cfg is not None else None,
        problem_name=problem.name, floored_any=floored_any, f_mixed=f_mixed, **cols,
    )
