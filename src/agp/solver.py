"""Alternating gradient projection iteration and its instrumentation.

One iteration from (x_k, y_k):

    x_{k+1} = P_X( x_k - (grad_x f(x_k, y_k) + b_k x_k) / beta_k )
    y_{k+1} = P_Y( y_k + (grad_y f(x_{k+1}, y_k) - c_k y_k) / gamma_k )

The y-step always sees the fresh x_{k+1}; that alternating order is the
point of the method and is what the descent/ascent monitors assume.  The
simultaneous-step baseline ``run_gda`` updates both blocks from the old
iterate and famously spirals outward on bilinear games.

Stopping uses the stationarity-gap norm of the raw objective

    gap_x = beta_k  (x_k - P_X(x_k - grad_x f(x_k,y_k)/beta_k))
    gap_y = gamma_k (y_k - P_Y(y_k + grad_y f(x_k,y_k)/gamma_k))

evaluated with the current iteration's (beta_k, gamma_k).  The trace also
records the regularized gap norm, the same mapping with the gradients of
f~ = f + (b_k/2)||x||^2 - (c_k/2)||y||^2, which the NC-C and C-NC monitors
read.

The loop records the iterates in row buffers that grow in place and are
trimmed to the trace's length, so a trace owns exactly its rows.  After
the loop, one batched pass of ``problem.values`` gives the f(x_k, y_k)
column, and an alternating trace also records f(x_{k+1}, y_k)
(``SolverTrace.f_mixed``); a non-finite entry in either raises
``NumericFailureError``.  Its potential and monitor-slack columns are
array functions of those records, computed by the verification module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import MinimaxProblem, Regime
from .schedules import RegimeConfig, _step_floats
from .verify import _row_diffs, trace_columns

__all__ = [
    "SolverTrace",
    "NumericFailureError",
    "run",
    "run_gda",
]


class NumericFailureError(RuntimeError):
    """A gradient or value came back non-finite; carries the iteration and
    what failed: the gradient block ``"x"`` or ``"y"``, or the value ``"f"``
    (f(x_k, y_k)) or ``"f_mixed"`` (f(x_{k+1}, y_k))."""

    def __init__(self, k: int, block: str):
        what = {"f": "value f(x_k, y_k)", "f_mixed": "value f(x_{k+1}, y_k)"}.get(
            block, f"gradient in block {block!r}")
        super().__init__(f"non-finite {what} at iteration {k}")
        self.k = k
        self.block = block


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
    if not (0 < step_x < math.inf and 0 < step_y < math.inf):
        raise ValueError("step sizes must be positive and finite")
    return _iterate(problem, None, (step_x, step_y), eps, max_iter, init)


# trace columns recorded per iteration, in the order of a row of the buffer
_COLUMNS = ("gap_norm", "reg_gap_norm", "beta", "gamma", "b", "c")


def _iterate(problem, cfg, steps, eps, max_iter, init) -> SolverTrace:
    """The one solver loop: record row k at (x_k, y_k), stop or step.

    With a regime config it steps by the alternating rule: the x-step, then
    the y-step at the fresh x.  With ``cfg=None`` it steps by the
    simultaneous rule, both blocks from the old iterate, with
    ``steps = (step_x, step_y)``.
    """
    eps = _check_eps(eps)
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x, y = _resolve_init(problem, init)
    data = problem.constants
    if cfg is None:
        step_x, step_y = steps
        beta, gamma, b, c = 1.0 / step_x, 1.0 / step_y, 0.0, 0.0
    else:
        beta, gamma, b, c, _ = _step_floats(cfg, data, 1)
    growing = cfg is not None and cfg.regime in (Regime.NC_C, Regime.C_NC)
    grad_x, grad_y = problem.grad_x, problem.grad_y
    project_x, project_y = problem.X.project, problem.Y.project
    # zeros . g is 0 for a finite g and NaN as soon as one entry is not;
    # ndarray.dot is the dot of @, with less call overhead
    zx, zy = np.zeros(problem.dim_x), np.zeros(problem.dim_y)

    # The row buffers start at 1024 rows and grow by a quarter in place, so
    # past 1024 rows they hold at most 1.25 times the rows recorded; max_iter
    # only caps them.  The loop keeps no view of them.
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
                cap = min(max_iter, cap + cap // 4)
                _resize_rows((rows, xs, ys), cap)
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

    _resize_rows((rows, xs, ys), n)
    return _assemble_trace(problem, cfg, rows, xs, ys, reason, T_eps, eps,
                           "agp" if cfg is not None else "gda", floored_any)


def _resize_rows(buffers, n):
    """Give each row buffer ``n`` rows in place.

    ``ndarray.resize`` reallocates the one buffer instead of building a
    second array and copying the rows into it.  No view of a buffer may be
    alive across the call.
    """
    for buf in buffers:
        buf.resize((n, buf.shape[1]), refcheck=False)


def _row_norm(d):
    return np.linalg.norm(d, axis=1)


def _require_finite(values, name):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericFailureError(int(bad[0]) + 1, name)


def _assemble_trace(problem, cfg, rows, xs, ys, reason, T_eps, eps, algo,
                    floored_any) -> SolverTrace:
    n = len(rows)
    cols = {name: rows[:, i].copy() for i, name in enumerate(_COLUMNS)}
    cols["f"] = problem.values(xs, ys)
    _require_finite(cols["f"], "f")
    dx = np.full(n, np.nan)
    dy = np.full(n, np.nan)
    dx[1:] = _row_diffs(xs, _row_norm)
    dy[1:] = _row_diffs(ys, _row_norm)
    f_mixed = None
    potential = np.full(n, np.nan)
    slack = np.full(n, np.nan)
    if cfg is not None:
        f_mixed = problem.values(xs[1:], ys[:-1])
        _require_finite(f_mixed, "f_mixed")
        potential, slack = trace_columns(
            cfg, problem.constants, xs, ys, cols["f"], f_mixed, cols["gap_norm"],
            cols["reg_gap_norm"], cols["beta"], cols["gamma"])
    return SolverTrace(
        k=np.arange(1, n + 1), dx_norm=dx, dy_norm=dy, potential=potential,
        monitor_slack=slack, xs=xs, ys=ys, reason=reason, T_eps=T_eps, eps=eps,
        algo=algo, regime=cfg.regime if cfg is not None else None,
        floored_any=floored_any, f_mixed=f_mixed, **cols,
    )
