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

Each row computes the x-half ||gap_x||^2 inline.  Rounding and sqrt are
monotone, so a row whose sqrt(||gap_x||^2) exceeds eps cannot stop: its
y-half waits, and ``_fill_gaps`` adds it at the next fold or at the end,
from ``grads_y`` and ``project_rows`` over the block's stored iterates.  A
row that may stop adds its own y-half at once, through the same
``_y_half``, so ``T_eps`` is that of the row-by-row gap.  An exception in
the loop (not an interrupt) first completes the waiting rows, so a
non-finite grad_y(x_j, y_j) is reported at iteration j ahead of anything
raised at a later row.

The loop keeps one block of ``VALUE_CHUNK`` iterates, not their history,
and folds each block into per-row columns that grow in place: f(x_k, y_k),
the step lengths, the squared norms of the iterates and steps (``xn2``,
``yn2``, ``dx2``, ``dy2``, by ``np.vecdot``) and, on an alternating trace,
f(x_{k+1}, y_k) (``f_mixed``); a non-finite f or f_mixed raises
``NumericFailureError``.  The potential and monitor-slack columns are array
functions of the trace's other columns, computed by the verification module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import VALUE_CHUNK, MinimaxProblem, Regime
from .schedules import RegimeConfig, _steps
from .verify import trace_columns

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
    # all the potentials and monitors read of the iterates, by np.vecdot (the
    # bits of a per-row a @ a): xn2[k-1] = ||x_k||^2, dx2[k-1] = ||x_k - x_{k-1}||^2
    # (x_0 = x_1), likewise for y
    xn2: np.ndarray
    yn2: np.ndarray
    dx2: np.ndarray
    dy2: np.ndarray
    potential: np.ndarray
    monitor_slack: np.ndarray
    x: np.ndarray  # the last iterate, x_n
    y: np.ndarray
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
    trace carries the per-row values and iterate norms that the monitors
    and the bound constants read afterwards, and the last iterate.
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
# columns folded from the iterate blocks, and f_mixed on an alternating trace
_FOLDED = ("f", "dx_norm", "dy_norm", "xn2", "yn2", "dx2", "dy2")


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
        step_params = _steps(cfg, data)
        beta, gamma, b, c, _ = step_params(1)
    growing = cfg is not None and cfg.regime in (Regime.NC_C, Regime.C_NC)
    grad_x, grad_y = problem.grad_x, problem.grad_y
    project_x, project_y = problem.X.project, problem.Y.project
    # zeros . g is 0 for a finite g and NaN as soon as one entry is not;
    # ndarray.dot is the dot of @, with less call overhead
    zx, zy = np.zeros(problem.dim_x), np.zeros(problem.dim_y)

    # The row buffers and folded columns start at 1024 rows and grow by a
    # quarter in place, so past 1024 rows they hold at most 1.25 times the
    # rows recorded; max_iter only caps them.  The loop keeps no view of them.
    cap = min(max_iter, 1024)
    rows = np.empty((cap, len(_COLUMNS)))
    folded = {name: np.empty(cap) for name in _FOLDED + ("f_mixed",) * (cfg is not None)}
    # row n of the trace sits in row n - s + 1 of the block buffers, whose
    # row 0 holds row s - 1, the last row of the block before (x_0 = x_1);
    # GDA's step takes grad_y(x_k, y_k), so its block keeps those for the gaps
    xb = np.empty((min(max_iter, VALUE_CHUNK) + 1, problem.dim_x))
    yb = np.empty((len(xb), problem.dim_y))
    gb = np.empty_like(yb) if cfg is None else None
    xb[0], yb[0] = x, y
    # whether each row of the block still waits for the y-half of its gap
    pending = np.ones(len(xb), dtype=bool)
    T_eps = None
    reason = "max_iter"
    floored_any = False
    n = s = 0
    # an infinite gradient entry makes the check's zeros . g an invalid
    # inf * 0; the check reports it, so numpy need not warn as well
    with np.errstate(invalid="ignore"):
        try:
            for k in range(1, max_iter + 1):
                if n == cap:
                    cap = min(max_iter, cap + cap // 4)
                    _resize_rows((rows, *folded.values()), cap)
                if growing:
                    beta, gamma, b, c, floored = step_params(k)
                    floored_any = floored_any or floored
                gxf = grad_x(x, y)
                if cfg is None:
                    gyf = grad_y(x, y)
                    if zx.dot(gxf) + zy.dot(gyf) != 0.0:
                        raise NumericFailureError(
                            k, "x" if not np.all(np.isfinite(gxf)) else "y")
                    gb[n - s + 1] = gyf
                elif zx.dot(gxf) != 0.0:
                    raise NumericFailureError(k, "x")
                # The x-half of the raw gap, then of the regularized gap.  A
                # regularized block whose coefficient is 0 is the raw block:
                # x - (g + 0*x)/beta has the bits of x - g/beta, and
                # y + (g - 0*y)/gamma differs from y + g/gamma at most in the
                # sign of a zero, which the norm ignores.  The regularized x
                # projection is the alternating x-step.
                px = project_x(x - gxf / beta)
                gx = beta * (x - px)
                ax = axr = gx.dot(gx)
                if b != 0.0:
                    px = project_x(x - (gxf + b * x) / beta)
                    gx = beta * (x - px)
                    axr = gx.dot(gx)
                # Rounding and sqrt are monotone, so the gap fl(sqrt(ax + ay))
                # is at least fl(sqrt(ax)): a row whose x-half exceeds eps
                # cannot stop, and _fill_gaps adds its y-half later.  A row
                # that may stop adds its own now.
                stop = math.sqrt(ax) <= eps
                if stop:
                    if cfg is not None:
                        gyf = grad_y(x, y)
                        if zy.dot(gyf) != 0.0:
                            raise NumericFailureError(k, "y")
                    ay = _y_half(project_y, y, gyf, gamma)
                    ayr = _y_half(project_y, y, gyf - c * y, gamma) if c != 0.0 else ay
                    ax, axr = math.sqrt(ax + ay), math.sqrt(axr + ayr)  # the gaps
                    stop = ax <= eps
                    pending[n - s + 1] = False
                rows[n] = (ax, axr, beta, gamma, b, c)
                xb[n - s + 1], yb[n - s + 1] = x, y
                n += 1
                if n - s == VALUE_CHUNK:
                    _fill_gaps(problem, rows, xb, yb, gb, pending, s, n)
                    _fold(problem, xb, yb, s, n, folded)
                    xb[0], yb[0] = xb[-1], yb[-1]
                    pending[:] = True
                    s = n
                if stop:
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
        except Exception:
            # the pending rows first: a non-finite y-half among them reports
            # ahead of anything raised at a later row.  An interrupt skips this.
            _fill_gaps(problem, rows, xb, yb, gb, pending, s, n)
            raise
        _fill_gaps(problem, rows, xb, yb, gb, pending, s, n)

    if n > s:
        _fold(problem, xb, yb, s, n, folded)
    del xb, yb, gb, pending
    _resize_rows((rows, *folded.values()), n)
    return _assemble_trace(problem, cfg, rows, folded, x, y, reason, T_eps, eps, floored_any)


# rows per batch of _fill_gaps; bounds the temporaries of one batch
_GAP_ROWS = 512


def _fill_gaps(problem, rows, xb, yb, gb, pending, s, n):
    """Complete the gap norms of the pending rows among trace rows s..n-1,
    the block that starts at row s, whose gap columns hold the squared
    x-halves.

    The y-halves take ``grads_y`` of the rows (or GDA's stored ``gb``) and
    ``_y_half`` with ``project_rows``, ``_GAP_ROWS`` rows at a time, so each
    row gets the bits that ``_y_half`` gives a row which may stop.  A
    non-finite gradient raises at its first row.  The rows stop pending
    first, so a pass that raises is not run again.
    """
    todo = np.flatnonzero(pending[1:n - s + 1]) + 1  # block rows
    pending[todo] = False
    for a in range(0, len(todo), _GAP_ROWS):
        i = todo[a:a + _GAP_ROWS]
        # one contiguous run of rows is read in place, not gathered into a
        # copy; _y_half writes nothing into Y
        j = i if i[-1] - i[0] >= len(i) else slice(i[0], i[-1] + 1)
        Y = yb[j]
        G = problem.grads_y(xb[j], Y) if gb is None else gb[j]
        bad = np.flatnonzero(~np.isfinite(G).all(axis=1))
        if bad.size:
            raise NumericFailureError(s + int(i[bad[0]]), "y")
        r = i + (s - 1)  # trace rows
        gamma, c = rows[r, 3:4], rows[r, 5:6]
        ay = _y_half(problem.Y.project_rows, Y, G, gamma)
        rows[r, 0] = np.sqrt(rows[r, 0] + ay)
        if np.any(c):
            ay = _y_half(problem.Y.project_rows, Y, G - c * Y, gamma)
        rows[r, 1] = np.sqrt(rows[r, 1] + ay)


def _y_half(project, Y, G, gamma):
    """||gamma * (Y - P(Y + G / gamma))||^2 of a point, or of each row with
    ``project_rows``; the in-place steps keep the bits of that expression
    with fewer temporaries."""
    V = G / gamma
    V += Y
    D = project(V)
    del V
    np.subtract(Y, D, out=D)
    D *= gamma
    return np.vecdot(D, D)


def _resize_rows(buffers, n):
    """Give each row buffer ``n`` rows in place.

    ``ndarray.resize`` reallocates the one buffer instead of building a
    second array and copying the rows into it.  No view of a buffer may be
    alive across the call.
    """
    for buf in buffers:
        buf.resize((n, *buf.shape[1:]), refcheck=False)


def _fold(problem, xb, yb, s, e, folded):
    """Fold trace rows s..e-1, held in ``xb[1:]``/``yb[1:]`` after row s-1,
    into entries s..e-1 of the ``folded`` columns; entry r of a step or
    mixed column pairs row r with row r-1.  Every formula maps each row on
    its own, so each entry has the bits of one pass over the whole history.
    """
    m = e - s
    x, y = xb[1:m + 1], yb[1:m + 1]
    folded["f"][s:e] = problem.values(x, y)
    if "f_mixed" in folded:
        i = 0 if s else 1  # row 0 pairs with no row before it
        folded["f_mixed"][s + i:e] = problem.values(x[i:], yb[i:m])
    folded["xn2"][s:e] = np.vecdot(x, x)
    folded["yn2"][s:e] = np.vecdot(y, y)
    for name, buf in (("dx", xb), ("dy", yb)):
        steps = np.diff(buf[:m + 1], axis=0)  # one block's steps at a time
        folded[name + "_norm"][s:e] = np.linalg.norm(steps, axis=1)
        folded[name + "2"][s:e] = np.vecdot(steps, steps)


def _require_finite(values, name):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericFailureError(int(bad[0]) + 1, name)


def _assemble_trace(problem, cfg, rows, folded, x, y, reason, T_eps, eps,
                    floored_any) -> SolverTrace:
    n = len(rows)
    cols = {name: rows[:, i].copy() for i, name in enumerate(_COLUMNS)}
    folded["dx_norm"][0] = folded["dy_norm"][0] = np.nan
    _require_finite(folded["f"], "f")
    f_mixed = folded.pop("f_mixed", None)
    if cfg is not None:
        f_mixed = f_mixed[1:].copy()
        _require_finite(f_mixed, "f_mixed")
    trace = SolverTrace(
        k=np.arange(1, n + 1), potential=np.full(n, np.nan),
        monitor_slack=np.full(n, np.nan), x=x, y=y, reason=reason, T_eps=T_eps,
        eps=eps, algo="agp" if cfg is not None else "gda",
        regime=cfg.regime if cfg is not None else None, floored_any=floored_any,
        f_mixed=f_mixed, **cols, **folded,
    )
    if cfg is not None:
        trace.potential, trace.monitor_slack = trace_columns(cfg, problem.constants, trace)
    return trace
