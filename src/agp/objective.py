"""Minimax problem definitions and a zoo of desk-scale test instances.

A problem min_{x in X} max_{y in Y} f(x, y) is described by its value and
block-gradient callables, the block Lipschitz constants of the gradients

    ||grad_x f(x1,y) - grad_x f(x2,y)|| <= L_x ||x1 - x2||
    ||grad_x f(x,y1) - grad_x f(x,y2)|| <= L_21 ||y1 - y2||
    ||grad_y f(x,y1) - grad_y f(x,y2)|| <= L_y ||y1 - y2||
    ||grad_y f(x1,y) - grad_y f(x2,y)|| <= L_12 ||x1 - x2||

plus convexity moduli mu (strong concavity in y) and theta (strong convexity
in x).  Constants are data, computed once at construction; the solver never
re-estimates them.  Value/gradient callables are deterministic; randomness
only enters instance generation.

Every zoo constructor writes f once, as a row function over ``(n, dim)``
arrays built from ``np.matvec``, ``np.vecdot`` and row sums; its scalar
``value`` is the one-row case.  These forms give each row the same bits
whatever the number of rows, so batched and scalar evaluation agree.  The
quadratic, bilinear and svm constructors also set ``grad_y_rows``, the row
form of ``grad_y`` that agrees with it bit for bit, which the solver's
deferred gap rows read; the sines leave it unset, so their rows loop over
``grad_y`` and keep its bits whatever a batched transcendental does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Ball, Box, ConstraintSet, Product, WholeSpace

__all__ = [
    "Regime",
    "SmoothnessData",
    "MinimaxProblem",
    "make_quadratic",
    "make_bilinear",
    "make_nc_sc_sine",
    "make_sc_nc_sine",
    "make_robust_svm_toy",
    "random_quadratic",
]

# eigenvalues within this relative band of zero count as zero when deriving
# moduli and regime tags from a quadratic's spectrum
_EIG_TOL = 1e-10

# rows per ``value_rows`` call in ``MinimaxProblem.values``; bounds the
# temporaries of one batched evaluation
VALUE_CHUNK = 4096


class Regime(enum.Enum):
    """Curvature regime a problem legitimately belongs to (most specific)."""

    NC_SC = "nc_sc"  # nonconvex x, strongly concave y
    NC_C = "nc_c"    # nonconvex x, concave (not strongly) y
    SC_NC = "sc_nc"  # strongly convex x, nonconcave y
    C_NC = "c_nc"    # convex (not strongly) x, nonconcave y


@dataclass(frozen=True)
class SmoothnessData:
    """Block Lipschitz constants and convexity moduli."""

    L_x: float
    L_y: float
    L_12: float
    L_21: float
    mu: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("L_x", "L_y", "L_12", "L_21", "mu", "theta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mu > 0 and self.mu > self.L_y * (1 + 1e-12):
            raise ValueError("mu cannot exceed L_y")
        if self.theta > 0 and self.theta > self.L_x * (1 + 1e-12):
            raise ValueError("theta cannot exceed L_x")


@dataclass(frozen=True)
class MinimaxProblem:
    """min over X of max over Y of f, given by its oracles and constants.

    ``value_rows(X, Y)``, when set, maps ``(n, dim_x)`` and ``(n, dim_y)``
    arrays to the ``(n,)`` values of f row by row, and must agree with
    ``value`` on every row, bit for bit.  ``values`` uses it and falls back
    to a loop over ``value`` when it is None.  Replacing ``value`` alone (for
    instance with ``dataclasses.replace``) leaves the old ``value_rows`` in
    use; replace both, or set ``value_rows=None``.  ``grad_y_rows`` is the
    same for ``grad_y``: it maps the arrays to the ``(n, dim_y)`` gradients,
    ``grads_y`` uses it, and it goes stale the same way.
    """

    dim_x: int
    dim_y: int
    X: ConstraintSet
    Y: ConstraintSet
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constants: SmoothnessData
    tags: frozenset = frozenset()
    name: str = ""
    value_rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    grad_y_rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.X.dim != self.dim_x or self.Y.dim != self.dim_y:
            raise ValueError("feasible-set dimensions do not match the problem")

    def _check_rows(self, X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        n = len(X)
        if X.shape != (n, self.dim_x) or Y.shape != (n, self.dim_y):
            raise ValueError("row oracles need (n, dim_x) and (n, dim_y) arrays")
        return X, Y, n

    def values(self, X, Y) -> np.ndarray:
        """f at the row pairs ``(X[i], Y[i])``, in chunks of ``VALUE_CHUNK`` rows."""
        X, Y, n = self._check_rows(X, Y)
        if self.value_rows is None:
            return np.fromiter((self.value(x, y) for x, y in zip(X, Y)), float, n)
        out = np.empty(n)
        for s in range(0, n, VALUE_CHUNK):
            out[s:s + VALUE_CHUNK] = self.value_rows(X[s:s + VALUE_CHUNK],
                                                     Y[s:s + VALUE_CHUNK])
        return out

    def grads_y(self, X, Y) -> np.ndarray:
        """grad_y at the row pairs ``(X[i], Y[i])``, as an ``(n, dim_y)`` array."""
        X, Y, n = self._check_rows(X, Y)
        if self.grad_y_rows is not None:
            return self.grad_y_rows(X, Y)
        out = np.empty((n, self.dim_y))
        for i in range(n):
            out[i] = self.grad_y(X[i], Y[i])
        return out

    def check_point(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim_x,) or y.shape != (self.dim_y,):
            raise ValueError("dimension mismatch in (x, y)")
        return x, y


# ---------------------------------------------------------------------------
# quadratic testbed  f(x,y) = 1/2 x'Ax + a'x + x'By - 1/2 y'Cy - c'y


def _one_row(rows):
    """The scalar ``value`` of a row function."""

    def value(x, y):
        return float(rows(np.asarray(x, dtype=float)[None],
                          np.asarray(y, dtype=float)[None])[0])

    return value


def _spectral_norm(M: np.ndarray) -> float:
    if M.size == 0 or not np.any(M):
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _sym_check(M, label):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{label} must be square")
    if not np.allclose(M, M.T, atol=1e-12 * (1 + np.abs(M).max())):
        raise ValueError(f"{label} must be symmetric")
    return 0.5 * (M + M.T)


def make_quadratic(A, B, C, a=None, c_lin=None, X=None, Y=None, name="quadratic") -> MinimaxProblem:
    """Quadratic instance with exact constants from the spectra of A, B, C."""
    A = _sym_check(A, "A")
    C = _sym_check(C, "C")
    B = np.asarray(B, dtype=float)
    nx, ny = A.shape[0], C.shape[0]
    if B.shape != (nx, ny):
        raise ValueError("B must be dim_x x dim_y")
    a = np.zeros(nx) if a is None else np.asarray(a, dtype=float)
    c_lin = np.zeros(ny) if c_lin is None else np.asarray(c_lin, dtype=float)
    if a.shape != (nx,) or c_lin.shape != (ny,):
        raise ValueError("linear terms have wrong dimension")
    X = X or WholeSpace(nx)
    Y = Y or WholeSpace(ny)

    eig_A = np.linalg.eigvalsh(A)
    eig_C = np.linalg.eigvalsh(C)
    L_x = float(np.max(np.abs(eig_A))) if nx else 0.0
    L_y = float(np.max(np.abs(eig_C))) if ny else 0.0
    L_c = _spectral_norm(B)
    tol_A = _EIG_TOL * max(1.0, L_x)
    tol_C = _EIG_TOL * max(1.0, L_y)
    lam_min_A = float(eig_A[0])
    lam_min_C = float(eig_C[0])
    mu = lam_min_C if lam_min_C > tol_C else 0.0
    theta = lam_min_A if lam_min_A > tol_A else 0.0

    tags = set()
    if mu > 0:
        tags.add(Regime.NC_SC)
    elif lam_min_C >= -tol_C:
        tags.add(Regime.NC_C)
    if theta > 0:
        tags.add(Regime.SC_NC)
    elif lam_min_A >= -tol_A:
        tags.add(Regime.C_NC)

    def rows(X, Y):
        return (np.vecdot(0.5 * X, np.matvec(A, X)) + np.vecdot(a, X)
                + np.vecdot(X, np.matvec(B, Y)) - np.vecdot(0.5 * Y, np.matvec(C, Y))
                - np.vecdot(c_lin, Y))

    # ndarray.dot has the bits of @, with less call overhead
    Bt = B.T

    def grad_x(x, y):
        return A.dot(x) + a + B.dot(y)

    def grad_y(x, y):
        return Bt.dot(x) - C.dot(y) - c_lin

    def grad_y_rows(X, Y):
        return np.matvec(Bt, X) - np.matvec(C, Y) - c_lin

    return MinimaxProblem(
        dim_x=nx, dim_y=ny, X=X, Y=Y,
        value=_one_row(rows), grad_x=grad_x, grad_y=grad_y,
        constants=SmoothnessData(L_x=L_x, L_y=L_y, L_12=L_c, L_21=L_c, mu=mu, theta=theta),
        tags=frozenset(tags), name=name, value_rows=rows, grad_y_rows=grad_y_rows,
    )


def make_bilinear(B, X=None, Y=None, name="bilinear") -> MinimaxProblem:
    """f(x,y) = x'By; admissible to both general regimes."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if not np.any(B):
        raise ValueError("bilinear coupling matrix must be nonzero")
    nx, ny = B.shape
    prob = make_quadratic(np.zeros((nx, nx)), B, np.zeros((ny, ny)), X=X, Y=Y, name=name)
    return prob


# ---------------------------------------------------------------------------
# nonconvex sine testbeds


def make_nc_sc_sine(dim_x, dim_y, coupling, mu, X, Y, name="sine_nc_sc") -> MinimaxProblem:
    """f(x,y) = sum_i sin(x_i) + x'By - (mu/2)||y||^2, nonconvex in x."""
    if not (mu > 0):
        raise ValueError("mu must be > 0")
    B = np.asarray(coupling, dtype=float)
    if B.shape != (dim_x, dim_y):
        raise ValueError("coupling must be dim_x x dim_y")

    def rows(X, Y):
        return (np.sum(np.sin(X), axis=1) + np.vecdot(X, np.matvec(B, Y))
                - 0.5 * mu * np.vecdot(Y, Y))

    def grad_x(x, y):
        return np.cos(x) + B @ y

    def grad_y(x, y):
        return B.T @ x - mu * y

    return MinimaxProblem(
        dim_x=dim_x, dim_y=dim_y, X=X, Y=Y,
        value=_one_row(rows), grad_x=grad_x, grad_y=grad_y, value_rows=rows,
        constants=SmoothnessData(L_x=1.0, L_y=float(mu), L_12=_spectral_norm(B),
                                 L_21=_spectral_norm(B), mu=float(mu), theta=0.0),
        tags=frozenset({Regime.NC_SC}), name=name,
    )


def make_sc_nc_sine(dim_x, dim_y, coupling, theta, X, Y, name="sine_sc_nc") -> MinimaxProblem:
    """Mirrored testbed f(x,y) = (theta/2)||x||^2 + x'By - sum_i sin(y_i)."""
    if not (theta > 0):
        raise ValueError("theta must be > 0")
    B = np.asarray(coupling, dtype=float)
    if B.shape != (dim_x, dim_y):
        raise ValueError("coupling must be dim_x x dim_y")

    def rows(X, Y):
        return (0.5 * theta * np.vecdot(X, X) + np.vecdot(X, np.matvec(B, Y))
                - np.sum(np.sin(Y), axis=1))

    def grad_x(x, y):
        return theta * x + B @ y

    def grad_y(x, y):
        return B.T @ x - np.cos(y)

    return MinimaxProblem(
        dim_x=dim_x, dim_y=dim_y, X=X, Y=Y,
        value=_one_row(rows), grad_x=grad_x, grad_y=grad_y, value_rows=rows,
        constants=SmoothnessData(L_x=float(theta), L_y=1.0, L_12=_spectral_norm(B),
                                 L_21=_spectral_norm(B), mu=0.0, theta=float(theta)),
        tags=frozenset({Regime.SC_NC}), name=name,
    )


# ---------------------------------------------------------------------------
# robust-SVM toy

_HINGE_WIDTH = 0.1


def _hinge(t):
    """Quadratically smoothed max(0, t); C^1 with 1/width-Lipschitz gradient."""
    t = np.asarray(t, dtype=float)
    w = _HINGE_WIDTH
    return np.where(t <= 0, 0.0, np.where(t >= w, t - 0.5 * w, 0.5 * t * t / w))


def _hinge_d(t):
    """Derivative of ``_hinge`` as a clip of t / width to [0, 1]: 0 for
    t <= 0, 1 for t >= width and NaN for NaN, the bits of the case split
    on every t but -0.0, which a margin 1 - v never is."""
    return np.minimum(np.maximum(t / _HINGE_WIDTH, 0.0), 1.0)


def make_robust_svm_toy(data, X: Ball, Y: Product, name="robust_svm") -> MinimaxProblem:
    """Adversarial linear-classifier toy.

    x = (weights, bias), y = (adversarial direction y_u, multiplier y_v);
    the coupling term is y_v * (<x_w, y_u> + x_b) and each data point
    contributes a smoothed hinge of its margin, averaged over the data set
    (the aggregation over points is a library choice).  Convex in x,
    nonconcave in y.
    """
    if not data:
        raise ValueError("data must be nonempty")
    feats = np.asarray([np.asarray(f, dtype=float) for f, _ in data])
    labels = np.asarray([float(l) for _, l in data])
    if feats.ndim != 2:
        raise ValueError("inconsistent feature dimensions")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +/-1")
    n, m = feats.shape
    dim = m + 1
    if X.dim != dim or Y.dim != dim:
        raise ValueError("X and Y must have dimension len(features)+1")

    aug = np.hstack([feats, np.ones((n, 1))])  # (a_i, 1) rows
    neg_labels, feats_t = -labels, aug[:, :m].T

    def rows(X, Y):
        XW, XB = X[:, :m], X[:, m]
        YU, YV = Y[:, :m], Y[:, m]
        margins = 1.0 - labels * (np.matvec(feats, XW) + XB[:, None])
        return YV * (np.vecdot(XW, YU) + XB) + np.mean(_hinge(margins), axis=1)

    def grad_x(x, y):
        xw, xb = x[:m], x[m]
        yu, yv = y[:m], y[m]
        margins = 1.0 - labels * (feats @ xw + xb)
        w = _hinge_d(margins)
        w *= neg_labels  # d hinge / d (x-affine part)
        g = np.empty(dim)
        g[:m] = yv * yu + (feats_t @ w) / n
        g[m] = yv + float(w.sum()) / n
        return g

    def grad_y(x, y):
        xw, xb = x[:m], x[m]
        yu = y[:m]
        g = np.empty(dim)
        g[:m] = y[m] * xw
        g[m] = float(xw @ yu + xb)
        return g

    def grad_y_rows(X, Y):
        XW = X[:, :m]
        G = np.empty((len(X), dim))
        G[:, :m] = Y[:, m:] * XW
        G[:, m] = np.vecdot(XW, Y[:, :m]) + X[:, m]
        return G

    # Hessian-block bounds: hinge curvature <= 1/width on the augmented Gram;
    # y-block Hessian has norm ||x_w|| <= max ||x|| over X; the cross block
    # [[y_v I, 0], [y_u', 1]] has norm <= sqrt(||y||^2 + 1).
    gram = aug.T @ aug / n
    L_x = float(np.max(np.linalg.eigvalsh(gram))) / _HINGE_WIDTH
    L_y = float(X.max_norm())
    L_cross = math.sqrt(float(Y.max_norm()) ** 2 + 1.0)

    return MinimaxProblem(
        dim_x=dim, dim_y=dim, X=X, Y=Y,
        value=_one_row(rows), grad_x=grad_x, grad_y=grad_y, value_rows=rows,
        grad_y_rows=grad_y_rows,
        constants=SmoothnessData(L_x=L_x, L_y=L_y, L_12=L_cross, L_21=L_cross),
        tags=frozenset({Regime.C_NC}), name=name,
    )


# ---------------------------------------------------------------------------
# random zoo generation (seeded, used by the benchmark harness and tests)


def _random_sym(rng, n, scale=1.0):
    Q = rng.standard_normal((n, n))
    return scale * 0.5 * (Q + Q.T) / math.sqrt(n)


def _random_psd(rng, n, lam_min, lam_max):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lam_min, lam_max, size=n)
    lam[0] = lam_min
    lam[-1] = lam_max
    return (Q * lam) @ Q.T


def _shift_to_indefinite(M, target_lam_min):
    """Shift a symmetric matrix so its smallest eigenvalue equals the target."""
    lam_min = float(np.min(np.linalg.eigvalsh(M)))
    return M + (target_lam_min - lam_min) * np.eye(M.shape[0])


def random_quadratic(seed, nx, ny, regime) -> MinimaxProblem:
    """Random quadratic instance engineered to carry the requested tag.

    The feasible sets are the boxes [-1, 1]^nx and [-1, 1]^ny, so the
    complexity bounds have finite size constants.
    """
    regime = Regime(regime) if not isinstance(regime, Regime) else regime
    rng = np.random.default_rng(seed)
    if regime in (Regime.NC_C, Regime.C_NC) and (ny if regime is Regime.NC_C else nx) < 2:
        raise ValueError("singular-curvature instances need block dimension >= 2")

    B = 0.6 * rng.standard_normal((nx, ny)) / math.sqrt(max(nx, ny))
    if regime is Regime.NC_SC:
        A = _random_sym(rng, nx)
        C = _random_psd(rng, ny, 0.5, 1.5)
    elif regime is Regime.NC_C:
        A = _random_sym(rng, nx)
        C = _random_psd(rng, ny, 0.0, 1.5)  # concave, singular
    elif regime is Regime.SC_NC:
        A = _random_psd(rng, nx, 0.5, 1.5)
        C = _shift_to_indefinite(_random_sym(rng, ny), -0.3)
    else:  # C_NC
        A = _random_psd(rng, nx, 0.0, 1.5)  # convex, singular
        C = _shift_to_indefinite(_random_sym(rng, ny), -0.3)

    # small linear terms keep the origin off the stationary set, so the
    # project-origin default start actually has to move
    a = 0.2 * rng.standard_normal(nx)
    c_lin = 0.2 * rng.standard_normal(ny)
    X = Box(-np.ones(nx), np.ones(nx))
    Y = Box(-np.ones(ny), np.ones(ny))
    prob = make_quadratic(A, B, C, a=a, c_lin=c_lin, X=X, Y=Y,
                          name=f"quadratic(seed={seed}, nx={nx}, ny={ny}, regime={regime.value})")
    if regime not in prob.tags:
        raise RuntimeError(f"generated instance missed tag {regime}; got {prob.tags}")
    return prob
