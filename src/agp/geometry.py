"""Convex feasible sets with exact Euclidean projections.

Variants: whole space, box, Euclidean ball, scaled probability simplex, and
a block product of those (the problem zoo needs ball x interval).
``project_rows`` projects each row of an ``(n, dim)`` array with the bits of
``project``: boxes, whole space and balls in one numpy call, products part
by part over column slices; simplices loop over ``project``.  Every
compact variant answers two size queries consumed by the complexity-bound
calculators: ``diameter`` (max pairwise distance) and ``max_norm`` (max
Euclidean norm over the set).  An unbounded set answers ``math.inf``.

All sets are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._expr import _CallValue, parse_value

__all__ = [
    "ConstraintSet",
    "WholeSpace",
    "Box",
    "Ball",
    "Simplex",
    "Product",
    "parse_set",
]


def _freeze(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D real vector")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_dim(s: "ConstraintSet", v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (s.dim,):
        raise ValueError(f"dimension mismatch: set has dim {s.dim}, vector has shape {v.shape}")
    return v


def _check_rows(s: "ConstraintSet", V: np.ndarray) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != s.dim:
        raise ValueError(f"dimension mismatch: set has dim {s.dim}, rows have shape {V.shape}")
    return V


def _check_tol(tol: float) -> None:
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")


class ConstraintSet:
    """Base class; concrete variants implement the projection calculus."""

    dim: int

    def project(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_rows(self, V: np.ndarray) -> np.ndarray:
        """``project`` of each row of an ``(n, dim)`` array, with the bits of
        ``project`` on every row; variants without a batched form loop."""
        V = _check_rows(self, V)
        out = np.empty(V.shape)
        for i, v in enumerate(V):
            out[i] = self.project(v)
        return out

    def contains(self, v: np.ndarray, tol: float = 0.0) -> bool:
        """Membership up to a slack ``tol >= 0``; any other ``tol`` raises."""
        raise NotImplementedError

    def diameter(self):
        raise NotImplementedError

    def max_norm(self):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random point of the set (used by property tests and checkers)."""
        raise NotImplementedError


@dataclass(frozen=True)
class WholeSpace(ConstraintSet):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def project(self, v):
        return np.array(_check_dim(self, v), dtype=float)

    def project_rows(self, V):
        return np.array(_check_rows(self, V), dtype=float)

    def contains(self, v, tol=0.0):
        _check_dim(self, v)
        _check_tol(tol)
        return True

    def diameter(self):
        return math.inf

    def max_norm(self):
        return math.inf

    def sample(self, rng):
        return rng.standard_normal(self.dim)


@dataclass(frozen=True)
class Box(ConstraintSet):
    lower: np.ndarray
    upper: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        lo = _freeze(self.lower)
        hi = _freeze(self.upper)
        if lo.shape != hi.shape:
            raise ValueError("lower/upper dimension mismatch")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "dim", lo.shape[0])

    def project(self, v):
        v = _check_dim(self, v)
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def project_rows(self, V):
        V = _check_rows(self, V)
        return np.minimum(np.maximum(V, self.lower), self.upper)

    def contains(self, v, tol=0.0):
        v = _check_dim(self, v)
        _check_tol(tol)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def max_norm(self):
        return float(math.sqrt(float(np.sum(np.maximum(self.lower**2, self.upper**2)))))

    def sample(self, rng):
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True)
class Ball(ConstraintSet):
    center: np.ndarray
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        c = _freeze(self.center)
        r = float(self.radius)
        if not np.isfinite(c).all():
            raise ValueError("ball center must be finite")
        if not (0 < r < math.inf):
            raise ValueError("ball radius must be positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "dim", c.shape[0])

    def project(self, v):
        v = _check_dim(self, v)
        d = v - self.center
        n = math.sqrt(d.dot(d))  # the bits of np.linalg.norm of a 1-D vector
        if n <= self.radius:
            # includes v == center: the center itself is returned
            return v.copy()
        return self.center + d * (self.radius / n)

    def project_rows(self, V):
        V = _check_rows(self, V)
        D = V - self.center
        n = np.sqrt(np.vecdot(D, D))[:, None]
        # a row at the center scales by r / 0 and a NaN or infinite row to
        # NaN; as in project, np.where keeps the first row and the NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(n <= self.radius, V, self.center + D * (self.radius / n))

    def contains(self, v, tol=0.0):
        v = _check_dim(self, v)
        _check_tol(tol)
        return bool(np.linalg.norm(v - self.center) <= self.radius + tol)

    def diameter(self):
        return 2.0 * self.radius

    def max_norm(self):
        return float(np.linalg.norm(self.center)) + self.radius

    def sample(self, rng):
        d = rng.standard_normal(self.dim)
        n = np.linalg.norm(d)
        if n == 0:
            return self.center.copy()
        u = rng.uniform() ** (1.0 / self.dim)
        return self.center + d * (self.radius * u / n)


@dataclass(frozen=True)
class Simplex(ConstraintSet):
    """The scaled simplex {v >= 0, sum(v) = scale}."""

    dim: int
    scale: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (0 < float(self.scale) < math.inf):
            raise ValueError("simplex scale must be positive and finite")
        object.__setattr__(self, "scale", float(self.scale))

    def project(self, v):
        # sort-then-threshold: find tau with sum(max(v_i - tau, 0)) = scale
        v = _check_dim(self, v)
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - self.scale
        idx = np.arange(1, self.dim + 1)
        rho = int(idx[u - css / idx > 0][-1])
        tau = css[rho - 1] / rho
        return np.maximum(v - tau, 0.0)

    def contains(self, v, tol=0.0):
        v = _check_dim(self, v)
        _check_tol(tol)
        return bool(np.all(v >= -tol) and abs(float(np.sum(v)) - self.scale) <= tol)

    def diameter(self):
        if self.dim == 1:
            return 0.0
        return self.scale * math.sqrt(2.0)

    def max_norm(self):
        # norm is convex, so the max sits at a vertex scale * e_i
        return self.scale

    def sample(self, rng):
        return rng.dirichlet(np.ones(self.dim)) * self.scale


@dataclass(frozen=True)
class Product(ConstraintSet):
    """Block product of sets; projection is exact blockwise projection."""

    parts: tuple
    dim: int = field(init=False)
    # (part, start, stop) of each part's columns
    _slices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("product needs at least one part")
        for p in parts:
            if not isinstance(p, ConstraintSet):
                raise ValueError("product parts must be constraint sets")
        stops = np.cumsum([p.dim for p in parts]).tolist()
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "dim", stops[-1])
        object.__setattr__(self, "_slices", tuple(zip(parts, [0, *stops], stops)))

    def project(self, v):
        v = _check_dim(self, v)
        return np.concatenate([p.project(v[a:b]) for p, a, b in self._slices])

    def project_rows(self, V):
        V = _check_rows(self, V)
        out = np.empty(V.shape)
        for p, a, b in self._slices:
            out[:, a:b] = p.project_rows(V[:, a:b])
        return out

    def contains(self, v, tol=0.0):
        v = _check_dim(self, v)
        _check_tol(tol)
        return all(p.contains(v[a:b], tol) for p, a, b in self._slices)

    def diameter(self):
        ds = [p.diameter() for p in self.parts]
        return float(math.sqrt(sum(d * d for d in ds)))

    def max_norm(self):
        ms = [p.max_norm() for p in self.parts]
        return float(math.sqrt(sum(m * m for m in ms)))

    def sample(self, rng):
        return np.concatenate([p.sample(rng) for p in self.parts])


# ---------------------------------------------------------------------------
# config-text parsing


def parse_set(text: str) -> ConstraintSet:
    """Parse config text like ``box(lower=[0, 0], upper=[1, 1])`` into a set."""
    call = parse_value(text)
    if not isinstance(call, _CallValue):
        raise ValueError(f"expected name(...) form, got {text!r}")
    return build_set(call.name, call.args, call.kwargs)


def build_set(name: str, args: list, kwargs: dict) -> ConstraintSet:
    def as_set(v):
        if isinstance(v, ConstraintSet):
            return v
        if isinstance(v, _CallValue):
            return build_set(v.name, v.args, v.kwargs)
        raise ValueError(f"expected a set descriptor, got {v!r}")

    def as_dim(v):
        # int() would truncate a fractional dim such as 2.5 to 2
        if isinstance(v, bool) or not float(v).is_integer():
            raise ValueError(f"dim must be an integer, got {v!r}")
        return int(v)

    name = name.lower()
    if name == "free":
        return WholeSpace(as_dim(kwargs.get("dim", args[0] if args else 0)))
    if name == "box":
        return Box(kwargs["lower"], kwargs["upper"])
    if name == "ball":
        return Ball(kwargs["center"], kwargs["radius"])
    if name == "simplex":
        return Simplex(as_dim(kwargs["dim"]), float(kwargs.get("scale", 1.0)))
    if name == "interval":
        lo, hi = (args if len(args) == 2 else (kwargs["lower"], kwargs["upper"]))
        return Box([float(lo)], [float(hi)])
    if name == "product":
        return Product(tuple(as_set(a) for a in args))
    raise ValueError(f"unknown set kind: {name!r}")
