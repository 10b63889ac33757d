import dataclasses
import math

import numpy as np
import pytest

from agp.geometry import Ball, Box, Product, Simplex, WholeSpace
from agp.objective import (MinimaxProblem, Regime, SmoothnessData, make_bilinear,
                           make_nc_sc_sine, make_quadratic, make_robust_svm_toy,
                           make_sc_nc_sine, random_quadratic)
from agp.schedules import (CNcConfig, InfeasibleConfigError, NcCConfig,
                           NcScConfig, ScNcConfig, auto_configure)
from agp.solver import run, run_gda
from agp import verify
from agp.verify import (InvalidTraceError, TheoryConstants, _bounding_box,
                        _cell_bound, _certified_range, compute_bound, d1_nc_sc,
                        finite_diff_check, lemma_monitor, rate_slope,
                        theory_constants)

from reference import saddle_oracle_quadratic, stationarity_gap


def counting(p, batched=True):
    """A copy of ``p`` whose oracle calls are counted in the returned dict.

    ``value`` counts scalar calls, ``rows`` the rows passed to ``value_rows``
    and ``chunk`` the largest row count of one ``value_rows`` call.  With
    ``batched=False`` the copy has no ``value_rows``, so every value is a
    scalar call.
    """
    calls = {"value": 0, "rows": 0, "chunk": 0, "grad": 0}

    def counted(fn, kind):
        def call(*args):
            calls[kind] += 1
            return fn(*args)
        return call

    def counted_rows(X, Y):
        calls["rows"] += len(X)
        calls["chunk"] = max(calls["chunk"], len(X))
        return p.value_rows(X, Y)

    return dataclasses.replace(p, value=counted(p.value, "value"),
                               value_rows=counted_rows if batched else None,
                               grad_x=counted(p.grad_x, "grad"),
                               grad_y=counted(p.grad_y, "grad")), calls


def boundary_sample(s, rng):
    """A point of ``s``: on the sphere for every ball part, a vertex
    ``scale * e_i`` for every simplex part and a corner for every box part."""
    if isinstance(s, Ball):
        u = rng.standard_normal(s.dim)
        return s.center + s.radius * u / np.linalg.norm(u)
    if isinstance(s, Simplex):
        return s.scale * np.eye(s.dim)[rng.integers(s.dim)]
    if isinstance(s, Box):
        return np.where(rng.integers(0, 2, s.dim) == 1, s.upper, s.lower)
    if isinstance(s, Product):
        return np.concatenate([boundary_sample(p, rng) for p in s.parts])
    return s.sample(rng)


class TestFiniteDiffCheck:
    def test_quadratic_passes_tight(self):
        p = random_quadratic(0, 2, 2, Regime.NC_SC)
        rep = finite_diff_check(p, 50, seed=1)
        assert rep.passed
        assert max(e.max_violation for e in rep.entries) <= 1e-7

    def test_sine_passes(self):
        from agp.objective import make_nc_sc_sine
        rng = np.random.default_rng(0)
        p = make_nc_sc_sine(3, 2, 0.4 * rng.standard_normal((3, 2)), 1.0,
                            Box(-np.ones(3), np.ones(3)), Box(-np.ones(2), np.ones(2)))
        assert finite_diff_check(p, 100, seed=2).passed

    def test_corrupted_gradient_fails(self):
        p = random_quadratic(0, 2, 2, Regime.NC_SC)
        corrupted = type(p)(
            dim_x=p.dim_x, dim_y=p.dim_y, X=p.X, Y=p.Y, value=p.value,
            grad_x=lambda x, y: p.grad_x(x, y) + np.array([0.1, 0.0]),
            grad_y=p.grad_y, constants=p.constants)
        rep = finite_diff_check(corrupted, 20, seed=3)
        assert not rep.passed
        assert rep.entry("grad_x").max_violation > 1e-3
        assert rep.entry("grad_y").passed

    def test_n_points_validated(self):
        p = random_quadratic(0, 2, 2, Regime.NC_SC)
        with pytest.raises(ValueError):
            finite_diff_check(p, 0)


class TestSaddleOracle:
    def test_two_by_two_hand_solve(self):
        x, y = saddle_oracle_quadratic([[1.0]], [[1.0]], [[1.0]], [-1.0], [0.0])
        assert x[0] == pytest.approx(0.5)
        assert y[0] == pytest.approx(0.5)

    def test_decoupled_origin(self):
        x, y = saddle_oracle_quadratic(np.eye(2), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(x, 0.0)
        np.testing.assert_allclose(y, 0.0)

    def test_singular_marker(self):
        assert saddle_oracle_quadratic([[0.0]], [[0.0]], [[0.0]]) is None

    def test_residual_and_gap_at_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            M = rng.standard_normal((3, 3))
            A = M @ M.T + 0.5 * np.eye(3)
            N = rng.standard_normal((2, 2))
            C = N @ N.T + 0.5 * np.eye(2)
            B = rng.standard_normal((3, 2))
            a = rng.standard_normal(3)
            c_lin = rng.standard_normal(2)
            x, y = saddle_oracle_quadratic(A, B, C, a, c_lin)
            res = np.concatenate([A @ x + B @ y + a, B.T @ x - C @ y - c_lin])
            assert np.linalg.norm(res) <= 1e-10 * (1 + np.linalg.norm(a) + np.linalg.norm(c_lin))
            p = make_quadratic(A, B, C, a, c_lin)
            g = stationarity_gap(p, x, y, 1.0, 1.0)
            assert g.norm <= 1e-8


def ranges(p):
    """The certified ``(lower, upper)`` range of f over X x Y."""
    return _certified_range(p, "lower"), _certified_range(p, "upper")


def joint_lipschitz(p):
    d = p.constants
    return float(np.linalg.norm([[d.L_x, d.L_21], [d.L_12, d.L_y]], 2))


def recording(p):
    """A copy of ``p`` whose ``value`` appends every point it is called at."""
    seen = []

    def value(x, y):
        seen.append(np.concatenate([x, y]))
        return p.value(x, y)

    return dataclasses.replace(p, value=value), seen


def quadratic_on(X, Y, seed=3):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((X.dim, X.dim))
    T = rng.standard_normal((Y.dim, Y.dim))
    return make_quadratic(S + S.T, rng.standard_normal((X.dim, Y.dim)), T + T.T,
                          rng.standard_normal(X.dim), rng.standard_normal(Y.dim),
                          X=X, Y=Y)


def uniform_cell(lo, hi, n, z):
    """The cell holding ``z`` when ``[lo, hi]`` is cut into n equal cells per axis."""
    w = (hi - lo) / n
    i = np.clip(np.floor((z - lo) / np.where(w > 0, w, 1.0)), 0, n - 1)
    return lo + i * w, np.where(i == n - 1, hi, lo + (i + 1) * w)


class TestGridExtremum:
    """The certified range of f over X x Y, ``verify._certified_range``,
    which took the place of the grid extremum scan."""

    def test_bilinear_corners(self):
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        lo, hi = ranges(p)
        assert -1.05 < lo <= -1.0
        assert 1.0 <= hi < 1.05

    def test_quadratic_cross_checked_against_edge_candidates(self):
        # f = x^2/2 + xy - y^2/2 on [-1,1]^2; compare the range against an
        # edge-restricted 1-D minimization oracle
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]],
                           X=Box([-1], [1]), Y=Box([-1], [1]))
        lo, hi = ranges(p)

        def f(x, y):
            return 0.5 * x * x + x * y - 0.5 * y * y

        t = np.linspace(-1, 1, 100001)
        edge_vals = np.concatenate([f(t, 1.0), f(t, -1.0), f(1.0, t), f(-1.0, t)])
        # interior critical point of the saddle is (0,0) with f = 0
        want_min = min(edge_vals.min(), 0.0)
        want_max = max(edge_vals.max(), 0.0)
        assert want_min - 0.05 < lo <= want_min
        assert want_max <= hi < want_max + 0.05

    def test_constant_function(self):
        # zero curvature and gradient: only the outward rounding remains
        const = MinimaxProblem(dim_x=1, dim_y=1, X=Box([-1], [1]), Y=Box([-1], [1]),
                               value=lambda x, y: 3.25,
                               grad_x=lambda x, y: np.zeros(1),
                               grad_y=lambda x, y: np.zeros(1),
                               constants=SmoothnessData(0.0, 0.0, 0.0, 0.0))
        lo, hi = ranges(const)
        assert 3.25 - 1e-11 < lo < 3.25 < hi < 3.25 + 1e-11

    def test_unbounded_rejected(self):
        p = make_bilinear([[1.0]])
        with pytest.raises(ValueError, match="compact"):
            _certified_range(p, "lower")

    @pytest.mark.parametrize("X", [None, Box([0.0], [math.inf])], ids=["free", "half-line"])
    def test_one_unbounded_block_rejected(self, X):
        p = make_bilinear([[1.0]], X=X, Y=Box([-1], [1]))
        with pytest.raises(ValueError, match="compact"):
            _certified_range(p, "lower")

    def test_refinement_respects_pad(self, monkeypatch):
        # more cells never loosen the range, and each range holds the finer one
        p = random_quadratic(1, 1, 1, Regime.NC_SC)
        got = []
        for budget in (1, 3, 21, 201):
            monkeypatch.setattr(verify, "_CELL_BUDGET", budget)
            got.append(ranges(p))
        lows, highs = zip(*got)
        assert list(lows) == sorted(lows) and list(highs) == sorted(highs, reverse=True)
        assert lows[0] < lows[-1] and highs[-1] < highs[0]

    @pytest.mark.parametrize("s, resolution", [
        (Box([-1.0, 0.0], [1.0, 3.0]), 5),
        (Ball([0.0, 0.0], 1.0), 3),
        (Ball([0.0, 0.0], 1.0), 9),
        (Ball([0.2, -0.1, 0.3], 1.0), 5),
        (Ball([0.0, 0.0, 0.0], 1.0), 9),
        (Simplex(3), 7),
        (Simplex(2, 2.0), 4),
        (Product((Ball([0.0, 0.0], 1.0), Box([0.0], [2.0]))), 5),
        (Ball([0.0, 0.0], 1.0), 2),
        (Simplex(1), 5),
        (Product((Simplex(2), Ball([0.5, -0.5], 1.0))), 5),
    ], ids=["box", "disk-3", "disk-9", "ball3-5", "ball3-9", "simplex3-7",
            "simplex2-4", "disk-x-box-5", "disk-2", "simplex1-5",
            "simplex2-x-disk-5"])
    def test_covering_radius_bounds_nearest_grid_point(self, s, resolution):
        # cut the bounding box of X = s into resolution^dim cells: every
        # sampled point of X lies within r of the projected center its cell
        # is scored at, so the cell is kept and its bound holds at the point
        rng = np.random.default_rng(5)
        Y = Box([-1.0], [1.0])
        p = quadratic_on(s, Y)
        L = joint_lipschitz(p)
        lo, hi = _bounding_box(s)
        for z in [s.sample(rng) for _ in range(150)] + [boundary_sample(s, rng)
                                                         for _ in range(150)]:
            clo, chi = uniform_cell(lo, hi, resolution, z)
            c = (clo + chi) / 2
            r = 0.5 * np.linalg.norm(chi - clo)
            assert np.linalg.norm(z - s.project(c)) <= r * (1 + 1e-12)
            y = Y.sample(rng)
            for sign in (1.0, -1.0):
                b = _cell_bound(p, np.append(clo, -1.0), np.append(chi, 1.0), sign, L)
                assert b is not None and b <= sign * p.value(z, y)

    @pytest.mark.parametrize("box, resolution", [
        (Box(-np.ones(3), np.ones(3)), 9),
        (Box([-1.0, 0.0, -2.0], [1.0, 3.0, 0.5]), 17),
        (Box([0.3], [0.3]), 4),
    ], ids=["cube-9", "box3-17", "point-4"])
    def test_box_grid_is_the_plain_meshgrid(self, box, resolution):
        # a box fills its bounding box: every cell of the plain meshgrid of
        # cells is kept and scored at its own center
        p, seen = recording(quadratic_on(box, Box([0.0], [0.0])))
        L = joint_lipschitz(p)
        edges = [np.linspace(lo, hi, resolution + 1) for lo, hi in zip(box.lower, box.upper)]
        mesh = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
        cells_lo = np.stack([m.ravel() for m in mesh], axis=1)
        mesh = np.meshgrid(*[e[1:] for e in edges], indexing="ij")
        cells_hi = np.stack([m.ravel() for m in mesh], axis=1)
        for clo, chi in zip(cells_lo, cells_hi):
            assert _cell_bound(p, np.append(clo, 0.0), np.append(chi, 0.0), 1.0, L) is not None
        np.testing.assert_array_equal(np.array(seen)[:, :-1], (cells_lo + cells_hi) / 2)

    def test_box_pad_is_half_a_cell_diagonal(self):
        # f = x_1 on the cube: zero curvature and a unit gradient, so a cell
        # of width 2/8 per axis is padded by half its diagonal, sqrt(3)/8
        p = make_quadratic(np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((1, 1)),
                           a=[1.0, 0.0, 0.0], X=Box(-np.ones(3), np.ones(3)),
                           Y=Box([0.0], [0.0]))
        assert joint_lipschitz(p) == 0.0
        lo = np.array([-1.0, -1.0, -1.0, 0.0])
        hi = np.array([-0.75, -0.75, -0.75, 0.0])
        center = -0.875
        assert _cell_bound(p, lo, hi, 1.0, 0.0) == pytest.approx(center - math.sqrt(3) / 8,
                                                                  rel=1e-11)
        assert -_cell_bound(p, lo, hi, -1.0, 0.0) == pytest.approx(center + math.sqrt(3) / 8,
                                                                    rel=1e-11)

    def test_coarse_ball_grid_projects_the_corners(self):
        # the corner cell [0.5, 1]^2 of the disk's box holds points of the
        # disk and is scored at its center's projection onto the circle; the
        # corner cell [0.75, 1]^2 holds none and is dropped unevaluated
        disk = Ball([0.0, 0.0], 1.0)
        p, seen = recording(quadratic_on(disk, Box([0.0], [0.0])))
        L = joint_lipschitz(p)
        corner = np.array([1.0, 1.0, 0.0])
        assert _cell_bound(p, np.array([0.5, 0.5, 0.0]), corner, 1.0, L) is not None
        np.testing.assert_allclose(seen[0][:2], math.sqrt(0.5), rtol=1e-15)
        assert _cell_bound(p, np.array([0.75, 0.75, 0.0]), corner, 1.0, L) is None
        assert len(seen) == 1

    @pytest.mark.parametrize("X, Y", [
        (Box([-1.0, 0.0, -2.0], [1.0, 3.0, 0.5]), Simplex(1)),
        (Ball([0.2, -0.1], 1.5), Ball([0.0, 0.0, 0.0], 1.0)),
        (Simplex(3), Simplex(2, 2.0)),
        (Product((Ball([0.0, 0.0], 1.0), Box([0.0], [2.0]))),
         Box([-1.0, -1.0], [1.0, 1.0])),
    ], ids=["box", "ball", "simplex", "disk-x-box"])
    @pytest.mark.parametrize("nans", [False, True], ids=["finite", "nan"])
    def test_batched_scan_matches_scalar_loop(self, X, Y, nans):
        # the range reads the scalar oracles only, so a problem with and
        # without value_rows gets the same range; a NaN refuses it
        p = quadratic_on(X, Y)
        if nans:  # NaN wherever x_1 + y_1 > -0.5
            rows = p.value_rows

            def nan_rows(Xs, Ys):
                return np.where(Xs[:, 0] + Ys[:, 0] > -0.5, np.nan, rows(Xs, Ys))

            p = dataclasses.replace(
                p, value_rows=nan_rows,
                value=lambda x, y: float(nan_rows(x[None], y[None])[0]))
        scalar = dataclasses.replace(p, value_rows=None)
        for side in ("lower", "upper"):
            if nans:
                for q in (p, scalar):
                    with pytest.raises(ValueError, match="not finite"):
                        _certified_range(q, side)
            else:
                assert math.isfinite(_certified_range(p, side))
                assert _certified_range(p, side) == _certified_range(scalar, side)

    def test_nan_gradient_refuses_the_range(self):
        p = random_quadratic(1, 2, 2, Regime.NC_SC)
        p = dataclasses.replace(p, grad_y=lambda x, y: np.full(2, np.nan))
        with pytest.raises(ValueError, match="not finite"):
            _certified_range(p, "lower")


def zoo_on(kind, X, Y):
    """A zoo instance of ``kind`` on the sets X and Y."""
    rng = np.random.default_rng(11)
    if kind == "quadratic":
        return quadratic_on(X, Y)
    if kind == "bilinear":
        return make_bilinear(rng.standard_normal((X.dim, Y.dim)), X=X, Y=Y)
    if kind == "nc_sc_sine":
        return make_nc_sc_sine(X.dim, Y.dim, 0.4 * rng.standard_normal((X.dim, Y.dim)),
                               1.0, X, Y)
    if kind == "sc_nc_sine":
        return make_sc_nc_sine(X.dim, Y.dim, 0.4 * rng.standard_normal((X.dim, Y.dim)),
                               0.8, X, Y)
    feats = rng.standard_normal((6, X.dim - 1))
    labels = np.where(feats[:, 0] > 0, 1.0, -1.0)
    return make_robust_svm_toy(list(zip(feats, labels)), X, Y)


SET_KINDS = {
    "box": lambda d: Box(-0.5 - np.arange(d) / 4, 1.0 + np.arange(d) / 2),
    "ball": lambda d: Ball(0.3 * np.ones(d), 1.2),
    "simplex": lambda d: Simplex(d, 1.5),
    "product": lambda d: Product((Ball(np.zeros(d - 1), 1.0), Box([-1.0], [0.5]))),
}


class TestCertifiedRange:
    @pytest.mark.parametrize("budget", [1, 201, 2001])
    @pytest.mark.parametrize("set_kind", list(SET_KINDS))
    @pytest.mark.parametrize("kind", ["quadratic", "bilinear", "nc_sc_sine",
                                      "sc_nc_sine", "robust_svm"])
    def test_range_holds_on_dense_samples(self, monkeypatch, kind, set_kind, budget):
        dx, dy = {"nc_sc_sine": (3, 2), "sc_nc_sine": (2, 3), "robust_svm": (3, 3)}.get(
            kind, (2, 2))
        p = zoo_on(kind, SET_KINDS[set_kind](dx), SET_KINDS[set_kind](dy))
        monkeypatch.setattr(verify, "_CELL_BUDGET", budget)
        lo, hi = ranges(p)
        rng = np.random.default_rng(budget)
        n = 1500
        xs = np.array([p.X.sample(rng) for _ in range(n)]
                      + [boundary_sample(p.X, rng) for _ in range(n)])
        ys = np.array([p.Y.sample(rng) for _ in range(n)]
                      + [boundary_sample(p.Y, rng) for _ in range(n)])
        values = p.values(xs, ys)
        assert lo <= values.min() and values.max() <= hi

    def test_corner_minimum_at_2001_cells(self, monkeypatch):
        # the box corners hold the minimum here, and at 2001 cells the best
        # cell shrinks onto one: without the outward rounding its bound sat
        # one ulp above the exact corner value
        p = random_quadratic(13, 2, 2, Regime.C_NC)
        monkeypatch.setattr(verify, "_CELL_BUDGET", 2001)
        corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 4, indexing="ij")).reshape(4, -1).T
        values = p.values(corners[:, :2], corners[:, 2:])
        lo = _certified_range(p, "lower")
        assert lo <= values.min()
        assert values.min() - lo < 1e-9


class TestComputeBound:
    def test_nc_sc_direct_substitution(self):
        tc = TheoryConstants(regime=Regime.NC_SC, f_lower=0.0, f_upper=1.0,
                             sigma_x=1.0, sigma_y=1.0, sighat_x=1.0, sighat_y=1.0,
                             d1=0.01, F1=10.0, F_lower=0.0)
        assert compute_bound(tc, 0.1) == pytest.approx(1e5)

    def test_tau_three_constant(self):
        # 8 tau^2/(tau-2)^2 at tau = 3
        from agp.verify import dbar1_nc_c
        d = make_bilinear([[1.0]]).constants
        cfg = NcCConfig(eta_bar=1.0, rho_bar=1.0, tau=3.0)
        base = 8 * 3.0**2 / (3.0 - 2.0) ** 2
        assert base == 72.0
        assert dbar1_nc_c(cfg, d) == pytest.approx(
            72.0 + (2 * (1.0 - 1.0) ** 2 + 3.0) / (16**2 * 1.0 * 1.0 * 1.0))

    def test_full_nc_sc_bound_hand_cross_check(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]], a=[0.3], c_lin=[-0.2],
                           X=Box([-2], [2]), Y=Box([-2], [2]))
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=100000,
                 init=(np.array([1.0]), np.array([1.0])))
        tc = theory_constants(p, cfg, tr)
        # independent recomputation of every sub-constant
        eta, rho, mu, Ly, L12 = cfg.eta, cfg.rho, 1.0, 1.0, 1.0
        num = min(eta / 2 - rho * L12**2 / 2 - 2 * L12**2 / (rho * mu**2),
                  (3 * mu - rho * Ly**2) / 2 + (mu - 4 * rho * Ly**2) / (2 * rho * mu))
        den = max(eta**2 + 2 * L12**2, 2 / rho**2)
        assert tc.d1 == pytest.approx(num / den)
        coeff = mu + 7 / (2 * rho) - rho * Ly**2 / 2 - 2 * Ly**2 / mu
        sigma_y = 4.0
        assert tc.F_lower == pytest.approx(tc.f_lower - coeff * sigma_y**2)
        assert tc.F1 == pytest.approx(p.value(np.array([1.0]), np.array([1.0])))
        want = (tc.F1 - tc.F_lower) / (tc.d1 * 1e-6**2)
        bound = compute_bound(tc, 1e-6)
        assert bound == pytest.approx(want)
        assert math.isfinite(bound)
        assert bound >= tr.T_eps

    def test_infeasible_d1_raises(self):
        tc = TheoryConstants(regime=Regime.NC_SC, f_lower=0.0, f_upper=1.0,
                             sigma_x=1.0, sigma_y=1.0, sighat_x=1.0, sighat_y=1.0,
                             d1=-0.5, F1=10.0, F_lower=0.0)
        with pytest.raises(InfeasibleConfigError):
            compute_bound(tc, 0.1)

    @pytest.mark.parametrize("regime, eps", [
        *((r, e) for r in Regime for e in (1e-300, 1e200)),
        (Regime.NC_C, 1e-80), (Regime.C_NC, 1e-80)])
    def test_out_of_range_eps_raises_naming_it(self, regime, eps):
        # eps**2 underflows to 0 at 1e-300, eps**4 overflows the NC-C/C-NC
        # formulas at 1e-80, and eps**2 overflows at 1e200
        p = random_quadratic(7, 2, 2, regime)
        cfg = auto_configure(p.constants, regime)
        tc = theory_constants(p, cfg, run(p, cfg, eps=1e-3, max_iter=300))
        with pytest.raises(ArithmeticError) as err:
            compute_bound(tc, eps)
        assert type(err.value) is ArithmeticError
        assert str(err.value).startswith(f"the {regime.value} bound at eps = {eps!r} ")

    @pytest.mark.parametrize("F1", [10.0 + 5e-5, math.nan, math.inf])
    def test_bound_not_finite_or_below_one_raises(self, F1):
        tc = TheoryConstants(regime=Regime.NC_SC, f_lower=0.0, f_upper=1.0,
                             sigma_x=1.0, sigma_y=1.0, sighat_x=1.0, sighat_y=1.0,
                             d1=0.01, F1=F1, F_lower=10.0)
        bound = (F1 - 10.0) / (0.01 * 0.1**2)  # about 0.5, NaN or inf
        with pytest.raises(ArithmeticError) as err:
            compute_bound(tc, 0.1)
        assert str(err.value) == (f"the nc_sc bound at eps = 0.1 is {bound!r}, "
                                  "not a finite number >= 1")

    def test_nc_c_bound_formula(self):
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        tr = run(p, cfg, eps=1e-3, max_iter=100000,
                 init=(np.array([1.0]), np.array([1.0])))
        tc = theory_constants(p, cfg, tr)
        eps = 1e-3
        first = (64 * 1.0 * 1.0 * 1.0 * tc.d3 * tc.d4 / eps**2 + 2) ** 2
        second = 1.0 / (1.0 * eps**4) + 1
        assert compute_bound(tc, eps) == pytest.approx(max(first, second))
        assert compute_bound(tc, eps) >= tr.T_eps

    @pytest.mark.parametrize("Y", [Ball([0.5, 0.0], 1.0), Simplex(2)],
                             ids=["ball", "simplex"])
    def test_ball_constrained_bound_dominates(self, Y):
        p = make_quadratic(np.eye(2), 0.5 * np.eye(2), np.eye(2), a=[0.3, -0.4],
                           c_lin=[0.2, 0.1], X=Ball([0.0, 0.0], 1.0), Y=Y)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=100000)
        assert tr.reason == "gap_le_eps"
        tc = theory_constants(p, cfg, tr)
        assert compute_bound(tc, 1e-6) >= tr.T_eps


class TestRateSlope:
    def test_exact_quadratic_power_law(self):
        assert rate_slope([(0.1, 100), (0.01, 10000), (0.001, 10**6)]) == pytest.approx(2.0, abs=1e-12)

    def test_exact_quartic_power_law(self):
        pts = [(0.1, 1e4), (0.0316227766016838, 1e6), (0.01, 1e8)]
        assert rate_slope(pts) == pytest.approx(4.0, abs=1e-9)

    def test_constant_T(self):
        assert rate_slope([(0.1, 7), (0.01, 7), (0.001, 7)]) == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            rate_slope([(0.1, 10), (0.01, 100)])

    def test_eps_must_decrease(self):
        with pytest.raises(ValueError):
            rate_slope([(0.01, 10), (0.1, 100), (0.001, 1000)])

    def test_T_must_not_decrease(self):
        with pytest.raises(ValueError):
            rate_slope([(0.1, 100), (0.01, 50), (0.001, 1000)])


class TestLemmaMonitor:
    def test_nc_sc_run_all_pass(self):
        p = random_quadratic(0, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-14, max_iter=500)
        rep = lemma_monitor(tr, p, cfg)
        assert rep.passed
        ids = {e.id for e in rep.entries}
        assert ids == {"x_descent", "joint_recursion", "potential_decrease",
                       "gap_potential_periter"}

    def test_gda_trace_unsupported(self):
        p = random_quadratic(0, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run_gda(p, 0.1, 0.1, eps=1e-14, max_iter=50)
        with pytest.raises(InvalidTraceError):
            lemma_monitor(tr, p, cfg)

    def test_length_one_trace_vacuous_pass(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]])
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1.0, max_iter=100,
                 init=(np.array([0.0]), np.array([0.0])))
        assert len(tr) == 1
        rep = lemma_monitor(tr, p, cfg)
        assert rep.passed
        assert all(e.n_checked == 0 for e in rep.entries
                   if e.id != "gap_bridge")

    def test_regime_mismatch_rejected(self):
        p = random_quadratic(0, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-14, max_iter=50)
        with pytest.raises(InvalidTraceError):
            lemma_monitor(tr, p, NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0))

    def test_bridge_checked_every_iteration(self):
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        tr = run(p, cfg, eps=1e-6, max_iter=300,
                 init=(np.array([1.0]), np.array([1.0])))
        rep = lemma_monitor(tr, p, cfg)
        e = rep.entry("gap_bridge")
        assert e.k_start == 1 and e.k_end == len(tr) and e.passed

    def test_decay_gated_monitor_starts_at_9(self):
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        tr = run(p, cfg, eps=1e-9, max_iter=400,
                 init=(np.array([1.0]), np.array([1.0])))
        rep = lemma_monitor(tr, p, cfg)
        e = rep.entry("potential_decrease")
        assert e.k_start == 9
        assert e.passed

    def test_c_nc_monitors_pass(self):
        p = random_quadratic(31, 2, 2, Regime.C_NC)
        cfg = auto_configure(p.constants, Regime.C_NC)
        tr = run(p, cfg, eps=1e-9, max_iter=3000)
        rep = lemma_monitor(tr, p, cfg)
        assert rep.passed
        e = rep.entry("potential_increase")
        assert e.k_start == 9

    def test_monitor_slack_column_matches_report(self):
        p = random_quadratic(2, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-13, max_iter=400)
        e = lemma_monitor(tr, p, cfg).entry("gap_potential_periter")
        # the slack is defined exactly on the rows the headline entry checks
        rows = np.flatnonzero(~np.isnan(tr.monitor_slack)) + 1
        assert rows.size == e.n_checked > 0
        np.testing.assert_array_equal(rows, np.arange(e.k_start, e.k_end + 1))
        assert e.passed
        assert np.all(tr.monitor_slack[rows - 1] >= -1e-12)

    def test_trace_without_mixed_values_rejected(self):
        p = random_quadratic(0, 2, 2, Regime.C_NC)
        cfg = auto_configure(p.constants, Regime.C_NC)
        tr = dataclasses.replace(run(p, cfg, eps=1e-14, max_iter=50), f_mixed=None)
        with pytest.raises(InvalidTraceError):
            lemma_monitor(tr, p, cfg)
        with pytest.raises(InvalidTraceError):
            theory_constants(p, cfg, tr)


class TestMissingModulus:
    """NC-SC without mu > 0 and SC-NC without theta > 0: the loop runs, the
    potentials that divide by the modulus stay NaN, and the monitors and the
    bound refuse the trace instead of dividing by zero."""

    @pytest.mark.parametrize("cfg", [NcScConfig(eta=2.0, rho=0.5),
                                     ScNcConfig(zeta=0.5, nu=2.0)], ids=["nc_sc", "sc_nc"])
    def test_no_division_by_zero(self, cfg):
        p = make_bilinear([[1.0]], X=Box([-2.0], [2.0]), Y=Box([-2.0], [2.0]))
        assert p.constants.mu == 0 and p.constants.theta == 0
        tr = run(p, cfg, eps=1e-12, max_iter=20, init=(np.array([1.0]), np.array([1.0])))
        assert len(tr) == 20
        assert np.all(np.isnan(tr.potential)) and np.all(np.isnan(tr.monitor_slack))
        with pytest.raises(InvalidTraceError):
            lemma_monitor(tr, p, cfg)
        with pytest.raises(InfeasibleConfigError):
            theory_constants(p, cfg, tr)


class TestOracleCallBudget:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_monitor_and_bound_constants(self, regime):
        p, calls = counting(random_quadratic(4, 2, 2, regime))
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-14, max_iter=60)
        n = len(tr)
        assert (calls["value"], calls["rows"]) == (0, n + (n - 1))
        calls.update(value=0, rows=0, chunk=0, grad=0)
        lemma_monitor(tr, p, cfg)
        assert calls == {"value": 0, "rows": 0, "chunk": 0, "grad": 0}
        theory_constants(p, cfg, tr)
        # one value and two gradient calls per scored cell; no box cell is dropped
        cells = verify._CELL_BUDGET
        assert calls == {"value": cells, "rows": 0, "chunk": 0, "grad": 2 * cells}

    @pytest.mark.parametrize("regime", list(Regime))
    def test_scalar_fallback(self, regime):
        p, calls = counting(random_quadratic(4, 2, 2, regime), batched=False)
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-14, max_iter=60)
        n = len(tr)
        assert calls["value"] == n + (n - 1)
        calls.update(value=0, grad=0)
        lemma_monitor(tr, p, cfg)
        assert calls == {"value": 0, "rows": 0, "chunk": 0, "grad": 0}
        theory_constants(p, cfg, tr)
        cells = verify._CELL_BUDGET
        assert calls == {"value": cells, "rows": 0, "chunk": 0, "grad": 2 * cells}

    def test_gda_run(self):
        p, calls = counting(random_quadratic(4, 2, 2, Regime.NC_SC))
        tr = run_gda(p, 0.1, 0.1, eps=1e-14, max_iter=60)
        assert tr.f_mixed is None
        assert (calls["value"], calls["rows"]) == (0, len(tr))
        p, calls = counting(random_quadratic(4, 2, 2, Regime.NC_SC), batched=False)
        tr = run_gda(p, 0.1, 0.1, eps=1e-14, max_iter=60)
        assert calls["value"] == len(tr)


class TestTheoryConstants:
    def test_unbounded_sets_rejected(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]])
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=1000,
                 init=(np.array([1.0]), np.array([1.0])))
        with pytest.raises(ValueError):
            theory_constants(p, cfg, tr)

    def test_sizes_recorded(self):
        p = random_quadratic(3, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=5000)
        tc = theory_constants(p, cfg, tr)
        assert tc.sigma_y == pytest.approx(p.Y.diameter())
        assert tc.sighat_y == pytest.approx(p.Y.max_norm())
        assert math.isfinite(tc.F1)

    @pytest.mark.parametrize("regime, side", [
        (Regime.NC_SC, "lower"), (Regime.NC_C, "lower"),
        (Regime.SC_NC, "upper"), (Regime.C_NC, "upper")])
    def test_only_the_side_the_bound_reads(self, regime, side):
        p = random_quadratic(5, 2, 2, regime)
        cfg = auto_configure(p.constants, regime)
        tc = theory_constants(p, cfg, run(p, cfg, eps=1e-6, max_iter=200))
        assert getattr(tc, f"f_{side}") == _certified_range(p, side)
        assert getattr(tc, "f_upper" if side == "lower" else "f_lower") is None

    @pytest.mark.parametrize("regime, field, j", [
        (Regime.SC_NC, "Fhat1", 1), (Regime.C_NC, "Fcal2", 2), (Regime.NC_C, "Ftilde3", 3)])
    def test_initial_potential_is_the_traces(self, regime, field, j):
        # under the trace's own config, the j-th potential is its column's
        p = random_quadratic(5, 2, 2, regime)
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-6, max_iter=200)
        value = getattr(theory_constants(p, cfg, tr), field)
        assert type(value) is float
        assert value == tr.potential[j - 1] and math.isfinite(value)

    @pytest.mark.parametrize("regime, rows", [
        (Regime.SC_NC, 2), (Regime.C_NC, 3), (Regime.NC_C, 3)])
    def test_short_trace_refused_before_any_oracle_call(self, regime, rows):
        p = random_quadratic(5, 2, 2, regime)
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-6, max_iter=rows - 1)
        p, calls = counting(p)
        with pytest.raises(ValueError, match=f"need at least {rows} iterations"):
            theory_constants(p, cfg, tr)
        assert calls == {"value": 0, "rows": 0, "chunk": 0, "grad": 0}

    def test_half_infinite_box_refused_before_any_oracle_call(self):
        p = make_bilinear([[1.0]], X=Box([0.0], [math.inf]), Y=Box([-1.0], [1.0]))
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        tr = run(p, cfg, eps=1e-3, max_iter=50, init=(np.array([1.0]), np.array([1.0])))
        p, calls = counting(p)
        with pytest.raises(ValueError, match="compact feasible sets"):
            theory_constants(p, cfg, tr)
        assert calls == {"value": 0, "rows": 0, "chunk": 0, "grad": 0}
