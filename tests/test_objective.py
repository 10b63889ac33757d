import dataclasses
import math

import numpy as np
import pytest

from agp.bench import parse_config
from agp.geometry import Ball, Box, Product, WholeSpace
from agp.objective import (VALUE_CHUNK, Regime, SmoothnessData, _hinge, _hinge_d,
                           make_bilinear, make_nc_sc_sine, make_quadratic,
                           make_robust_svm_toy, make_sc_nc_sine, random_quadratic)
from agp.solver import run

from reference import hinge_d, record_iterates, svm_grad_x


def finite_diff_grad(f, point, other, which):
    """Central differences of f along the chosen block."""
    sqeps = math.sqrt(np.finfo(float).eps)
    g = np.empty_like(point)
    for i in range(point.size):
        h = sqeps * (1.0 + abs(point[i]))
        hi, lo = point.copy(), point.copy()
        hi[i] += h
        lo[i] -= h
        if which == "x":
            g[i] = (f(hi, other) - f(lo, other)) / (2 * h)
        else:
            g[i] = (f(other, hi) - f(other, lo)) / (2 * h)
    return g


def zoo():
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((6, 2))
    labels = np.where(feats[:, 0] > 0, 1.0, -1.0)
    svm = make_robust_svm_toy(
        list(zip(feats, labels)),
        Ball(np.zeros(3), 1.0),
        Product((Ball(np.zeros(2), 1.0), Box([-1.0], [1.0]))))
    sine = make_nc_sc_sine(3, 2, 0.4 * rng.standard_normal((3, 2)), 1.0,
                           Box(-np.ones(3), np.ones(3)), Box(-np.ones(2), np.ones(2)))
    sine_d = make_sc_nc_sine(2, 3, 0.4 * rng.standard_normal((2, 3)), 0.8,
                             Box(-np.ones(2), np.ones(2)), Box(-np.ones(3), np.ones(3)))
    return [
        random_quadratic(1, 3, 2, Regime.NC_SC),
        random_quadratic(2, 2, 3, Regime.NC_C),
        random_quadratic(3, 3, 2, Regime.SC_NC),
        random_quadratic(4, 2, 2, Regime.C_NC),
        make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1])),
        sine, sine_d, svm,
    ]


class TestQuadratic:
    def test_one_dim_values(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]])
        x, y = np.array([1.0]), np.array([1.0])
        assert p.value(x, y) == pytest.approx(0.5 + 1 - 0.5)
        np.testing.assert_allclose(p.grad_x(x, y), [2.0])
        np.testing.assert_allclose(p.grad_y(x, y), [0.0])

    def test_tags_from_eigen_signs(self):
        p = make_quadratic([[-1.0]], [[1.0]], [[1.0]])
        assert p.tags == frozenset({Regime.NC_SC})
        assert p.constants.mu == pytest.approx(1.0)
        assert p.constants.theta == 0.0

    def test_constants_match_eigendecomposition_oracle(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        C = np.array([[3.0, 0.0], [0.0, 1.0]])
        p = make_quadratic(A, np.zeros((2, 2)), C)
        # oracle: spectral norms via independent eigendecomposition
        assert p.constants.L_x == pytest.approx(max(abs(np.linalg.eigvalsh(A))))
        assert p.constants.L_y == pytest.approx(max(abs(np.linalg.eigvalsh(C))))
        assert p.constants.L_x == pytest.approx(2.0)
        assert p.constants.L_y == pytest.approx(3.0)
        assert p.constants.L_12 == 0.0
        assert p.constants.mu == pytest.approx(1.0)
        assert p.constants.theta == pytest.approx(1.0)

    def test_random_constants_match_oracle(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 3))
        A = M + M.T
        B = rng.standard_normal((3, 2))
        N = rng.standard_normal((2, 2))
        C = N @ N.T + 0.1 * np.eye(2)
        p = make_quadratic(A, B, C)
        assert p.constants.L_12 == pytest.approx(np.linalg.svd(B, compute_uv=False)[0])
        assert p.constants.mu == pytest.approx(min(np.linalg.eigvalsh(C)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic([[1.0, 2.0], [0.0, 1.0]], np.zeros((2, 1)), [[1.0]])


class TestBilinear:
    def test_values(self):
        p = make_bilinear([[1.0]])
        assert p.value(np.array([2.0]), np.array([3.0])) == pytest.approx(6.0)
        np.testing.assert_allclose(p.grad_x(np.array([2.0]), np.array([3.0])), [3.0])
        np.testing.assert_allclose(p.grad_y(np.array([2.0]), np.array([3.0])), [2.0])

    def test_tags_and_constants(self):
        p = make_bilinear(np.eye(2))
        assert p.tags == frozenset({Regime.NC_C, Regime.C_NC})
        assert p.constants.L_x == 0.0 and p.constants.L_y == 0.0
        assert p.constants.L_12 == pytest.approx(1.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            make_bilinear(np.zeros((2, 2)))

    def test_grid_scan_gap_oracle(self):
        # only (0, 0) has zero stationarity gap on [-1,1]^2
        from reference import stationarity_gap
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        grid = np.linspace(-1, 1, 201)
        best = min(((stationarity_gap(p, np.array([a]), np.array([b]), 1.0, 1.0).norm,
                     a, b) for a in grid for b in grid))
        assert best[0] == pytest.approx(0.0, abs=1e-14)
        assert (best[1], best[2]) == (0.0, 0.0)
        others = [stationarity_gap(p, np.array([a]), np.array([b]), 1.0, 1.0).norm
                  for a in grid for b in grid if (a, b) != (0.0, 0.0)]
        assert min(others) > 0


class TestSine:
    def test_gradients_at_origin(self):
        p = make_nc_sc_sine(1, 1, [[1.0]], 1.0, Box([-2], [2]), Box([-2], [2]))
        np.testing.assert_allclose(p.grad_x(np.zeros(1), np.zeros(1)), [1.0])
        np.testing.assert_allclose(p.grad_y(np.zeros(1), np.zeros(1)), [0.0])

    def test_inner_argmax_stationarity(self):
        B = np.array([[0.5, 0.2], [0.1, 0.4], [0.0, 0.3]])
        p = make_nc_sc_sine(3, 2, B, 2.0, Box(-np.ones(3), np.ones(3)),
                            Box(-5 * np.ones(2), 5 * np.ones(2)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-1, 1, 3)
            ystar = B.T @ x / 2.0
            np.testing.assert_allclose(p.grad_y(x, ystar), np.zeros(2), atol=1e-14)

    def test_inner_max_matches_grid(self):
        # value of the inner max against a dense grid over a wide Y
        B = np.array([[0.7]])
        mu = 1.0
        p = make_nc_sc_sine(1, 1, B, mu, Box([-1], [1]), Box([-5], [5]))
        x = np.array([0.3])
        grid = np.linspace(-5, 5, 20001)
        grid_max = max(p.value(x, np.array([y])) for y in grid)
        closed_form = math.sin(0.3) + (0.7 * 0.3) ** 2 / (2 * mu)
        assert closed_form == pytest.approx(grid_max, abs=1e-6)

    def test_mu_positive_required(self):
        with pytest.raises(ValueError):
            make_nc_sc_sine(1, 1, [[1.0]], 0.0, Box([-1], [1]), Box([-1], [1]))


class TestRobustSvm:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.feats = rng.standard_normal((5, 2))
        self.labels = np.where(self.feats[:, 0] > 0, 1.0, -1.0)
        self.X = Ball(np.zeros(3), 1.0)
        self.Y = Product((Ball(np.zeros(2), 1.0), Box([-1.0], [1.0])))
        self.p = make_robust_svm_toy(list(zip(self.feats, self.labels)), self.X, self.Y)

    def test_zero_weights_kill_coupling(self):
        x = np.zeros(3)
        y = np.array([0.3, -0.2, 0.9])
        hinge_only = self.p.value(x, y)
        y2 = np.array([-0.5, 0.1, -0.4])
        assert hinge_only == pytest.approx(self.p.value(x, y2))

    def test_unit_alignment_gives_unit_coupling(self):
        p = make_robust_svm_toy([(np.array([10.0, 0.0]), 1.0)], self.X, self.Y)
        x = np.array([1.0, 0.0, 0.0])   # x_w = e1, x_b = 0
        y = np.array([1.0, 0.0, 1.0])   # y_u = e1, y_v = 1
        x0 = np.zeros(3)
        coupling = p.value(x, y) - p.value(x, np.array([1.0, 0.0, 0.0]) * 0)
        assert coupling == pytest.approx(1.0)

    def test_cross_hessian_bound_by_sampling(self):
        # finite-difference cross-derivative never exceeds the declared L_12
        rng = np.random.default_rng(2)
        L = self.p.constants.L_12
        h = 1e-5
        worst = 0.0
        for _ in range(1000):
            x = self.X.sample(rng)
            y = self.Y.sample(rng)
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            jac = (self.p.grad_y(x + h * d, y) - self.p.grad_y(x - h * d, y)) / (2 * h)
            worst = max(worst, np.linalg.norm(jac))
        assert worst <= L * (1 + 1e-6)

    def test_tag(self):
        assert self.p.tags == frozenset({Regime.C_NC})

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            make_robust_svm_toy([], self.X, self.Y)


def same_bits(a, b):
    """Equal bits, any NaN matching any NaN in the same place."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestSvmGradXBits:
    """The svm's ``grad_x`` keeps the bits of its case-split form, with every
    operand formed inside the call (``reference.svm_grad_x``)."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_along_suite_bounds_trajectory(self, seed):
        # the svm block of the suite_bounds benchmark workload at this seed
        (spec,) = parse_config(f"eps = 1e-3\nmax_iter = 5000\n\n"
                               f"problem = svm(seed={1 + seed}, m=2, n=6)\n")
        p, rec = record_iterates(spec.problem)
        trace = run(p, spec.regime_cfg, spec.eps, spec.max_iter)
        assert len(rec.points) == len(trace) >= 1000
        # the data agp.bench draws for svm(seed, m=2, n=6)
        rng = np.random.default_rng(1 + seed)
        feats = rng.standard_normal((6, 2))
        labels = np.where(feats[:, 0] + 0.1 * rng.standard_normal(6) >= 0, 1.0, -1.0)
        ref = svm_grad_x(feats, labels)
        for x, y in rec.points:
            assert same_bits(spec.problem.grad_x(x, y), ref(x, y))
        # the trajectories keep every margin above the width; points drawn
        # from X and Y meet every case of the hinge derivative
        X, Y = spec.problem.X, spec.problem.Y
        margins = []
        for _ in range(2000):
            x, y = 3 * X.sample(rng), Y.sample(rng)
            assert same_bits(spec.problem.grad_x(x, y), ref(x, y))
            margins.append(1.0 - labels * (feats @ x[:2] + x[2]))
        margins = np.concatenate(margins)
        assert (margins <= 0).any() and (margins >= 0.1).any()
        assert ((margins > 0) & (margins < 0.1)).any()

    def test_edge_margins(self):
        w = 0.1
        t = np.array([0.0, w, *np.nextafter([0.0, 0.0, w, w], [-1, 1, -1, 1]),
                      -np.inf, np.inf, np.nan, -1.0, 0.05, 2.0])
        assert same_bits(_hinge_d(t), hinge_d(t))
        assert _hinge_d(t)[:6].tolist() == [0.0, 1.0, 0.0, t[3] / w, t[4] / w, 1.0]
        # a quarter of these round t * (1 / w) apart from t / w
        t = np.random.default_rng(0).uniform(-0.05, 0.15, 4000)
        assert same_bits(_hinge_d(t), hinge_d(t))

    def test_edge_margins_through_grad_x(self):
        # x = (1, 0) puts margin 1 - a at feature a: 0, the reachable values
        # on either side of the width (1 - v is a multiple of 2^-53 there),
        # and margins past both ends; x_w = inf makes -inf, +inf and 0 * inf
        feats = np.array([[1.0], [0.9], [np.nextafter(0.9, 0.0)], [0.0], [-1.0]])
        labels = np.ones(5)
        p = make_robust_svm_toy(list(zip(feats, labels)), Ball(np.zeros(2), 1.0),
                                Product((Ball(np.zeros(1), 1.0), Box([-1.0], [1.0]))))
        ref = svm_grad_x(feats, labels)
        y = np.array([0.3, -0.7])
        with np.errstate(invalid="ignore"):
            for x in ([1.0, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [0.0, np.nan],
                      [0.5, 0.5]):
                x = np.array(x)
                assert same_bits(p.grad_x(x, y), ref(x, y)), x


class TestZooProperties:
    @pytest.mark.parametrize("idx", range(8))
    def test_gradient_consistency(self, idx):
        p = zoo()[idx]
        rng = np.random.default_rng(idx + 100)
        for _ in range(30):
            x = p.X.sample(rng)
            y = p.Y.sample(rng)
            fdx = finite_diff_grad(p.value, x, y, "x")
            fdy = finite_diff_grad(p.value, y, x, "y")
            for fd, g in ((fdx, p.grad_x(x, y)), (fdy, p.grad_y(x, y))):
                assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_lipschitz_certificates_quadratic(self):
        p = random_quadratic(9, 3, 2, Regime.NC_SC)
        d = p.constants
        rng = np.random.default_rng(7)
        for _ in range(10000):
            x1, x2 = rng.standard_normal((2, 3))
            y1, y2 = rng.standard_normal((2, 2))
            y = rng.standard_normal(2)
            x = rng.standard_normal(3)
            assert (np.linalg.norm(p.grad_x(x1, y) - p.grad_x(x2, y))
                    <= d.L_x * np.linalg.norm(x1 - x2) * (1 + 1e-9))
            assert (np.linalg.norm(p.grad_y(x, y1) - p.grad_y(x, y2))
                    <= d.L_y * np.linalg.norm(y1 - y2) * (1 + 1e-9))
            assert (np.linalg.norm(p.grad_y(x1, y) - p.grad_y(x2, y))
                    <= d.L_12 * np.linalg.norm(x1 - x2) * (1 + 1e-9))
            assert (np.linalg.norm(p.grad_x(x, y1) - p.grad_x(x, y2))
                    <= d.L_21 * np.linalg.norm(y1 - y2) * (1 + 1e-9))

    def test_strong_concavity_inequality(self):
        for p in (random_quadratic(12, 2, 3, Regime.NC_SC),
                  zoo()[5]):  # sine instance
            mu = p.constants.mu
            assert mu > 0
            rng = np.random.default_rng(13)
            for _ in range(1000):
                x = p.X.sample(rng)
                y1 = p.Y.sample(rng)
                y2 = p.Y.sample(rng)
                lhs = float((p.grad_y(x, y1) - p.grad_y(x, y2)) @ (y1 - y2))
                assert lhs <= -mu * np.linalg.norm(y1 - y2) ** 2 + 1e-9

    def test_smoothness_data_validation(self):
        with pytest.raises(ValueError):
            SmoothnessData(L_x=1, L_y=1, L_12=0, L_21=0, mu=2.0)
        with pytest.raises(ValueError):
            SmoothnessData(L_x=-1, L_y=1, L_12=0, L_21=0)

    def test_requested_regime_tag_present(self):
        for regime in Regime:
            p = random_quadratic(21, 3, 3, regime)
            assert regime in p.tags


# ---------------------------------------------------------------------------
# row oracle: each constructor's row function against the scalar formula it
# replaced, kept here as the reference


def ref_quadratic(A, B, C, a, c_lin):
    def value(x, y):
        return float(0.5 * x @ (A @ x) + a @ x + x @ (B @ y) - 0.5 * y @ (C @ y) - c_lin @ y)
    return value


def ref_sine(B, mu):
    def value(x, y):
        return float(np.sum(np.sin(x)) + x @ (B @ y) - 0.5 * mu * (y @ y))
    return value


def ref_sine_dual(B, theta):
    def value(x, y):
        return float(0.5 * theta * (x @ x) + x @ (B @ y) - np.sum(np.sin(y)))
    return value


def ref_svm(feats, labels):
    m = feats.shape[1]

    def value(x, y):
        xw, xb = x[:m], x[m]
        yu, yv = y[:m], y[m]
        margins = 1.0 - labels * (feats @ xw + xb)
        return float(yv * (xw @ yu + xb) + np.mean(_hinge(margins)))
    return value


def row_cases(d):
    """(name, problem, reference scalar value) per constructor at block dim d."""
    rng = np.random.default_rng(100 + d)
    box = Box(-np.ones(d), np.ones(d))
    S = rng.standard_normal((d, d))
    T = rng.standard_normal((d, d))
    B = rng.standard_normal((d, d))
    a, c_lin = rng.standard_normal(d), rng.standard_normal(d)
    # S + S.T and T + T.T are symmetric, so make_quadratic keeps them bit for bit
    quad = make_quadratic(S + S.T, B, T + T.T, a, c_lin, X=box, Y=box)
    bil = make_bilinear(B, X=box, Y=box)
    feats = rng.standard_normal((7, d))
    labels = np.where(feats[:, 0] > 0, 1.0, -1.0)
    svm = make_robust_svm_toy(list(zip(feats, labels)), Ball(np.zeros(d + 1), 1.0),
                              Product((Ball(np.zeros(d), 1.0), Box([-1.0], [1.0]))))
    zeros = np.zeros((d, d))
    return [
        ("quadratic", quad, ref_quadratic(S + S.T, B, T + T.T, a, c_lin)),
        ("bilinear", bil, ref_quadratic(zeros, B, zeros, np.zeros(d), np.zeros(d))),
        ("sine", make_nc_sc_sine(d, d, B, 0.7, box, box), ref_sine(B, 0.7)),
        ("sine_dual", make_sc_nc_sine(d, d, B, 0.9, box, box), ref_sine_dual(B, 0.9)),
        ("svm", svm, ref_svm(feats, labels)),
    ]


class TestRowOracle:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 64, 65])
    def test_rows_match_scalar_formula_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        for name, p, ref in row_cases(d):
            X = rng.uniform(-1.5, 1.5, (300, p.dim_x))
            Y = rng.uniform(-1.5, 1.5, (300, p.dim_y))
            want = np.array([ref(x, y) for x, y in zip(X, Y)])
            assert np.array_equal(p.value_rows(X, Y), want), name
            assert np.array_equal([p.value(x, y) for x, y in zip(X, Y)], want), name

    @pytest.mark.parametrize("n", [0, 1, VALUE_CHUNK - 1, VALUE_CHUNK, VALUE_CHUNK + 1])
    @pytest.mark.parametrize("batched", [True, False], ids=["rows", "scalar"])
    def test_values_at_chunk_edges(self, n, batched):
        _, p, ref = row_cases(3)[0]
        chunks = []

        def rows(X, Y):
            chunks.append(len(X))
            return p.value_rows(X, Y)

        q = dataclasses.replace(p, value_rows=rows if batched else None)
        rng = np.random.default_rng(n)
        X, Y = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
        got = q.values(X, Y)
        assert got.shape == (n,)
        assert np.array_equal(got, [ref(x, y) for x, y in zip(X, Y)])
        full, rest = divmod(n, VALUE_CHUNK)
        want = [VALUE_CHUNK] * full + ([rest] if rest else [])
        assert chunks == (want if batched else [])

    @pytest.mark.parametrize("n", [1, 7, 512, 4096])
    @pytest.mark.parametrize("d", [1, 2, 3, 32, 64])
    def test_grad_y_rows_match_grad_y_bit_for_bit(self, d, n):
        rng = np.random.default_rng(1000 * d + n)
        for name, p, _ in row_cases(d):
            # the sines leave it unset: np.cos of a batch need not keep the
            # bits of np.cos of each row on every platform
            assert (p.grad_y_rows is None) == name.startswith("sine"), name
            X = rng.uniform(-1.5, 1.5, (n, p.dim_x))
            Y = rng.uniform(-1.5, 1.5, (n, p.dim_y))
            want = np.array([p.grad_y(x, y) for x, y in zip(X, Y)])
            if p.grad_y_rows is not None:
                assert np.array_equal(p.grad_y_rows(X, Y), want), name
            assert np.array_equal(p.grads_y(X, Y), want), name
            looped = dataclasses.replace(p, grad_y_rows=None)
            assert np.array_equal(looped.grads_y(X, Y), want), name

    @pytest.mark.parametrize("batched", [True, False], ids=["rows", "scalar"])
    def test_grads_y_shapes(self, batched):
        p = random_quadratic(0, 2, 3, Regime.NC_SC)
        p = dataclasses.replace(p, grad_y_rows=p.grad_y_rows if batched else None)
        assert p.grads_y(np.zeros((0, 2)), np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(ValueError):
            p.grads_y(np.zeros((4, 2)), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            p.grads_y(np.zeros(2), np.zeros(3))

    def test_values_shape_checked(self):
        p = random_quadratic(0, 2, 3, Regime.NC_SC)
        with pytest.raises(ValueError):
            p.values(np.zeros((4, 2)), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            p.values(np.zeros(2), np.zeros(3))
