import dataclasses
import math

import numpy as np
import pytest

from agp.geometry import Box, WholeSpace
from agp.objective import Regime, make_bilinear, make_quadratic, random_quadratic
from agp.schedules import (CNcConfig, NcCConfig, NcScConfig, ScNcConfig,
                           StepParams, auto_configure, params_at)
from agp.solver import (GapVector, NumericFailureError, SolverState, agp_step,
                        gda_step, regularized_gap, run, run_gda,
                        stationarity_gap)
from agp.verify import potentials, saddle_oracle_quadratic


def quad_1d():
    # f(x, y) = x^2/2 + x y - y^2/2
    return make_quadratic([[1.0]], [[1.0]], [[1.0]])


def sp(beta, gamma, b=0.0, c=0.0, k=1):
    return StepParams(beta=beta, gamma=gamma, b=b, c=c, k=k)


class TestAgpStep:
    def test_fixed_point_at_zero_gradient(self):
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        s = SolverState(k=1, x=np.array([0.0]), y=np.array([0.0]))
        out = agp_step(p, s, sp(2.0, 2.0))
        np.testing.assert_array_equal(out.x, [0.0])
        np.testing.assert_array_equal(out.y, [0.0])
        assert out.k == 2

    def test_hand_executed_updates(self):
        # x+ = 1 - (1/2)(x + y) = 0; y+ = 1 + (1/2)(x+ - y) = 0.5
        p = quad_1d()
        s = SolverState(k=1, x=np.array([1.0]), y=np.array([1.0]))
        out = agp_step(p, s, sp(2.0, 2.0))
        np.testing.assert_allclose(out.x, [0.0])
        np.testing.assert_allclose(out.y, [0.5])
        np.testing.assert_array_equal(out.x_prev, [1.0])
        np.testing.assert_array_equal(out.y_prev, [1.0])

    def test_projection_clamps_x(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]], X=Box([0.5], [2.0]),
                           Y=WholeSpace(1))
        s = SolverState(k=1, x=np.array([1.0]), y=np.array([1.0]))
        out = agp_step(p, s, sp(2.0, 2.0))
        np.testing.assert_allclose(out.x, [0.5])

    def test_params_iteration_mismatch(self):
        p = quad_1d()
        s = SolverState(k=3, x=np.array([1.0]), y=np.array([1.0]))
        with pytest.raises(ValueError):
            agp_step(p, s, sp(2.0, 2.0, k=1))

    def test_nonfinite_gradient_reports_block(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]])
        bad = make_quadratic([[1.0]], [[1.0]], [[1.0]])
        bad = type(p)(dim_x=1, dim_y=1, X=p.X, Y=p.Y, value=p.value,
                      grad_x=lambda x, y: np.array([math.nan]),
                      grad_y=p.grad_y, constants=p.constants)
        s = SolverState(k=5, x=np.array([1.0]), y=np.array([1.0]))
        with pytest.raises(NumericFailureError) as ei:
            agp_step(bad, s, sp(2.0, 2.0, k=5))
        assert ei.value.k == 5 and ei.value.block == "x"


class TestGdaStep:
    def test_bilinear_norm_grows(self):
        p = make_bilinear([[1.0]])
        s = SolverState(k=1, x=np.array([1.0]), y=np.array([0.0]))
        out = gda_step(p, s, 0.1, 0.1)
        np.testing.assert_allclose(out.x, [1.0])
        np.testing.assert_allclose(out.y, [0.1])
        assert np.hypot(out.x[0], out.y[0]) ** 2 == pytest.approx(1.01)

    def test_contrast_with_alternating_update(self):
        # same state, same steps: y+ differs (1.0 vs 0.5) because the
        # simultaneous step uses the stale x
        p = quad_1d()
        s = SolverState(k=1, x=np.array([1.0]), y=np.array([1.0]))
        sim = gda_step(p, s, 0.5, 0.5)
        alt = agp_step(p, s, sp(2.0, 2.0))
        np.testing.assert_allclose(sim.x, [0.0])
        np.testing.assert_allclose(sim.y, [1.0])
        np.testing.assert_allclose(alt.y, [0.5])

    def test_fixed_point(self):
        p = quad_1d()
        s = SolverState(k=1, x=np.array([0.0]), y=np.array([0.0]))
        out = gda_step(p, s, 0.5, 0.5)
        np.testing.assert_array_equal(out.x, [0.0])
        np.testing.assert_array_equal(out.y, [0.0])

    def test_positive_steps_required(self):
        p = quad_1d()
        s = SolverState(k=1, x=np.array([0.0]), y=np.array([0.0]))
        with pytest.raises(ValueError):
            gda_step(p, s, 0.0, 0.1)


class TestStationarityGap:
    def test_interior_equals_gradients(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]],
                           X=Box([-10], [10]), Y=Box([-10], [10]))
        x, y = np.array([0.5]), np.array([-0.2])
        g = stationarity_gap(p, x, y, 2.0, 3.0)
        np.testing.assert_allclose(g.gx, p.grad_x(x, y))
        np.testing.assert_allclose(g.gy, -p.grad_y(x, y))
        want = math.hypot(np.linalg.norm(p.grad_x(x, y)), np.linalg.norm(p.grad_y(x, y)))
        assert g.norm == pytest.approx(want)

    def test_zero_at_saddle(self):
        p = quad_1d()
        g = stationarity_gap(p, np.array([0.0]), np.array([0.0]), 1.0, 1.0)
        assert g.norm == 0.0

    def test_boundary_clamps_hand_example(self):
        # f = xy on [-1,1]^2 at (1,1): gx = 1 for beta >= 0.5, gy = 0
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        for beta in (0.5, 1.0, 4.0):
            g = stationarity_gap(p, np.array([1.0]), np.array([1.0]), beta, 1.0)
            assert g.gx[0] == pytest.approx(1.0)
            assert g.gy[0] == pytest.approx(0.0)
            assert g.norm == pytest.approx(1.0)

    def test_positive_scales_required(self):
        with pytest.raises(ValueError):
            stationarity_gap(quad_1d(), np.array([0.0]), np.array([0.0]), 0.0, 1.0)

    def test_norm_consistent_with_blocks(self):
        rng = np.random.default_rng(0)
        p = random_quadratic(3, 3, 2, Regime.NC_SC)
        for _ in range(100):
            g = stationarity_gap(p, rng.standard_normal(3), rng.standard_normal(2),
                                 2.0, 5.0)
            want = math.sqrt(float(g.gx @ g.gx + g.gy @ g.gy))
            assert g.norm == pytest.approx(want, abs=1e-12)


class TestRegularizedGap:
    def test_zero_coefficients_match_raw(self):
        p = quad_1d()
        x, y = np.array([0.7]), np.array([-0.3])
        raw = stationarity_gap(p, x, y, 2.0, 3.0)
        reg = regularized_gap(p, x, y, sp(2.0, 3.0))
        np.testing.assert_array_equal(raw.gx, reg.gx)
        np.testing.assert_array_equal(raw.gy, reg.gy)
        assert reg.regularized

    def test_c_substitution(self):
        # interior, base grad_y = 1, c = 0.5, y = 2 -> regularized gy = 0
        p = make_quadratic(np.zeros((1, 1)), [[1.0]], np.zeros((1, 1)),
                           X=WholeSpace(1), Y=WholeSpace(1))
        g = regularized_gap(p, np.array([1.0]), np.array([2.0]),
                            sp(1.0, 1.0, b=0.0, c=0.5))
        assert g.gy[0] == pytest.approx(0.0)

    def test_bridge_inequality_random_states(self):
        # || raw gap || <= || regularized gap || + c ||y||
        p = random_quadratic(4, 2, 2, Regime.NC_C)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = p.X.sample(rng)
            y = p.Y.sample(rng)
            c = rng.uniform(0.0, 0.5)
            params = sp(3.0, 2.0, b=0.0, c=c)
            raw = stationarity_gap(p, x, y, 3.0, 2.0)
            reg = regularized_gap(p, x, y, params)
            assert raw.norm <= reg.norm + c * np.linalg.norm(y) + 1e-9


def potential_column(cfg, p, xs, ys):
    """The potentials of iterates xs/ys, from the values a trace records."""
    f = np.array([p.value(x, y) for x, y in zip(xs, ys)])
    fmix = np.array([p.value(xs[i + 1], ys[i]) for i in range(len(xs) - 1)])
    return potentials(cfg, p.constants, xs, ys, f, fmix)


def constant_problem(value):
    p = make_quadratic([[1.0]], [[1.0]], [[1.0]])
    return dataclasses.replace(p, value=lambda x, y: value)


class TestPotentialValue:
    def test_nc_sc_zero_delta_collapses_to_f(self):
        p = quad_1d()
        cfg = NcScConfig(eta=16.4125, rho=0.25)
        xs = np.array([[0.3], [0.2]])
        ys = np.array([[0.1], [0.1]])
        v = potential_column(cfg, p, xs, ys)[1]
        assert v == pytest.approx(p.value(xs[1], ys[1]))

    def test_nc_sc_hand_substitution(self):
        # rho = 0.25, mu = 1, L_y = 1, ||dy|| = 0.1, f = 2 -> 2.19125
        cfg = NcScConfig(eta=2.0, rho=0.25)
        xs = np.array([[0.0], [0.0]])
        ys = np.array([[0.0], [0.1]])
        v = potential_column(cfg, constant_problem(2.0), xs, ys)[1]
        assert v == pytest.approx(2.19125)

    def test_sc_nc_zero_delta_collapses_to_f(self):
        p = quad_1d()
        cfg = ScNcConfig(zeta=0.25, nu=3.0)
        xs = np.array([[0.4], [0.4]])
        ys = np.array([[0.2], [0.5]])
        assert potential_column(cfg, p, xs, ys)[0] == pytest.approx(p.value(xs[1], ys[0]))

    def test_not_ready_markers(self):
        p = quad_1d()
        one = np.array([[0.0]])
        pot = potential_column(NcScConfig(eta=2.0, rho=0.25), p, one, one)
        assert pot.shape == (1,) and np.isnan(pot[0])
        # SC-NC needs the lookahead x_{j+1}: the last row is never ready
        two = np.array([[0.0], [0.5]])
        pot = potential_column(ScNcConfig(zeta=0.25, nu=3.0), p, two, two)
        assert np.isfinite(pot[0]) and np.isnan(pot[1])

    def test_nc_c_hand_substitution(self):
        # rho_bar = 1, c_k = 1/(2 k^(1/4)); j = 3, ||dy||^2 = 0.01, ||y_3||^2 = 0.36:
        # F~_3 = f + 4/c_3 0.01 - 4 (c_1/c_2 - 1) 0.36 - 7/2 0.01 - c_2/2 0.36
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        xs = np.zeros((3, 1))
        ys = np.array([[0.0], [0.5], [0.6]])
        pot = potential_column(cfg, constant_problem(2.0), xs, ys)
        want = (2.0 + 8 * 3**0.25 * 0.01 - 4 * (2**0.25 - 1) * 0.36 - 3.5 * 0.01
                - 0.36 / (4 * 2**0.25))
        assert want == pytest.approx(1.722147, abs=1e-6)
        assert pot[2] == pytest.approx(want)
        assert np.isnan(pot[:2]).all()

    def test_c_nc_hand_substitution(self):
        # zeta_bar = 1, q_k = 1/(2 k^(1/4)); j = 2, ||dx||^2 = 0.01, ||x_3||^2 = 0.36:
        # F_2 = f - 4/q_2 0.01 - 4 (1 - q_1/q_2) 0.36 + 17/5 0.01 + q_1/2 0.36
        cfg = CNcConfig(zeta_bar=1.0, nu_bar=0.5, tau=3.0)
        xs = np.array([[0.0], [0.5], [0.6]])
        ys = np.zeros((3, 1))
        pot = potential_column(cfg, constant_problem(2.0), xs, ys)
        want = 2.0 - 8 * 2**0.25 * 0.01 - 4 * (1 - 2**0.25) * 0.36 + 3.4 * 0.01 + 0.25 * 0.36
        assert want == pytest.approx(2.301322, abs=1e-6)
        assert pot[1] == pytest.approx(want)
        assert np.isnan(pot[0]) and np.isnan(pot[2])

    @pytest.mark.parametrize("regime", list(Regime))
    def test_trace_column_matches_per_row_reference(self, regime):
        p = random_quadratic(6, 3, 2, regime)
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-14, max_iter=40)
        want = [reference_potential(cfg, p, tr.xs, tr.ys, j) for j in range(1, len(tr) + 1)]
        np.testing.assert_array_equal(tr.potential, want)


def reference_potential(cfg, p, xs, ys, j):
    """The j-th potential, one row at a time with oracle calls; NaN if not ready."""
    n, d = len(xs), p.constants
    if isinstance(cfg, NcScConfig) and 2 <= j <= n:
        rho, mu, Ly = cfg.rho, d.mu, d.L_y
        dy = ys[j - 1] - ys[j - 2]
        coeff = mu + 7.0 / (2 * rho) - rho * Ly**2 / 2 - 2 * Ly**2 / mu
        return p.value(xs[j - 1], ys[j - 1]) + (2.0 / (rho**2 * mu) - coeff) * (dy @ dy)
    if isinstance(cfg, NcCConfig) and 3 <= j <= n:
        rb, c = cfg.rho_bar, cfg.c
        dy, yj = ys[j - 1] - ys[j - 2], ys[j - 1]
        s = ((4.0 / (rb**2 * c(j))) * (dy @ dy)
             - (4.0 / rb) * (c(j - 2) / c(j - 1) - 1.0) * (yj @ yj))
        return (p.value(xs[j - 1], yj) + s
                - 7.0 / (2 * rb) * (dy @ dy) - 0.5 * c(j - 1) * (yj @ yj))
    if isinstance(cfg, ScNcConfig) and 1 <= j < n:
        z, th = cfg.zeta, d.theta
        dx = xs[j] - xs[j - 1]
        return (p.value(xs[j], ys[j - 1]) - (2.0 / (z**2 * th)) * (dx @ dx)
                - (th / 2 - 3.0 / z) * (dx @ dx))
    if isinstance(cfg, CNcConfig) and 2 <= j < n:
        zb, q = cfg.zeta_bar, cfg.q
        dx, xj1 = xs[j] - xs[j - 1], xs[j]
        s = (-(4.0 / (zb**2 * q(j))) * (dx @ dx)
             - (4.0 / zb) * (1.0 - q(j - 1) / q(j)) * (xj1 @ xj1))
        return (p.value(xj1, ys[j - 1]) + s
                + 17.0 / (5 * zb) * (dx @ dx) + 0.5 * q(j - 1) * (xj1 @ xj1))
    return math.nan


class TestRun:
    def test_converges_to_oracle_saddle(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]], a=[0.3], c_lin=[-0.2])
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=100000, init=(np.array([1.0]), np.array([1.0])))
        assert tr.reason == "gap_le_eps"
        xstar, ystar = saddle_oracle_quadratic([[1.0]], [[1.0]], [[1.0]], [0.3], [-0.2])
        assert abs(tr.xs[-1][0] - xstar[0]) <= 1e-5
        assert abs(tr.ys[-1][0] - ystar[0]) <= 1e-5

    def test_start_at_saddle_T1(self):
        p = quad_1d()
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=100,
                 init=(np.array([0.0]), np.array([0.0])))
        assert tr.T_eps == 1
        assert len(tr) == 1

    def test_eps_validation(self):
        p = quad_1d()
        cfg = auto_configure(p.constants, Regime.NC_SC)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                run(p, cfg, eps=bad, max_iter=10)

    def test_max_iter_reason(self):
        p = quad_1d()
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-16, max_iter=5, init=(np.array([1.0]), np.array([1.0])))
        assert tr.reason == "max_iter"
        assert tr.T_eps is None
        assert list(tr.k) == [1, 2, 3, 4, 5]

    def test_determinism_bit_identical(self):
        p = random_quadratic(8, 3, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        a = run(p, cfg, eps=1e-8, max_iter=3000)
        b = run(p, cfg, eps=1e-8, max_iter=3000)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.gap_norm, b.gap_norm)
        np.testing.assert_array_equal(a.potential, b.potential)

    def test_feasibility_of_all_iterates(self):
        p = random_quadratic(5, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-10, max_iter=2000)
        for i in range(len(tr)):
            assert p.X.contains(tr.xs[i], tol=1e-10)
            assert p.Y.contains(tr.ys[i], tol=1e-10)

    def test_gap_uses_current_iteration_scaling(self):
        p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        tr = run(p, cfg, eps=1e-12, max_iter=50,
                 init=(np.array([1.0]), np.array([1.0])))
        for i in (0, 5, 20):
            k = int(tr.k[i])
            pk = params_at(cfg, p.constants, k)
            g = stationarity_gap(p, tr.xs[i], tr.ys[i], pk.beta, pk.gamma)
            assert tr.gap_norm[i] == pytest.approx(g.norm, rel=1e-12)

    def test_descent_inequality_every_iteration(self):
        # f(x_{k+1}, y_k) - f(x_k, y_k) <= -(eta/2)||dx||^2
        p = random_quadratic(17, 3, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-12, max_iter=2000)
        eta = cfg.eta
        for i in range(len(tr) - 1):
            lhs = p.value(tr.xs[i + 1], tr.ys[i]) - p.value(tr.xs[i], tr.ys[i])
            dx2 = float(np.sum((tr.xs[i + 1] - tr.xs[i]) ** 2))
            assert lhs <= -eta / 2 * dx2 + 1e-9

    def test_ascent_inequality_every_iteration(self):
        # f(x_{k+1}, y_{k+1}) - f(x_{k+1}, y_k) >= (nu/2)||dy||^2
        p = random_quadratic(19, 2, 2, Regime.SC_NC)
        cfg = auto_configure(p.constants, Regime.SC_NC)
        tr = run(p, cfg, eps=1e-12, max_iter=2000)
        nu = cfg.nu
        for i in range(len(tr) - 1):
            lhs = p.value(tr.xs[i + 1], tr.ys[i + 1]) - p.value(tr.xs[i + 1], tr.ys[i])
            dy2 = float(np.sum((tr.ys[i + 1] - tr.ys[i]) ** 2))
            assert lhs >= nu / 2 * dy2 - 1e-9

    def test_first_hit_monotone(self):
        p = random_quadratic(23, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-9, max_iter=100000)
        hits = [tr.first_hit(e) for e in (1e-2, 1e-4, 1e-6, 1e-9)]
        assert all(h is not None for h in hits)
        assert all(a <= b for a, b in zip(hits, hits[1:]))

    def test_trace_rows_contiguous(self):
        p = random_quadratic(29, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=500)
        assert list(np.diff(tr.k)) == [1] * (len(tr) - 1)


class TestRunGda:
    def test_divergence_on_bilinear(self):
        p = make_bilinear([[1.0]])
        tr = run_gda(p, 0.1, 0.1, eps=1e-15, max_iter=201,
                     init=(np.array([1.0]), np.array([0.0])))
        n0 = math.hypot(np.linalg.norm(tr.xs[0]), np.linalg.norm(tr.ys[0]))
        n_last = math.hypot(np.linalg.norm(tr.xs[200]), np.linalg.norm(tr.ys[200]))
        assert n_last > n0

    def test_gap_scaling_matches_steps(self):
        p = quad_1d()
        tr = run_gda(p, 0.2, 0.5, eps=1e-15, max_iter=3,
                     init=(np.array([1.0]), np.array([1.0])))
        assert tr.beta[0] == pytest.approx(5.0)
        assert tr.gamma[0] == pytest.approx(2.0)
        assert tr.algo == "gda"


def nan_on_call(grad, n):
    """grad, except that its n-th call returns NaN."""
    calls = [0]

    def wrapped(x, y):
        calls[0] += 1
        g = grad(x, y)
        return np.full_like(g, math.nan) if calls[0] == n else g

    return wrapped


class TestLoopNonFinite:
    # run takes grad_x once per iteration and grad_y twice: at (x_k, y_k) for
    # the gap, then at (x_{k+1}, y_k) for the step.  run_gda takes each once.
    @pytest.mark.parametrize("algo, block, call, k", [
        ("agp", "x", 3, 3),
        ("agp", "y", 4, 2),  # the second grad_y of iteration 2: at the fresh x_3
        ("gda", "x", 3, 3),
        ("gda", "y", 3, 3),
    ])
    def test_nan_gradient_reports_block_and_iteration(self, algo, block, call, k):
        p = quad_1d()
        name = "grad_" + block
        bad = dataclasses.replace(p, **{name: nan_on_call(getattr(p, name), call)})
        init = (np.array([1.0]), np.array([1.0]))
        with pytest.raises(NumericFailureError) as ei:
            if algo == "agp":
                cfg = auto_configure(p.constants, Regime.NC_SC)
                run(bad, cfg, eps=1e-12, max_iter=10, init=init)
            else:
                run_gda(bad, 0.1, 0.1, eps=1e-12, max_iter=10, init=init)
        assert ei.value.block == block and ei.value.k == k


class TestWrappersShareRule:
    @pytest.mark.parametrize("seed, regime", [(3, Regime.NC_C), (4, Regime.C_NC)])
    def test_agp_step_reproduces_run(self, seed, regime):
        p = random_quadratic(seed, 2, 2, regime)
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-12, max_iter=60)
        assert np.any(tr.b != 0) or np.any(tr.c != 0)
        s = SolverState(k=1, x=tr.xs[0], y=tr.ys[0])
        for i in range(1, len(tr)):
            s = agp_step(p, s, params_at(cfg, p.constants, s.k))
            np.testing.assert_array_equal(s.x, tr.xs[i])
            np.testing.assert_array_equal(s.y, tr.ys[i])

    def test_gda_step_reproduces_run_gda(self):
        p = random_quadratic(5, 2, 2, Regime.NC_SC)
        tr = run_gda(p, 0.05, 0.2, eps=1e-12, max_iter=60)
        s = SolverState(k=1, x=tr.xs[0], y=tr.ys[0])
        for i in range(1, len(tr)):
            s = gda_step(p, s, 0.05, 0.2)
            np.testing.assert_array_equal(s.x, tr.xs[i])
            np.testing.assert_array_equal(s.y, tr.ys[i])
