import copy
import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest

from agp import verify
from agp.geometry import Ball, Box, Product, WholeSpace
from agp.objective import (VALUE_CHUNK, Regime, make_bilinear, make_quadratic,
                           random_quadratic)
from agp.schedules import (CNcConfig, InfeasibleConfigError, NcCConfig,
                           NcScConfig, ScNcConfig, auto_configure)
from agp.solver import NumericFailureError, run, run_gda
from agp.verify import potentials

from conftest import zoo_instances
from reference import (GapVector, StepParams, c_k, iterate_norms, params_at, q_k,
                       record_iterates, saddle_oracle_quadratic, stationarity_gap)


def quad_1d():
    # f(x, y) = x^2/2 + x y - y^2/2
    return make_quadratic([[1.0]], [[1.0]], [[1.0]])


def sp(beta, gamma, b=0.0, c=0.0):
    return StepParams(beta=beta, gamma=gamma, b=b, c=c)


# beta = eta = 2 and gamma = 1/rho = 2, with b = c = 0
HAND_CFG = NcScConfig(eta=2.0, rho=0.5)


def solve(p, cfg_or_steps, eps, max_iter, init="project-origin"):
    """run with a regime config, run_gda with a (step_x, step_y) pair."""
    if isinstance(cfg_or_steps, tuple):
        return run_gda(p, *cfg_or_steps, eps, max_iter, init)
    return run(p, cfg_or_steps, eps, max_iter, init)


def two_iterates(p, cfg_or_steps, x0, y0):
    """The trace and recorded iterates of the first two iterations of a 1-d
    problem from (x0, y0)."""
    p, it = record_iterates(p)
    return solve(p, cfg_or_steps, 1e-15, 2, (np.array([x0]), np.array([y0]))), it


def reference_iterates(p, cfg_or_steps, x0, y0, n):
    """The first n iterates from (x0, y0), one oracle call at a time.

    With a regime config, the alternating update: the x-step, then the
    y-step at the fresh x, with the step parameters of iteration k.  With a
    ``(step_x, step_y)`` pair, the simultaneous update of both blocks from
    the old iterate.
    """
    xs, ys = [x0], [y0]
    for k in range(1, n):
        x, y = xs[-1], ys[-1]
        if isinstance(cfg_or_steps, tuple):
            step_x, step_y = cfg_or_steps
            xs.append(p.X.project(x - step_x * p.grad_x(x, y)))
            ys.append(p.Y.project(y + step_y * p.grad_y(x, y)))
        else:
            s = params_at(cfg_or_steps, p.constants, k)
            xs.append(p.X.project(x - (p.grad_x(x, y) + s.b * x) / s.beta))
            ys.append(p.Y.project(y + (p.grad_y(xs[-1], y) - s.c * y) / s.gamma))
    return np.array(xs), np.array(ys)


def regularized_gap_reference(p, x, y, params):
    """The gap mapping with the gradients of f~ = f + (b/2)||x||^2 - (c/2)||y||^2."""
    gxf = p.grad_x(x, y) + params.b * x
    gyf = p.grad_y(x, y) - params.c * y
    return GapVector(gx=params.beta * (x - p.X.project(x - gxf / params.beta)),
                     gy=params.gamma * (y - p.Y.project(y + gyf / params.gamma)))


class TestAgpStep:
    """The first alternating step of run, against hand-executed updates."""

    def test_fixed_point_at_zero_gradient(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
        tr, it = two_iterates(p, HAND_CFG, 0.0, 0.0)
        assert tr.T_eps == 1 and len(tr) == 1
        np.testing.assert_array_equal(it.xs, [[0.0]])
        np.testing.assert_array_equal(it.ys, [[0.0]])

    def test_hand_executed_updates(self):
        # x+ = 1 - (1/2)(x + y) = 0; y+ = 1 + (1/2)(x+ - y) = 0.5
        _, it = two_iterates(quad_1d(), HAND_CFG, 1.0, 1.0)
        np.testing.assert_allclose(it.xs, [[1.0], [0.0]])
        np.testing.assert_allclose(it.ys, [[1.0], [0.5]])

    def test_projection_clamps_x(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]], X=Box([0.5], [2.0]),
                           Y=WholeSpace(1))
        _, it = two_iterates(p, HAND_CFG, 1.0, 1.0)
        np.testing.assert_allclose(it.xs[1], [0.5])


class TestGdaStep:
    """The first simultaneous step of run_gda, against hand-executed updates."""

    def test_bilinear_norm_grows(self):
        _, it = two_iterates(make_bilinear([[1.0]]), (0.1, 0.1), 1.0, 0.0)
        np.testing.assert_allclose(it.xs[1], [1.0])
        np.testing.assert_allclose(it.ys[1], [0.1])
        assert np.hypot(it.xs[1][0], it.ys[1][0]) ** 2 == pytest.approx(1.01)

    def test_contrast_with_alternating_update(self):
        # same start, same steps: y+ differs (1.0 vs 0.5) because the
        # simultaneous step uses the stale x
        _, sim = two_iterates(quad_1d(), (0.5, 0.5), 1.0, 1.0)
        _, alt = two_iterates(quad_1d(), HAND_CFG, 1.0, 1.0)
        np.testing.assert_allclose(sim.xs[1], [0.0])
        np.testing.assert_allclose(sim.ys[1], [1.0])
        np.testing.assert_allclose(alt.ys[1], [0.5])

    def test_fixed_point(self):
        tr, it = two_iterates(quad_1d(), (0.5, 0.5), 0.0, 0.0)
        assert tr.T_eps == 1 and len(tr) == 1
        np.testing.assert_array_equal(it.xs, [[0.0]])
        np.testing.assert_array_equal(it.ys, [[0.0]])

    def test_positive_steps_required(self):
        with pytest.raises(ValueError):
            run_gda(quad_1d(), 0.0, 0.1, eps=1e-6, max_iter=10)


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
        reg = regularized_gap_reference(p, x, y, sp(2.0, 3.0))
        np.testing.assert_array_equal(raw.gx, reg.gx)
        np.testing.assert_array_equal(raw.gy, reg.gy)

    def test_c_substitution(self):
        # interior, base grad_y = 1, c = 0.5, y = 2 -> regularized gy = 0
        p = make_quadratic(np.zeros((1, 1)), [[1.0]], np.zeros((1, 1)),
                           X=WholeSpace(1), Y=WholeSpace(1))
        g = regularized_gap_reference(p, np.array([1.0]), np.array([2.0]),
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
            reg = regularized_gap_reference(p, x, y, params)
            assert raw.norm <= reg.norm + c * np.linalg.norm(y) + 1e-9

    @pytest.mark.parametrize("seed, regime", [(3, Regime.NC_C), (4, Regime.C_NC)])
    def test_trace_column_matches_reference(self, seed, regime):
        p, it = record_iterates(random_quadratic(seed, 2, 2, regime))
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-12, max_iter=60)
        assert np.all(tr.b + tr.c > 0)
        xs, ys = it.xs, it.ys
        for i in range(len(tr)):
            pk = params_at(cfg, p.constants, int(tr.k[i]))
            g = regularized_gap_reference(p, xs[i], ys[i], pk)
            assert tr.reg_gap_norm[i] == pytest.approx(g.norm, rel=1e-12)


def potential_column(cfg, p, xs, ys):
    """The potentials of iterates xs/ys, from the values and the schedule a
    trace under ``cfg`` records."""
    f = np.array([p.value(x, y) for x, y in zip(xs, ys)])
    fmix = np.array([p.value(xs[i + 1], ys[i]) for i in range(len(xs) - 1)])
    ks = range(1, len(xs) + 1)
    c = [c_k(cfg, k) if isinstance(cfg, NcCConfig) else 0.0 for k in ks]
    b = [q_k(cfg, k) if isinstance(cfg, CNcConfig) else 0.0 for k in ks]
    trace = types.SimpleNamespace(f=f, f_mixed=fmix, b=np.array(b), c=np.array(c),
                                  cfg=cfg, problem=p, **iterate_norms(xs, ys))
    return potentials(trace)


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
        p, it = record_iterates(random_quadratic(6, 3, 2, regime))
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-14, max_iter=40)
        xs, ys = it.xs, it.ys
        want = [reference_potential(cfg, p, xs, ys, j) for j in range(1, len(tr) + 1)]
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
        rb, c = cfg.rho_bar, lambda k: c_k(cfg, k)
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
        zb, q = cfg.zeta_bar, lambda k: q_k(cfg, k)
        dx, xj1 = xs[j] - xs[j - 1], xs[j]
        s = (-(4.0 / (zb**2 * q(j))) * (dx @ dx)
             - (4.0 / zb) * (1.0 - q(j - 1) / q(j)) * (xj1 @ xj1))
        return (p.value(xj1, ys[j - 1]) + s
                + 17.0 / (5 * zb) * (dx @ dx) + 0.5 * q(j - 1) * (xj1 @ xj1))
    return math.nan


class TestRun:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_trace_records_its_config_and_schedule(self, regime):
        p = random_quadratic(3, 2, 2, regime)
        cfg = auto_configure(p.constants, regime)
        tr = run(p, cfg, eps=1e-14, max_iter=300)
        assert tr.cfg is cfg and tr.regime is regime and tr.algo == "agp"
        assert tr.problem is p
        ks = range(1, len(tr) + 1)
        c = [c_k(cfg, k) if regime is Regime.NC_C else 0.0 for k in ks]
        b = [q_k(cfg, k) if regime is Regime.C_NC else 0.0 for k in ks]
        assert tr.c.tolist() == c and tr.b.tolist() == b
        gda = run_gda(p, 0.1, 0.1, eps=1e-14, max_iter=5)
        assert gda.cfg is None and gda.regime is None and gda.algo == "gda"
        assert gda.problem is p

    def test_converges_to_oracle_saddle(self):
        p = make_quadratic([[1.0]], [[1.0]], [[1.0]], a=[0.3], c_lin=[-0.2])
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-6, max_iter=100000, init=(np.array([1.0]), np.array([1.0])))
        assert tr.reason == "gap_le_eps"
        xstar, ystar = saddle_oracle_quadratic([[1.0]], [[1.0]], [[1.0]], [0.3], [-0.2])
        assert abs(tr.x[0] - xstar[0]) <= 1e-5
        assert abs(tr.y[0] - ystar[0]) <= 1e-5

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
        (pa, it_a), (pb, it_b) = record_iterates(p), record_iterates(p)
        a = run(pa, cfg, eps=1e-8, max_iter=3000)
        b = run(pb, cfg, eps=1e-8, max_iter=3000)
        np.testing.assert_array_equal(it_a.xs, it_b.xs)
        np.testing.assert_array_equal(a.gap_norm, b.gap_norm)
        np.testing.assert_array_equal(a.potential, b.potential)

    def test_feasibility_of_all_iterates(self):
        p, it = record_iterates(random_quadratic(5, 2, 2, Regime.NC_SC))
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-10, max_iter=2000)
        xs, ys = it.xs, it.ys
        assert len(xs) == len(tr)
        for i in range(len(tr)):
            assert p.X.contains(xs[i], tol=1e-10)
            assert p.Y.contains(ys[i], tol=1e-10)

    def test_gap_uses_current_iteration_scaling(self):
        p, it = record_iterates(make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1])))
        cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        tr = run(p, cfg, eps=1e-12, max_iter=50,
                 init=(np.array([1.0]), np.array([1.0])))
        xs, ys = it.xs, it.ys
        for i in (0, 5, 20):
            k = int(tr.k[i])
            pk = params_at(cfg, p.constants, k)
            g = stationarity_gap(p, xs[i], ys[i], pk.beta, pk.gamma)
            assert tr.gap_norm[i] == pytest.approx(g.norm, rel=1e-12)

    def test_descent_inequality_every_iteration(self):
        # f(x_{k+1}, y_k) - f(x_k, y_k) <= -(eta/2)||dx||^2
        p, it = record_iterates(random_quadratic(17, 3, 2, Regime.NC_SC))
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-12, max_iter=2000)
        xs, ys = it.xs, it.ys
        assert len(xs) == len(tr)
        eta = cfg.eta
        for i in range(len(tr) - 1):
            lhs = p.value(xs[i + 1], ys[i]) - p.value(xs[i], ys[i])
            dx2 = float(np.sum((xs[i + 1] - xs[i]) ** 2))
            assert lhs <= -eta / 2 * dx2 + 1e-9

    def test_ascent_inequality_every_iteration(self):
        # f(x_{k+1}, y_{k+1}) - f(x_{k+1}, y_k) >= (nu/2)||dy||^2
        p, it = record_iterates(random_quadratic(19, 2, 2, Regime.SC_NC))
        cfg = auto_configure(p.constants, Regime.SC_NC)
        tr = run(p, cfg, eps=1e-12, max_iter=2000)
        xs, ys = it.xs, it.ys
        assert len(xs) == len(tr)
        nu = cfg.nu
        for i in range(len(tr) - 1):
            lhs = p.value(xs[i + 1], ys[i + 1]) - p.value(xs[i + 1], ys[i])
            dy2 = float(np.sum((ys[i + 1] - ys[i]) ** 2))
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
        p, it = record_iterates(make_bilinear([[1.0]]))
        run_gda(p, 0.1, 0.1, eps=1e-15, max_iter=201,
                init=(np.array([1.0]), np.array([0.0])))
        xs, ys = it.xs, it.ys
        n0 = math.hypot(np.linalg.norm(xs[0]), np.linalg.norm(ys[0]))
        n_last = math.hypot(np.linalg.norm(xs[200]), np.linalg.norm(ys[200]))
        assert n_last > n0

    def test_gap_scaling_matches_steps(self):
        p = quad_1d()
        tr = run_gda(p, 0.2, 0.5, eps=1e-15, max_iter=3,
                     init=(np.array([1.0]), np.array([1.0])))
        assert tr.beta[0] == pytest.approx(5.0)
        assert tr.gamma[0] == pytest.approx(2.0)
        assert tr.algo == "gda"

    @pytest.mark.parametrize("steps", [(0.0, 0.1), (0.1, -1.0), (math.nan, 0.1),
                                       (0.1, math.inf)])
    def test_steps_must_be_positive_and_finite(self, steps):
        with pytest.raises(ValueError, match="step sizes"):
            run_gda(quad_1d(), *steps, eps=1e-6, max_iter=10)


def at_point(x0, y0):
    """Whether (x, y) is the point (x0, y0)."""
    return lambda x, y: np.array_equal(x, x0) and np.array_equal(y, y0)


def bad_at(p, block, hit, value, looped=False):
    """A copy of ``p`` whose block gradient is ``value`` in every entry at
    the points where ``hit(x, y)`` holds, row by row in ``grad_y_rows`` too;
    ``looped`` clears ``grad_y_rows`` instead, so ``grads_y`` loops."""
    grad = getattr(p, "grad_" + block)

    def bad(x, y):
        g = grad(x, y)
        return np.full_like(g, value) if hit(x, y) else g

    def bad_rows(X, Y):
        G = p.grad_y_rows(X, Y)
        G[[hit(x, y) for x, y in zip(X, Y)]] = value
        return G

    if block == "x":
        return dataclasses.replace(p, grad_x=bad)
    return dataclasses.replace(p, grad_y=bad, grad_y_rows=None if looped else bad_rows)


def counting_sets(p):
    """A copy of ``p`` whose X and Y count the vectors they project, one per
    ``project`` call and one per row of a ``project_rows`` call."""
    calls = {"X": 0, "Y": 0}

    def counted(s, name):
        wrapped = copy.copy(s)  # same class and fields, so the run is unchanged

        def project(v):
            calls[name] += 1
            return s.project(v)

        def project_rows(V):
            calls[name] += len(V)
            return s.project_rows(V)

        object.__setattr__(wrapped, "project", project)
        object.__setattr__(wrapped, "project_rows", project_rows)
        return wrapped

    return dataclasses.replace(p, X=counted(p.X, "X"), Y=counted(p.Y, "Y")), calls


# (algo, block, (i, j), k): the gradient of the block turns non-finite at the
# point (x_i, y_j) of the clean run, and the run must report iteration k.
# run takes grad_x at (x_k, y_k) and grad_y at (x_k, y_k) for the gap and at
# (x_{k+1}, y_k) for the step; run_gda takes each at (x_k, y_k).  The ids
# keep the names the cases had when they were keyed by call count.
NONFINITE_CASES = [
    pytest.param("agp", "x", (3, 3), 3, id="agp-x-3-3"),
    # the y-step of iteration 2, at the fresh x_3
    pytest.param("agp", "y", (3, 2), 2, id="agp-y-4-2"),
    # the gap of row 2, whose y-half the loop defers
    pytest.param("agp", "y", (2, 2), 2, id="agp-y-gap-2"),
    pytest.param("gda", "x", (3, 3), 3, id="gda-x-3-3"),
    pytest.param("gda", "y", (3, 3), 3, id="gda-y-3-3"),
]


def run_with_bad_gradient(algo, block, point, value):
    p = quad_1d()
    init = (np.array([1.0]), np.array([1.0]))
    cfg_or_steps = auto_configure(p.constants, Regime.NC_SC) if algo == "agp" else (0.1, 0.1)
    clean, it = record_iterates(p)
    assert len(solve(clean, cfg_or_steps, 1e-12, 10, init)) == 10
    i, j = point
    bad = bad_at(p, block, at_point(it.xs[i - 1], it.ys[j - 1]), value)
    return solve(bad, cfg_or_steps, 1e-12, 10, init)


class TestLoopNonFinite:
    @pytest.mark.parametrize("algo, block, point, k", NONFINITE_CASES)
    def test_nan_gradient_reports_block_and_iteration(self, algo, block, point, k):
        with pytest.raises(NumericFailureError) as ei:
            run_with_bad_gradient(algo, block, point, math.nan)
        assert ei.value.block == block and ei.value.k == k

    # inf * 0 in the check is an invalid operation, which numpy must not
    # report: under warnings-as-errors it would replace the check's error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["+inf", "-inf"])
    @pytest.mark.parametrize("algo, block, point, k", NONFINITE_CASES)
    def test_infinite_gradient_reports_block_and_iteration(self, algo, block, point, k,
                                                           value):
        with pytest.raises(NumericFailureError) as ei:
            run_with_bad_gradient(algo, block, point, value)
        assert ei.value.block == block and ei.value.k == k

    @pytest.mark.parametrize("entry", [1e300, 1.7e308])
    @pytest.mark.parametrize("algo", ["agp", "gda"])
    def test_huge_finite_gradient_does_not_raise(self, algo, entry):
        # g @ g overflows for both entries, the entry sum for the second;
        # g @ 0 does not overflow
        box = Box(-np.ones(2), np.ones(2))
        p = make_quadratic(np.eye(2), np.eye(2), np.eye(2), X=box, Y=box)
        huge = np.full(2, entry)
        p = dataclasses.replace(p, grad_x=lambda x, y: huge, grad_y=lambda x, y: -huge,
                                grad_y_rows=lambda X, Y: np.tile(-huge, (len(X), 1)))
        if algo == "agp":
            tr = run(p, auto_configure(p.constants, Regime.NC_SC), eps=1e-12, max_iter=5)
        else:
            tr = run_gda(p, 0.1, 0.1, eps=1e-12, max_iter=5)
        # the first step lands in the corner the gradients point to, where
        # the gap is 0, so the second gradient pair is checked as well
        assert tr.T_eps == 2 and np.all(np.isfinite(tr.gap_norm))


class TestDeferredGap:
    """Rows whose x-half exceeds eps cannot stop and get their gap norms from
    a batched pass; the stops, the columns and the failures stay those of
    the row-by-row formula."""

    P = random_quadratic(7, 2, 2, Regime.NC_SC)
    CFG = auto_configure(P.constants, Regime.NC_SC)

    @classmethod
    def solve(cls, p):
        return run(p, cls.CFG, eps=1e-6, max_iter=10**5, init=(np.ones(2), np.ones(2)))

    @classmethod
    def clean_iterates(cls):
        """The iterates of the clean run, which stops by eps at row 40 or later."""
        recording, it = record_iterates(cls.P)
        tr = cls.solve(recording)
        assert tr.reason == "gap_le_eps" and tr.T_eps >= 40
        return it

    @pytest.mark.parametrize("looped", [False, True], ids=["rows", "looped"])
    def test_deferred_nan_reported_before_later_value_error(self, looped):
        it = self.clean_iterates()
        j, k = 3, 30
        bad = bad_at(self.P, "y", at_point(it.xs[j - 1], it.ys[j - 1]), math.nan, looped)
        late = at_point(it.xs[k - 1], it.ys[k - 1])

        def grad_x(x, y):
            if late(x, y):
                raise ValueError("grad_x refused")
            return self.P.grad_x(x, y)

        with pytest.raises(ValueError, match="refused"):
            self.solve(dataclasses.replace(self.P, grad_x=grad_x))
        with pytest.raises(NumericFailureError) as ei:
            self.solve(dataclasses.replace(bad, grad_x=grad_x))
        assert (ei.value.k, ei.value.block) == (j, "y")
        assert isinstance(ei.value.__context__, ValueError)

    def test_interrupt_is_not_replaced_by_a_deferred_failure(self):
        # the same deferred NaN as above: completing the pending rows on an
        # interrupt would raise it in place of the interrupt
        it = self.clean_iterates()
        j, k = 3, 30
        bad = bad_at(self.P, "y", at_point(it.xs[j - 1], it.ys[j - 1]), math.nan)
        late = at_point(it.xs[k - 1], it.ys[k - 1])

        def grad_x(x, y):
            if late(x, y):
                raise KeyboardInterrupt
            return self.P.grad_x(x, y)

        with pytest.raises(KeyboardInterrupt) as ei:
            self.solve(dataclasses.replace(bad, grad_x=grad_x))
        assert ei.value.__context__ is None

    @pytest.mark.parametrize("looped", [False, True], ids=["rows", "looped"])
    def test_deferred_nan_reported_before_later_stop(self, looped):
        it = self.clean_iterates()
        j = 3
        with pytest.raises(NumericFailureError) as ei:
            self.solve(bad_at(self.P, "y", at_point(it.xs[j - 1], it.ys[j - 1]), math.nan,
                              looped))
        assert (ei.value.k, ei.value.block) == (j, "y")

    def test_exact_stop_when_x_half_is_below_eps(self):
        # f = x^2/2 - y^2/200 on the plane: under HAND_CFG x halves each
        # step and y shrinks by 0.5 %, so from row 11 the x-half is below
        # eps while the y-half keeps the gap above it until row 460 or so
        p = make_quadratic([[1.0]], [[0.0]], [[0.01]])
        eps = 1e-3
        recording, it = record_iterates(p)
        tr = run(recording, HAND_CFG, eps=eps, max_iter=10**4,
                 init=(np.array([1.0]), np.array([1.0])))
        gaps = [stationarity_gap(p, x, y, 2.0, 2.0) for x, y in zip(it.xs, it.ys)]
        x_half = np.array([math.sqrt(float(g.gx @ g.gx)) for g in gaps])
        norms = np.array([g.norm for g in gaps])
        assert np.count_nonzero((x_half <= eps) & (norms > eps)) > 400
        assert tr.T_eps == int(np.flatnonzero(norms <= eps)[0]) + 1 == len(tr)
        assert np.array_equal(tr.gap_norm, norms)

    @pytest.mark.parametrize("algo", [*Regime, "gda"])
    def test_gap_columns_match_reference_bit_for_bit(self, algo):
        # past the first fold and across the pass's 512-row batches
        n = VALUE_CHUNK + 600
        regime = Regime.NC_SC if algo == "gda" else algo
        p = random_quadratic(3, 3, 3, regime)
        cfg_or_steps = (0.05, 0.2) if algo == "gda" else auto_configure(p.constants, regime)
        recording, it = record_iterates(p)
        tr = solve(recording, cfg_or_steps, 1e-300, n)
        assert len(tr) == n
        self.assert_gap_columns(p, tr, it)

    @pytest.mark.parametrize("algo", ["agp", "gda"])
    def test_interleaved_rows_match_reference_bit_for_bit(self, algo):
        # the bilinear game rotates: its x-half |y_k| dips below eps every
        # so many rows while the gap, about the radius sqrt(2), stays above
        # it, so rows that may stop and deferred rows interleave across a fold
        p = make_bilinear([[1.0]])
        eps = 0.5
        cfg_or_steps = (0.01, 0.01) if algo == "gda" else HAND_CFG
        recording, it = record_iterates(p)
        tr = solve(recording, cfg_or_steps, eps, VALUE_CHUNK + 600,
                   init=(np.array([1.0]), np.array([1.0])))
        assert len(tr) == VALUE_CHUNK + 600 and tr.T_eps is None
        gx = [stationarity_gap(p, x, y, beta, gamma).gx
              for x, y, beta, gamma in zip(it.xs, it.ys, tr.beta, tr.gamma)]
        may_stop = np.array([math.sqrt(float(g @ g)) <= eps for g in gx])
        assert np.count_nonzero(may_stop[1:] != may_stop[:-1]) > 10
        self.assert_gap_columns(p, tr, it)

    def test_gap_columns_match_reference_on_ball_and_product(self):
        p = zoo_instances()[-1]  # robust svm: X a ball, Y a ball x box product
        assert isinstance(p.X, Ball) and isinstance(p.Y, Product)
        recording, it = record_iterates(p)
        tr = run(recording, auto_configure(p.constants, Regime.C_NC), 1e-300, 600)
        self.assert_gap_columns(p, tr, it)

    @staticmethod
    def assert_gap_columns(p, tr, it):
        for i, (x, y) in enumerate(zip(it.xs, it.ys)):
            params = sp(tr.beta[i], tr.gamma[i], tr.b[i], tr.c[i])
            assert tr.gap_norm[i] == stationarity_gap(p, x, y, params.beta,
                                                      params.gamma).norm, i
            assert tr.reg_gap_norm[i] == regularized_gap_reference(p, x, y, params).norm, i


class TestRunInfeasible:
    @pytest.mark.parametrize("A, B, C, cfg", [
        ([[1.0]], [[1.0]], [[1.0]], NcScConfig(eta=-1.0, rho=1.0)),
        ([[1.0]], [[1.0]], [[1.0]], ScNcConfig(zeta=-1.0, nu=1.0)),
        # decoupled and flat in the floored block: the floor 1.01*L is 0 too
        ([[0.0]], [[0.0]], [[1.0]], NcCConfig(eta_bar=0.1, rho_bar=1.0)),
        ([[1.0]], [[0.0]], [[0.0]], CNcConfig(zeta_bar=1.0, nu_bar=0.1)),
        # NaN fails the step check; an infinite rho or zeta makes a zero step
        ([[1.0]], [[1.0]], [[1.0]], NcScConfig(eta=math.nan, rho=1.0)),
        ([[1.0]], [[1.0]], [[1.0]], ScNcConfig(zeta=1.0, nu=math.nan)),
        ([[1.0]], [[1.0]], [[1.0]], NcScConfig(eta=1.0, rho=math.inf)),
        ([[1.0]], [[1.0]], [[1.0]], ScNcConfig(zeta=math.inf, nu=1.0)),
    ], ids=["nc_sc", "sc_nc", "nc_c", "c_nc", "nc_sc nan eta", "sc_nc nan nu",
            "nc_sc inf rho", "sc_nc inf zeta"])
    def test_raises_before_the_first_gradient(self, A, B, C, cfg):
        def no_gradient(x, y):
            raise AssertionError("gradient taken under an infeasible config")

        p = dataclasses.replace(make_quadratic(A, B, C), grad_x=no_gradient,
                                grad_y=no_gradient)
        with pytest.raises(InfeasibleConfigError):
            run(p, cfg, eps=1e-6, max_iter=10)


class TestProjectionCount:
    # Per iteration: 1 per block for the raw gap, 1 for the regularized
    # block whose coefficient is nonzero, 1 for the y-step; the x-step reuses
    # the gap's x projection.  The gap's y projections of most rows go
    # through project_rows, one vector per row.  GDA projects both blocks again for its step.
    # Plus 1 per set for the initial point, minus the step projections of
    # the last iteration, which takes no step.
    @pytest.mark.parametrize("regime, per_x, per_y", [
        (Regime.NC_SC, 1, 2), (Regime.SC_NC, 1, 2),
        (Regime.NC_C, 1, 3), (Regime.C_NC, 2, 2),
    ])
    def test_agp(self, regime, per_x, per_y):
        p, calls = counting_sets(random_quadratic(7, 2, 2, regime))
        n = 20
        tr = run(p, auto_configure(p.constants, regime), eps=1e-300, max_iter=n)
        assert len(tr) == n
        assert calls == {"X": 1 + per_x * n, "Y": 1 + per_y * n - 1}

    def test_gda(self):
        p, calls = counting_sets(random_quadratic(7, 2, 2, Regime.NC_SC))
        n = 20
        run_gda(p, 0.05, 0.2, eps=1e-300, max_iter=n)
        assert calls == {"X": 1 + 2 * n - 1, "Y": 1 + 2 * n - 1}


class TestWrappersShareRule:
    """run and run_gda reproduce the update rule of reference_iterates bit for bit."""

    @staticmethod
    def replay(p, cfg_or_steps):
        recording, it = record_iterates(p)
        tr = solve(recording, cfg_or_steps, 1e-12, 60)
        got_xs, got_ys = it.xs, it.ys
        xs, ys = reference_iterates(p, cfg_or_steps, got_xs[0], got_ys[0], len(tr))
        np.testing.assert_array_equal(xs, got_xs)
        np.testing.assert_array_equal(ys, got_ys)
        return tr

    @pytest.mark.parametrize("seed, regime", [(3, Regime.NC_C), (4, Regime.C_NC),
                                              (5, Regime.NC_SC), (6, Regime.SC_NC)])
    def test_agp_step_reproduces_run(self, seed, regime):
        p = random_quadratic(seed, 2, 2, regime)
        tr = self.replay(p, auto_configure(p.constants, regime))
        growing = regime in (Regime.NC_C, Regime.C_NC)
        assert (np.any(tr.b != 0) or np.any(tr.c != 0)) == growing

    def test_agp_step_reproduces_run_on_ball_and_product(self):
        p = zoo_instances()[-1]  # robust svm: X a ball, Y a ball x box product
        assert isinstance(p.X, Ball) and isinstance(p.Y, Product)
        self.replay(p, auto_configure(p.constants, Regime.C_NC))

    def test_gda_step_reproduces_run_gda(self):
        self.replay(random_quadratic(5, 2, 2, Regime.NC_SC), (0.05, 0.2))


def held_arrays(obj):
    """Every array ``obj`` holds, also inside a dataclass it holds."""
    for v in vars(obj).values():
        if isinstance(v, np.ndarray):
            yield v
        elif dataclasses.is_dataclass(v):
            yield from held_arrays(v)


def traced_run(*args, **kwargs):
    """``run`` under tracemalloc: (trace, peak, held) in bytes over the baseline."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tr = run(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return tr, peak - base, held - base


class TestTraceMemory:
    """A trace costs its per-row columns: no iterate history, no n x d
    temporaries, no buffer beyond the recorded rows."""

    def test_peak_within_payload_bound(self):
        # stops by eps at 21,286 rows, so the grown buffers must be trimmed
        p = random_quadratic(9, 64, 64, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr, peak, held = traced_run(p, cfg, eps=1e-3, max_iter=10**6)
        n = len(tr)
        assert tr.reason == "gap_le_eps" and 15_000 < n < 30_000
        # what an n x (dim_x + dim_y) iterate history would take
        history = n * (p.dim_x + p.dim_y) * 8
        # The peak is set while a full block is folded: the two blocks of
        # VALUE_CHUNK iterates (19 % of the history here), the temporaries
        # of one value_rows call on a block (as much again) and the columns
        # grown so far (15 %).
        assert peak < 0.6 * history
        # The trace's own arrays are 17 per-row columns (136 B) against
        # 1,024 B of iterates per row at 64 x 64, and the last iterate.
        owned = sum(a.nbytes for a in held_arrays(tr))
        assert owned <= 0.14 * history
        assert held <= owned + 0.01 * history

    def test_no_rows_reserved_up_front(self):
        p = random_quadratic(7, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr, peak, _ = traced_run(p, cfg, eps=1e-6, max_iter=10**7)
        assert tr.reason == "gap_le_eps" and len(tr) <= 1000
        assert peak < 2 * 2**20


def assert_columns_match_iterates(p, cfg_or_steps, tr, xs, ys):
    """Every column and reduction of ``tr`` has the bits of its whole-array
    formula on the recorded iterates xs/ys, which replay the update rule
    bit for bit, and the trace owns each of its arrays."""
    n = len(tr)
    assert xs.shape == (n, p.dim_x) and ys.shape == (n, p.dim_y)
    ref_xs, ref_ys = reference_iterates(p, cfg_or_steps, xs[0], ys[0], n)
    np.testing.assert_array_equal(xs, ref_xs)
    np.testing.assert_array_equal(ys, ref_ys)
    np.testing.assert_array_equal(tr.x, xs[-1])
    np.testing.assert_array_equal(tr.y, ys[-1])
    f = p.value_rows(xs, ys)
    assert np.array_equal(tr.f, f)
    for got, a in ((tr.dx_norm, xs), (tr.dy_norm, ys)):
        whole = np.full(n, np.nan)
        whole[1:] = np.linalg.norm(np.diff(a, axis=0), axis=1)
        assert np.array_equal(got, whole, equal_nan=True)
    norms = iterate_norms(xs, ys)
    for name, want in norms.items():
        assert np.array_equal(getattr(tr, name), want), name
    if isinstance(cfg_or_steps, tuple):
        assert tr.f_mixed is None
    else:
        fmix = p.value_rows(xs[1:], ys[:-1])
        assert np.array_equal(tr.f_mixed, fmix)
        pot, slack = verify.trace_columns(
            dataclasses.replace(tr, f=f, f_mixed=fmix, **norms))
        assert np.array_equal(tr.potential, pot, equal_nan=True)
        assert np.array_equal(tr.monitor_slack, slack, equal_nan=True)
    # no array is a view of a larger buffer
    assert all(a.flags.owndata for a in held_arrays(tr))


# f = x^2/1000 - y^2/2 on the whole plane: under HAND_CFG the x-step is
# x <- 0.999 x, so the gap falls strictly and never reaches 0
SLOW_1D = make_quadratic([[0.002]], [[0.0]], [[1.0]])


class TestGrowthBoundaries:
    """Trace lengths on both sides of each growth step of the column buffers
    (1024 rows, then a quarter more: 1280, 1600)."""

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 1279, 1280, 1281, 1599,
                                   1600, 1601])
    def test_iterates_match_reference(self, n):
        init = (np.array([1.0]), np.array([1.0]))
        (pc, capped_it), (ps, stopped_it) = record_iterates(SLOW_1D), record_iterates(SLOW_1D)
        capped = run(pc, HAND_CFG, eps=1e-300, max_iter=n, init=init)
        # the same rows, stopped by eps from buffers that outgrew them
        stopped = run(ps, HAND_CFG, eps=capped.gap_norm[-1], max_iter=10**6, init=init)
        for tr, it in ((capped, capped_it), (stopped, stopped_it)):
            assert len(tr) == n
            assert_columns_match_iterates(SLOW_1D, HAND_CFG, tr, it.xs, it.ys)


class TestChunkBoundaries:
    """Trace lengths n = VALUE_CHUNK + extra on both sides of each fold of
    the iterate blocks, and of one and two rows, in every regime and GDA."""

    @pytest.mark.parametrize("algo", [*Regime, "gda"])
    @pytest.mark.parametrize("extra", [1 - VALUE_CHUNK, 2 - VALUE_CHUNK, -1, 0, 1, 2,
                                       VALUE_CHUNK + 1])
    def test_columns_match_whole_array_formulas(self, algo, extra):
        n = VALUE_CHUNK + extra
        regime = Regime.NC_SC if algo == "gda" else algo
        # at seed 3 no run reaches an exactly zero gap within these lengths
        p = random_quadratic(3, 3, 3, regime)
        cfg_or_steps = (0.05, 0.2) if algo == "gda" else auto_configure(p.constants, regime)
        recording, it = record_iterates(p)
        tr = solve(recording, cfg_or_steps, 1e-300, n)
        assert len(tr) == n
        assert n < 3 or algo == "gda" or not np.all(np.isnan(tr.potential))
        assert_columns_match_iterates(p, cfg_or_steps, tr, it.xs, it.ys)
