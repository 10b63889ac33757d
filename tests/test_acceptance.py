"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and recorded bound ratios.
"""

import math
import time

import numpy as np
import pytest

from conftest import zoo_instances

from agp.geometry import Ball, Box, Product, Simplex, WholeSpace
from agp.objective import (Regime, make_bilinear, make_nc_sc_sine,
                           make_quadratic, make_sc_nc_sine, random_quadratic)
from agp.schedules import CNcConfig, NcCConfig, auto_configure
from agp.solver import run, run_gda
from agp.verify import (compute_bound, finite_diff_check, lemma_monitor,
                        rate_slope, theory_constants)
from agp.bench import parse_config, rate_experiment, run_suite, write_trace_csv

from reference import read_trace_csv, record_iterates, saddle_oracle_quadratic

TINY = 1e-300  # effectively "never stop early" for fixed-length monitor runs


def report(num, detail):
    print(f"\n[criterion {num:2d}] PASS  {detail}")


def _monitor_run(problem, cfg, iters):
    trace = run(problem, cfg, eps=TINY, max_iter=iters)
    return trace, lemma_monitor(trace)


# ---------------------------------------------------------------------------
# shared runs (reused by the bound criterion)

_BOUND_POOL = []  # (tag, problem, cfg, trace, eps, T_obs)


def _pool_add(tag, problem, cfg, trace, eps_values):
    for eps in eps_values:
        t = trace.first_hit(eps)
        if t is not None:
            _BOUND_POOL.append((tag, problem, cfg, trace, eps, t))


def test_criterion_01_projection_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)

    def bi_oracle(v, scale):
        lo, hi = float(np.min(v)) - scale - 1.0, float(np.max(v))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sum(np.maximum(v - mid, 0.0)) > scale:
                lo = mid
            else:
                hi = mid
        return np.maximum(v - 0.5 * (lo + hi), 0.0)

    cases = 0
    for variant in ("box", "ball", "simplex", "free"):
        for i in range(1000):
            dim = int(rng.integers(1, 11))
            if variant == "box":
                s = Box(-rng.uniform(0.2, 2, dim), rng.uniform(0.2, 2, dim))
            elif variant == "ball":
                s = Ball(rng.standard_normal(dim), rng.uniform(0.2, 2))
            elif variant == "simplex":
                s = Simplex(dim, scale=rng.uniform(0.5, 2))
            else:
                s = WholeSpace(dim)
            v = 4 * rng.standard_normal(dim)
            w = 4 * rng.standard_normal(dim)
            pv, pw = s.project(v), s.project(w)
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-10
            np.testing.assert_allclose(s.project(pv), pv, atol=1e-12)
            u = s.sample(rng)
            assert np.linalg.norm(pv - v) <= np.linalg.norm(u - v) + 1e-10
            if variant == "simplex":
                np.testing.assert_allclose(pv, bi_oracle(v, s.scale), atol=1e-10)
            cases += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"projection suite took {elapsed:.1f}s"
    report(1, f"projections: {cases} random cases across 4 variants in {elapsed:.2f}s")


def test_criterion_02_gradient_consistency():
    t0 = time.time()
    sqeps = math.sqrt(np.finfo(float).eps)
    for problem in zoo_instances():
        rep = finite_diff_check(problem, 100, seed=7)
        assert rep.passed, f"{problem.name}: {rep}"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"gradient checks took {elapsed:.1f}s"
    report(2, f"finite differences on {len(zoo_instances())} zoo instances, "
              f"100 points each, rel tol 1e-6 ({elapsed:.2f}s)")


def test_criterion_03_nc_sc_monitors():
    t0 = time.time()
    rng = np.random.default_rng(3)
    problems = []
    for seed in range(14):
        nx = int(rng.integers(1, 6))
        ny = int(rng.integers(1, 6))
        problems.append(random_quadratic(seed, nx, ny, Regime.NC_SC))
    for seed in range(6):
        r2 = np.random.default_rng(seed + 50)
        nx = int(r2.integers(1, 6))
        ny = int(r2.integers(1, 6))
        B = 0.4 * r2.standard_normal((nx, ny))
        problems.append(make_nc_sc_sine(
            nx, ny, B, float(r2.uniform(0.5, 1.5)),
            Box(-np.ones(nx), np.ones(nx)), Box(-np.ones(ny), np.ones(ny))))
    assert len(problems) >= 20
    worst = 0.0
    for problem in problems:
        cfg = auto_configure(problem.constants, Regime.NC_SC)
        trace, rep = _monitor_run(problem, cfg, 10**4)
        for eid in ("x_descent", "gap_potential_periter"):
            e = rep.entry(eid)
            assert e.passed, f"{problem.name} {eid}: {e}"
            worst = max(worst, e.max_violation)
        _pool_add("nc_sc-monitor", problem, cfg, trace, (1e-1, 1e-2))
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"NC-SC monitor suite took {elapsed:.1f}s"
    report(3, f"NC-SC descent + per-iteration inequalities on {len(problems)} "
              f"instances x 1e4 iters, worst rel violation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_04_sc_nc_monitors():
    t0 = time.time()
    rng = np.random.default_rng(4)
    problems = []
    for seed in range(14):
        nx = int(rng.integers(1, 6))
        ny = int(rng.integers(1, 6))
        problems.append(random_quadratic(seed + 100, nx, ny, Regime.SC_NC))
    for seed in range(6):
        r2 = np.random.default_rng(seed + 150)
        nx = int(r2.integers(1, 6))
        ny = int(r2.integers(1, 6))
        B = 0.4 * r2.standard_normal((nx, ny))
        problems.append(make_sc_nc_sine(
            nx, ny, B, float(r2.uniform(0.5, 1.5)),
            Box(-np.ones(nx), np.ones(nx)), Box(-np.ones(ny), np.ones(ny))))
    assert len(problems) >= 20
    worst = 0.0
    for problem in problems:
        cfg = auto_configure(problem.constants, Regime.SC_NC)
        trace, rep = _monitor_run(problem, cfg, 10**4)
        for eid in ("y_ascent", "gap_potential_periter"):
            e = rep.entry(eid)
            assert e.passed, f"{problem.name} {eid}: {e}"
            worst = max(worst, e.max_violation)
        _pool_add("sc_nc-monitor", problem, cfg, trace, (1e-1, 1e-2))
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"SC-NC monitor suite took {elapsed:.1f}s"
    report(4, f"SC-NC ascent + per-iteration inequalities on {len(problems)} "
              f"instances x 1e4 iters, worst rel violation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_nc_c_and_c_nc_monitors():
    t0 = time.time()
    ncc = [random_quadratic(seed + 200, 2 + seed % 2, 2 + (seed + 1) % 2, Regime.NC_C)
           for seed in range(8)]
    ncc.append(make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1])))
    ncc.append(make_bilinear(np.eye(2), X=Box(-np.ones(2), np.ones(2)),
                             Y=Box(-np.ones(2), np.ones(2))))
    cnc = [random_quadratic(seed + 300, 2 + seed % 2, 2 + (seed + 1) % 2, Regime.C_NC)
           for seed in range(8)]
    cnc.append(make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1])))
    cnc.append(make_bilinear(np.eye(2), X=Box(-np.ones(2), np.ones(2)),
                             Y=Box(-np.ones(2), np.ones(2))))
    assert len(ncc) >= 10 and len(cnc) >= 10

    worst = 0.0
    for problem in ncc:
        if problem.constants.L_y > 0 and problem.constants.L_12 > 0:
            cfg = auto_configure(problem.constants, Regime.NC_C)
        else:
            cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
        trace = run(problem, cfg, eps=TINY, max_iter=10**4,
                    init=(problem.X.project(np.ones(problem.dim_x)),
                          problem.Y.project(np.ones(problem.dim_y))))
        rep = lemma_monitor(trace)
        e = rep.entry("potential_decrease")
        assert e.passed and (e.n_checked == 0 or e.k_start == 9), f"{problem.name}: {e}"
        br = rep.entry("gap_bridge")
        assert br.passed and br.k_start == 1 and br.k_end == len(trace)
        worst = max(worst, e.max_violation, br.max_violation)
        _pool_add("nc_c-monitor", problem, cfg, trace, (1e-1, 1e-2))
    for problem in cnc:
        if problem.constants.L_x > 0 and problem.constants.L_21 > 0:
            cfg = auto_configure(problem.constants, Regime.C_NC)
        else:
            cfg = CNcConfig(nu_bar=0.5, zeta_bar=1.0, tau=3.0)
        trace = run(problem, cfg, eps=TINY, max_iter=10**4,
                    init=(problem.X.project(np.ones(problem.dim_x)),
                          problem.Y.project(np.ones(problem.dim_y))))
        rep = lemma_monitor(trace)
        e = rep.entry("potential_increase")
        assert e.passed and (e.n_checked == 0 or e.k_start == 9), f"{problem.name}: {e}"
        br = rep.entry("gap_bridge")
        assert br.passed and br.k_start == 1 and br.k_end == len(trace)
        worst = max(worst, e.max_violation, br.max_violation)
        _pool_add("c_nc-monitor", problem, cfg, trace, (1e-1, 1e-2))
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"NC-C/C-NC monitor suite took {elapsed:.1f}s"
    report(5, f"NC-C/C-NC potential inequalities (k >= 9 gate) + bridges on "
              f"{len(ncc)}+{len(cnc)} instances, worst rel violation {worst:.2e} "
              f"({elapsed:.1f}s)")


def test_criterion_06_saddle_accuracy():
    t0 = time.time()
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(5):
        nx = int(rng.integers(1, 6))
        ny = int(rng.integers(1, 6))
        MA = rng.standard_normal((nx, nx))
        A = MA @ MA.T / nx + 0.8 * np.eye(nx)
        MC = rng.standard_normal((ny, ny))
        C = MC @ MC.T / ny + 0.8 * np.eye(ny)
        B = 0.3 * rng.standard_normal((nx, ny)) / math.sqrt(max(nx, ny))
        a = 0.4 * rng.standard_normal(nx)
        c_lin = 0.4 * rng.standard_normal(ny)
        problem = make_quadratic(A, B, C, a, c_lin)
        xstar, ystar = saddle_oracle_quadratic(A, B, C, a, c_lin)
        cfg = auto_configure(problem.constants, Regime.NC_SC)
        trace = run(problem, cfg, eps=1e-6, max_iter=300000)
        assert trace.reason == "gap_le_eps", problem.name
        assert np.linalg.norm(trace.x - xstar) <= 1e-5
        assert np.linalg.norm(trace.y - ystar) <= 1e-5
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"saddle suite took {elapsed:.1f}s"
    report(6, f"{checked} unconstrained strongly-monotone quadratics reached "
              f"gap <= 1e-6 within 1e-5 of the linear-system saddle ({elapsed:.1f}s)")


def test_criterion_07_rate_slopes():
    t0 = time.time()
    slopes = {}

    # (a) weak-coupling-dominated quadratics, descent-side regimes
    p = make_quadratic([[-0.1]], [[1.0]], [[1.0]], a=[0.3], c_lin=[0.2],
                       X=Box([-1], [1]), Y=Box([-1], [1]))
    cfg = auto_configure(p.constants, Regime.NC_SC)
    res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-3, 1e-4], max_iter=2 * 10**6)
    assert not res.partial, res.table
    slopes["nc_sc"] = res.slope
    _pool_add("rate-nc_sc", p, cfg, run(p, cfg, eps=1e-4, max_iter=2 * 10**6),
              (1e-1, 1e-2, 1e-3, 1e-4))

    p = make_quadratic([[0.3]], [[1.0]], [[-0.5]], a=[0.2], c_lin=[0.3],
                       X=Box([-1], [1]), Y=Box([-1], [1]))
    cfg = auto_configure(p.constants, Regime.SC_NC)
    res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-3, 1e-4], max_iter=2 * 10**6)
    assert not res.partial, res.table
    slopes["sc_nc"] = res.slope
    _pool_add("rate-sc_nc", p, cfg, run(p, cfg, eps=1e-4, max_iter=2 * 10**6),
              (1e-1, 1e-2, 1e-3, 1e-4))

    assert slopes["nc_sc"] <= 2.5
    assert slopes["sc_nc"] <= 2.5

    # (b) constrained bilinear, general regimes
    p = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
    one = (np.array([1.0]), np.array([1.0]))
    cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
    res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-3], max_iter=2 * 10**6, init=one)
    assert not res.partial, res.table
    slopes["nc_c"] = res.slope
    _pool_add("rate-nc_c", p, cfg,
              run(p, cfg, eps=1e-3, max_iter=2 * 10**6, init=one), (1e-1, 1e-2, 1e-3))

    cfg = CNcConfig(nu_bar=0.5, zeta_bar=1.0, tau=3.0)
    res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-3], max_iter=2 * 10**6, init=one)
    assert not res.partial, res.table
    slopes["c_nc"] = res.slope
    _pool_add("rate-c_nc", p, cfg,
              run(p, cfg, eps=1e-3, max_iter=2 * 10**6, init=one), (1e-1, 1e-2, 1e-3))

    assert slopes["nc_c"] <= 4.5
    assert slopes["c_nc"] <= 4.5
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"rate experiments took {elapsed:.1f}s"
    report(7, "log T vs log(1/eps) slopes: "
              + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
              + f" (caps 2.5/4.5; {elapsed:.1f}s)")


def test_criterion_08_theory_bounds_dominate():
    t0 = time.time()
    assert _BOUND_POOL, "earlier criteria must populate the run pool"
    ratios = []
    checked = 0
    tc_cache = {}
    for tag, problem, cfg, trace, eps, t_obs in _BOUND_POOL:
        if problem.name.startswith("robust_svm"):
            continue  # constants are conservative bounds, not exact
        key = (id(problem), id(cfg), id(trace))
        if key not in tc_cache:
            tc_cache[key] = theory_constants(trace)
        bound = compute_bound(tc_cache[key], eps)
        assert bound >= t_obs, (tag, problem.name, eps, bound, t_obs)
        ratios.append(bound / t_obs)
        checked += 1
    elapsed = time.time() - t0
    report(8, f"bound >= observed T(eps) on {checked} converged runs; "
              f"ratio range [{min(ratios):.1e}, {max(ratios):.1e}] ({elapsed:.1f}s)")


def test_criterion_09_gda_contrast():
    t0 = time.time()
    # simultaneous steps on the unconstrained bilinear game spiral outward
    free, it = record_iterates(make_bilinear([[1.0]]))
    tr = run_gda(free, 0.1, 0.1, eps=1e-15, max_iter=201,
                 init=(np.array([1.0]), np.array([0.0])))
    xs, ys = it.xs, it.ys
    n0 = math.hypot(np.linalg.norm(xs[0]), np.linalg.norm(ys[0]))
    n200 = math.hypot(np.linalg.norm(xs[200]), np.linalg.norm(ys[200]))
    assert tr.k[-1] == 201
    assert n200 > n0

    # the alternating solver on the box-constrained version converges,
    # within its theoretical iteration bound
    boxed = make_bilinear([[1.0]], X=Box([-1], [1]), Y=Box([-1], [1]))
    cfg = NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)
    trace = run(boxed, cfg, eps=1e-3, max_iter=10**6,
                init=(np.array([1.0]), np.array([1.0])))
    assert trace.reason == "gap_le_eps"
    tc = theory_constants(trace)
    bound = compute_bound(tc, 1e-3)
    assert trace.T_eps <= bound
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"contrast took {elapsed:.1f}s"
    report(9, f"GDA norm {n0:.1f} -> {n200:.2f} after 200 steps (diverges); "
              f"alternating solver hit gap 1e-3 at T={trace.T_eps} <= bound "
              f"{bound:.1e} ({elapsed:.1f}s)")


def test_criterion_10_determinism_and_io(tmp_path):
    t0 = time.time()
    suite = """eps = 1e-3
max_iter = 5000

problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)

problem = bilinear(dim=1)
regime = nc_c(rho_bar=1, eta_bar=0.5, tau=3)
x0 = [1]
y0 = [1]

problem = quadratic(seed=3, nx=2, ny=2, regime=sc_nc)
"""
    dirs = [tmp_path / n for n in ("a", "b", "c")]
    run_suite(parse_config(suite), parallelism=1, out_dir=dirs[0])
    run_suite(parse_config(suite), parallelism=4, out_dir=dirs[1])
    run_suite(parse_config(suite), parallelism=1, out_dir=dirs[2])
    for i in range(3):
        blobs = [(d / f"run{i:03d}.csv").read_bytes() for d in dirs]
        assert blobs[0] == blobs[1] == blobs[2]

    # round trip at 17 significant digits is lossless
    p = random_quadratic(7, 2, 2, Regime.NC_SC)
    cfg = auto_configure(p.constants, Regime.NC_SC)
    tr = run(p, cfg, eps=1e-8, max_iter=400)
    path = tmp_path / "rt.csv"
    write_trace_csv(tr, path)
    cols = read_trace_csv(path)
    for name, arr in (("f", tr.f), ("gap_norm", tr.gap_norm), ("beta", tr.beta),
                      ("potential", tr.potential)):
        mask = np.isnan(arr)
        np.testing.assert_array_equal(cols[name][~mask], arr[~mask])
        np.testing.assert_array_equal(np.isnan(cols[name]), mask)
    elapsed = time.time() - t0
    report(10, f"byte-identical CSVs across re-runs and parallelism 1/4; "
               f"17-digit round trip lossless ({elapsed:.1f}s)")
