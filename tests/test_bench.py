import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agp.bench import (ConfigError, RunSpec, main, parse_config, rate_experiment,
                       run_suite, write_trace_csv)
from agp.geometry import Box
from agp.objective import Regime, make_bilinear, make_quadratic, random_quadratic
from agp.schedules import NcCConfig, NcScConfig, auto_configure
from agp.solver import run

from reference import read_trace_csv


BASIC = """problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)
solver = agp
eps = 1e-4
"""


class TestParseConfig:
    def test_single_spec(self):
        specs = parse_config(BASIC)
        assert len(specs) == 1
        s = specs[0]
        assert s.solver == "agp"
        assert s.eps == 1e-4
        assert s.max_iter == 10**6
        assert s.init == "project-origin"
        assert s.regime_cfg.regime is Regime.NC_SC

    def test_empty_file(self):
        assert parse_config("") == []
        assert parse_config("# only comments\n\n") == []

    def test_negative_eps_with_line_number(self):
        text = "problem = quadratic(seed=1, nx=1, ny=1, regime=nc_sc)\nsolver = agp\neps = -1\n"
        with pytest.raises(ConfigError, match=r"eps must be positive \(line 3\)"):
            parse_config(text)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=r"unknown key 'foo' \(line 2\)"):
            parse_config("problem = bilinear(dim=1)\nfoo = 1\n")

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            parse_config("problem = mystery(dim=1)\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match=r"\(line 1\)"):
            parse_config("this is not a key value pair\n")

    def test_defaults_block_before_first_problem(self):
        text = "eps = 1e-2\nmax_iter = 50\n" + BASIC.replace("eps = 1e-4\n", "")
        s = parse_config(text)[0]
        assert s.eps == 1e-2
        assert s.max_iter == 50

    def test_explicit_regime_constants(self):
        text = ("problem = bilinear(dim=1)\n"
                "regime = nc_c(rho_bar=1, eta_bar=0.5, tau=3)\n")
        s = parse_config(text)[0]
        assert isinstance(s.regime_cfg, NcCConfig)
        assert s.regime_cfg.rho_bar == 1.0

    def test_degenerate_auto_regime_hints(self):
        with pytest.raises(ConfigError, match="explicit"):
            parse_config("problem = bilinear(dim=1)\nregime = nc_c\n")

    def test_gda_steps(self):
        text = "problem = bilinear(dim=1)\nsolver = gda\nstep_x = 0.2\nstep_y = 0.3\n"
        s = parse_config(text)[0]
        assert s.step_x == 0.2 and s.step_y == 0.3
        assert s.regime_cfg is None

    def test_set_overrides(self):
        text = ("problem = bilinear(dim=2)\n"
                "X = box(lower=[-2, -2], upper=[2, 2])\n"
                "regime = nc_c(rho_bar=1, eta_bar=0.5, tau=3)\n")
        s = parse_config(text)[0]
        assert s.problem.X.diameter() == pytest.approx(math.sqrt(32))

    def test_x0_y0(self):
        text = "problem = bilinear(dim=1)\nsolver = gda\nx0 = [1]\ny0 = [0]\n"
        s = parse_config(text)[0]
        np.testing.assert_array_equal(s.init[0], [1.0])

    @pytest.mark.parametrize("tau, block, expected", [
        ("4", "quadratic(seed=11, nx=2, ny=2, regime=nc_c)\n", 4.0),
        ("4", "quadratic(seed=13, nx=2, ny=2, regime=c_nc)\n", 4.0),
        ("4", "bilinear(dim=1)\nregime = nc_c(rho_bar=1, eta_bar=0.5)\n", 4.0),
        ("4", "bilinear(dim=1)\nregime = nc_c(rho_bar=1, eta_bar=0.5, tau=5)\n", 5.0),
        ("4", "quadratic(seed=7, nx=2, ny=2, regime=nc_sc)\n", None),
        ("2", "quadratic(seed=11, nx=2, ny=2, regime=nc_c)\n", ConfigError),
    ], ids=["nc_c", "c_nc", "explicit", "explicit-tau", "nc_sc", "not-above-2"])
    def test_tau_key(self, tau, block, expected):
        # the tau of an nc_c / c_nc regime that sets none; other regimes ignore it
        text = f"tau = {tau}\nproblem = {block}"
        if expected is ConfigError:
            with pytest.raises(ConfigError, match=r"^tau must be > 2 \(line 1\)$"):
                parse_config(text)
            return
        cfg = parse_config(text)[0].regime_cfg
        base = parse_config(f"problem = {block}")[0].regime_cfg
        assert cfg == (base if expected is None else dataclasses.replace(base, tau=expected))
        assert getattr(cfg, "tau", None) == expected

    def test_regime_config_round_trip(self):
        from agp.schedules import CNcConfig, ScNcConfig
        for call, cfg in (("nc_sc(eta=16.4125, rho=0.25)", NcScConfig(eta=16.4125, rho=0.25)),
                          ("nc_c(eta_bar=0.5, rho_bar=1, tau=3)",
                           NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0)),
                          ("sc_nc(zeta=0.25, nu=3)", ScNcConfig(zeta=0.25, nu=3.0)),
                          ("c_nc(nu_bar=0.5, zeta_bar=1, tau=3)",
                           CNcConfig(nu_bar=0.5, zeta_bar=1.0, tau=3.0))):
            text = ("problem = quadratic(seed=1, nx=2, ny=2, regime=nc_sc)\n"
                    f"regime = {call}\n")
            parsed = parse_config(text)[0].regime_cfg
            assert parsed == cfg


class TestCsvRoundTrip:
    def test_lossless_17_digits(self, tmp_path):
        p = random_quadratic(7, 2, 2, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-8, max_iter=300)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        cols = read_trace_csv(path)
        np.testing.assert_array_equal(cols["k"], tr.k)
        for name, arr in (("f", tr.f), ("gap_norm", tr.gap_norm),
                          ("reg_gap_norm", tr.reg_gap_norm), ("beta", tr.beta),
                          ("gamma", tr.gamma), ("b", tr.b), ("c", tr.c),
                          ("dx_norm", tr.dx_norm), ("dy_norm", tr.dy_norm),
                          ("potential", tr.potential),
                          ("monitor_slack", tr.monitor_slack)):
            got = cols[name]
            mask = np.isnan(arr)
            np.testing.assert_array_equal(mask, np.isnan(got), err_msg=name)
            np.testing.assert_array_equal(got[~mask], arr[~mask], err_msg=name)

    def test_column_order_fixed(self, tmp_path):
        p = random_quadratic(7, 1, 1, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        tr = run(p, cfg, eps=1e-4, max_iter=50)
        path = tmp_path / "t.csv"
        write_trace_csv(tr, path)
        header = path.read_text().splitlines()[0]
        assert header == ("k,f,gap_norm,reg_gap_norm,beta,gamma,b,c,"
                          "dx_norm,dy_norm,potential,monitor_slack")


SUITE = """eps = 1e-3
max_iter = 5000

problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)

problem = bilinear(dim=1)
regime = nc_c(rho_bar=1, eta_bar=0.5, tau=3)
x0 = [1]
y0 = [1]

problem = bilinear(dim=1)
solver = gda
x0 = [1]
y0 = [0]
max_iter = 10
"""


def _bound_error_without_grid_scan(tmp_path, text):
    """The ``bound_error`` of the one run of ``text``, which must have left
    its bound ``None`` without an error and without an oracle call beyond
    those of the solver run itself."""
    spec = parse_config(text + "max_iter = 50\n")[0]
    calls = {"value": 0, "rows": 0, "grad_x": 0, "grad_y": 0}

    def counted(name, fn, size=lambda *args: 1):
        def call(*args):
            calls[name] += size(*args)
            return fn(*args)
        return call

    p = spec.problem
    spec.problem = dataclasses.replace(
        p, value=counted("value", p.value), grad_x=counted("grad_x", p.grad_x),
        grad_y=counted("grad_y", p.grad_y),
        grad_y_rows=counted("grad_y", p.grad_y_rows, lambda X, Y: len(X)),
        value_rows=counted("rows", p.value_rows, lambda X, Y: len(X)))
    run(spec.problem, spec.regime_cfg, spec.eps, spec.max_iter, spec.init)
    solver_calls = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    rec = run_suite([spec], out_dir=tmp_path)[0]
    assert calls == solver_calls and calls["grad_x"] > 0
    assert rec.error is None and rec.bound is None
    return rec.bound_error


class TestRunSuite:
    def test_records_and_files(self, tmp_path):
        specs = parse_config(SUITE)
        recs = run_suite(specs, parallelism=1, out_dir=tmp_path, config_echo=SUITE)
        assert [r.run_id for r in recs] == [0, 1, 2]
        assert recs[0].reason == "gap_le_eps"
        assert recs[0].monitor_pass is True
        assert recs[2].reason == "max_iter"
        assert (tmp_path / "summary.json").exists()
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["config"] == SUITE
        assert len(payload["runs"]) == 3

    def test_parallelism_byte_identical(self, tmp_path):
        specs1 = parse_config(SUITE)
        specs4 = parse_config(SUITE)
        d1 = tmp_path / "p1"
        d4 = tmp_path / "p4"
        run_suite(specs1, parallelism=1, out_dir=d1)
        run_suite(specs4, parallelism=4, out_dir=d4)
        for i in range(3):
            a = (d1 / f"run{i:03d}.csv").read_bytes()
            b = (d4 / f"run{i:03d}.csv").read_bytes()
            assert a == b

    def test_rerun_byte_identical(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        run_suite(parse_config(SUITE), parallelism=2, out_dir=d1)
        run_suite(parse_config(SUITE), parallelism=2, out_dir=d2)
        for i in range(3):
            assert (d1 / f"run{i:03d}.csv").read_bytes() == (d2 / f"run{i:03d}.csv").read_bytes()

    def test_max_iter_one(self, tmp_path):
        text = "problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\nmax_iter = 1\neps = 1e-12\n"
        recs = run_suite(parse_config(text), out_dir=tmp_path)
        assert recs[0].reason == "max_iter"
        assert recs[0].iterations == 1

    def test_per_run_failure_captured(self, tmp_path, parallelism=1):
        specs = parse_config(SUITE)
        specs[0].regime_cfg = NcScConfig(eta=-1.0, rho=0.25)  # breaks the run
        recs = run_suite(specs, parallelism=parallelism, out_dir=tmp_path)
        assert recs[0].error is not None
        assert recs[1].reason == "gap_le_eps"  # suite continued

    def test_monitor_and_bound_errors_stay_in_their_run(self, tmp_path, monkeypatch,
                                                        parallelism=1):
        import agp.bench as bench

        def monitor(trace, problem, cfg):
            raise RuntimeError("monitor broke")

        def bound(tc, eps):
            raise MemoryError("bound broke")

        monkeypatch.setattr(bench, "lemma_monitor", monitor)
        monkeypatch.setattr(bench, "compute_bound", bound)
        specs = parse_config(SUITE)[:2]
        recs = run_suite(specs, parallelism=parallelism, out_dir=tmp_path)
        for r in recs:
            assert r.reason == "gap_le_eps"
            assert r.monitor_pass is None and r.bound is None
            assert r.error == ("lemma_monitor: RuntimeError: monitor broke; "
                               "bound: MemoryError: bound broke")
            assert (tmp_path / f"run{r.run_id:03d}.csv").exists()
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert [r["error"] for r in payload["runs"]] == [r.error for r in recs]
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(SUITE)
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out"),
                     "--parallelism", str(parallelism)]) == 5

    # forked workers inherit the specs as built and the monkeypatches
    def test_per_run_failure_captured_in_workers(self, tmp_path):
        self.test_per_run_failure_captured(tmp_path, parallelism=2)

    def test_monitor_and_bound_errors_stay_in_their_run_in_workers(self, tmp_path,
                                                                   monkeypatch):
        self.test_monitor_and_bound_errors_stay_in_their_run(tmp_path, monkeypatch,
                                                             parallelism=2)

    @pytest.mark.parametrize("command, files", [
        ("solve", ["run000.csv", "run001.csv", "run002.csv", "summary.json"]),
        ("rate", ["rate.json"]), ("check", []),
        ("compare", ["run000_agp.csv", "run000_gda.csv", "run001_agp.csv",
                     "run001_gda.csv", "run002_gda.csv"])],
        ids=["solve", "rate", "check", "compare"])
    def test_outputs_byte_identical_across_parallelism(self, tmp_path, capsys, command,
                                                       files):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(SUITE)

        def outputs(parallelism):
            d = tmp_path / f"p{parallelism}"
            main([command, str(cfg), "--out-dir", str(d), "--parallelism", str(parallelism)])
            out = {f.name: f.read_bytes() for f in sorted(d.glob("*"))}
            if command == "solve":
                payload = json.loads(out["summary.json"])
                assert payload["config"] == SUITE
                for r in payload["runs"]:
                    del r["wall_time_s"]
                out["summary.json"] = json.dumps(payload, indent=2)
            return capsys.readouterr().out, out

        serial = outputs(1)
        assert serial[0].count("\n") >= 2 and sorted(serial[1]) == files
        assert outputs(2) == serial
        assert outputs(4) == serial

    @pytest.mark.parametrize("parallelism, methods, in_parent", [
        (1, None, True), (2, None, False), (2, ["spawn"], True)],
        ids=["serial", "forked", "no-fork"])
    def test_workers_write_the_csvs(self, tmp_path, monkeypatch, parallelism, methods,
                                    in_parent):
        import multiprocessing
        import os

        import agp.bench as bench

        def write_pid(trace, path):
            Path(path).write_text(str(os.getpid()))

        monkeypatch.setattr(bench, "write_trace_csv", write_pid)
        if methods is not None:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        run_suite(parse_config(SUITE), parallelism=parallelism, out_dir=tmp_path)
        pids = {int((tmp_path / f"run{i:03d}.csv").read_text()) for i in range(3)}
        if in_parent:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids

    def test_worker_error_propagates(self, tmp_path, monkeypatch):
        import agp.bench as bench

        def unwritable(trace, path):
            raise OSError(f"cannot write {Path(path).name}")

        monkeypatch.setattr(bench, "write_trace_csv", unwritable)
        with pytest.raises(OSError, match="cannot write run00"):
            run_suite(parse_config(SUITE), parallelism=2, out_dir=tmp_path)

    @pytest.mark.parametrize("n_specs, csvs", [(3, 3), (1, 1), (0, 0)],
                             ids=["more-workers-than-runs", "single-run", "no-runs"])
    def test_parallelism_above_run_count(self, tmp_path, n_specs, csvs):
        specs = parse_config(SUITE)[:n_specs]
        recs = run_suite(specs, parallelism=8, out_dir=tmp_path)
        assert [r.run_id for r in recs] == list(range(n_specs))
        assert len(list(tmp_path.glob("*.csv"))) == csvs
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert len(payload["runs"]) == n_specs

    def test_bound_error_says_why_bound_is_null(self, tmp_path):
        text = ("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                "Y = free(dim=1)\neps = 1e-4\n")
        rec = run_suite(parse_config(text + BASIC), out_dir=tmp_path)[0]
        assert rec.error is None and rec.bound is None
        assert rec.bound_error == ("ValueError: complexity bounds require compact "
                                   "feasible sets")
        runs = json.loads((tmp_path / "summary.json").read_text())["runs"]
        assert runs[0]["bound_error"] == rec.bound_error
        assert runs[1]["bound"] is not None and runs[1]["bound_error"] is None

    @pytest.mark.parametrize("text, ratio", [
        ("problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)\n"
         "regime = nc_sc(eta=1, rho=1)\n", "d1: the configuration violates the descent"),
        ("problem = quadratic(seed=3, nx=2, ny=2, regime=sc_nc)\n"
         "regime = sc_nc(zeta=1, nu=1)\n", "dhat1: the configuration violates the ascent")],
        ids=["nc_sc", "sc_nc"])
    def test_nonpositive_ratio_skips_the_grid_scan(self, tmp_path, text, ratio):
        assert _bound_error_without_grid_scan(tmp_path, text) == (
            f"InfeasibleConfigError: nonpositive per-iteration ratio {ratio} conditions")

    @pytest.mark.parametrize("text, condition", [
        ("problem = quadratic(seed=11, nx=2, ny=2, regime=nc_c)\n"
         "regime = nc_c(rho_bar=5, eta_bar=0.5)\n", "nc_c bound needs rho~ <= 2/(L_y' + c_1)"),
        ("problem = quadratic(seed=13, nx=2, ny=2, regime=c_nc)\n"
         "regime = c_nc(zeta_bar=5, nu_bar=0.5)\n", "c_nc bound needs zeta~ <= 2/(L_x' + q_1)")],
        ids=["nc_c", "c_nc"])
    def test_failed_condition_skips_the_grid_scan(self, tmp_path, text, condition):
        # both bounds read about 1e22 to 1e24 when the conditions were not checked
        assert _bound_error_without_grid_scan(tmp_path, text) == (
            f"InfeasibleConfigError: the {condition}, which fails: 5 <= 1.17647")

    @pytest.mark.parametrize("everywhere", [True, False], ids=["everywhere", "at-start"])
    def test_nan_value_gives_no_bound(self, tmp_path, everywhere):
        # f is NaN on every pair, or only at the start point (0, 0): either
        # way the trace's f column holds a NaN at iteration 1, a numeric
        # failure of the run, so neither monitors nor a bound score it
        spec = parse_config("problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)\n"
                            "max_iter = 200\n")[0]
        rows = spec.problem.value_rows

        def nan_rows(X, Y):
            at = np.full(len(X), True) if everywhere else ~(X.any(axis=1) | Y.any(axis=1))
            return np.where(at, np.nan, rows(X, Y))

        spec.problem = dataclasses.replace(
            spec.problem, value_rows=nan_rows,
            value=lambda x, y: float(nan_rows(x[None], y[None])[0]))
        rec = run_suite([spec], out_dir=tmp_path)[0]
        error = "NumericFailureError: non-finite value f(x_k, y_k) at iteration 1"
        assert rec.error == error and rec.monitor_pass is None
        assert rec.bound is None and rec.bound_ratio is None and rec.bound_error is None

        def no_bare_constant(name):
            raise AssertionError(f"summary.json holds a bare {name}")

        runs = json.loads((tmp_path / "summary.json").read_text(),
                          parse_constant=no_bare_constant)["runs"]
        assert runs[0]["error"] == error and runs[0]["bound"] is None

    def test_eight_dimensional_run_gets_a_bound(self, tmp_path):
        # 4 + 4 dimensions: past the size of any grid scan a desk can afford
        text = ("problem = quadratic(seed=7, nx=4, ny=4, regime=nc_sc)\n"
                "eps = 1e-3\nmax_iter = 5000\n")
        rec = run_suite(parse_config(text), out_dir=tmp_path)[0]
        assert rec.T_eps == 525 and rec.bound_error is None and rec.error is None
        assert math.isfinite(rec.bound) and rec.bound >= rec.T_eps

    def test_bound_ratio_at_least_one(self, tmp_path):
        recs = run_suite(parse_config(SUITE), out_dir=tmp_path)
        for r in recs:
            if r.bound_ratio is not None and r.monitor_pass:
                assert r.bound_ratio >= 1.0


class TestRateExperiment:
    def test_synthetic_injection_exact_slope(self):
        # injected T(eps) = eps^-2 power law through the public slope path
        from agp.verify import rate_slope
        grid = [1e-1, 1e-2, 1e-3]
        table = [(e, (1 / e) ** 2) for e in grid]
        assert rate_slope(table) == pytest.approx(2.0, abs=1e-12)

    def test_single_trajectory_table(self):
        p = random_quadratic(7, 1, 1, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-3], max_iter=100000)
        assert not res.partial
        ts = [t for _, t in res.table]
        assert all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))
        assert res.slope is not None

    def test_partial_flagged(self):
        p = random_quadratic(7, 1, 1, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        res = rate_experiment(p, cfg, [1e-1, 1e-2, 1e-9], max_iter=20)
        assert res.partial

    def test_grid_length_two_rejected(self):
        p = random_quadratic(7, 1, 1, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        with pytest.raises(ValueError):
            rate_experiment(p, cfg, [1e-1, 1e-2], max_iter=100)

    def test_grid_must_decrease(self):
        p = random_quadratic(7, 1, 1, Regime.NC_SC)
        cfg = auto_configure(p.constants, Regime.NC_SC)
        with pytest.raises(ValueError):
            rate_experiment(p, cfg, [1e-2, 1e-1, 1e-3], max_iter=100)


class TestCli:
    def test_solve_exit_codes(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps = 1e-3\nmax_iter = 10000\n")
        code = main(["solve", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 0

    def test_bound_below_one_is_null(self, tmp_path):
        # at eps = 1e9 the start point stops the run at T_eps = 1, where the
        # nc_sc formula reads 4.4e-12: no first hit comes before iteration 1
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)\n")
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--eps", "1e9", "--out-dir", str(out)]) == 0
        rec = json.loads((out / "summary.json").read_text())["runs"][0]
        assert rec["T_eps"] == 1 and rec["error"] is None
        assert rec["bound"] is None and rec["bound_ratio"] is None
        assert rec["bound_error"] == ("ArithmeticError: the nc_sc bound at eps = "
                                      "1000000000.0 is 4.404273493202485e-12, not a "
                                      "finite number >= 1")

    def test_solve_max_iter_exit_2(self, tmp_path):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps = 1e-12\nmax_iter = 5\n")
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2

    def test_solve_raised_run_exit_5(self, tmp_path):
        # the raised run comes first: a later max_iter run must not lower 5 to 2
        cfg = tmp_path / "raise.cfg"
        cfg.write_text("eps = 1e-12\nmax_iter = 5\n"
                       "problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "regime = nc_sc(eta=-1, rho=0.25)\n"
                       "problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n")
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out")]) == 5

    def test_config_error_exit_4(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = bilinear(dim=1)\nnope = 1\n")
        assert main(["solve", str(cfg)]) == 4

    @pytest.mark.parametrize("kind", ["absent", "directory", "non-utf8"])
    def test_missing_file_exit_4(self, tmp_path, capsys, kind):
        cfg = tmp_path / "bad.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "non-utf8":
            cfg.write_bytes(b"problem = bilinear(dim=1)\nlabel = \xff\n")
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 4
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["bilinear(dim=1)", "bilinear(dim=3)",
                                         "bilinear(nx=2, ny=3)"])
    def test_bilinear_without_regime_exit_4(self, tmp_path, capsys, problem):
        cfg = tmp_path / "bilinear.cfg"
        cfg.write_text(f"problem = {problem}\n")
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == ("config error: bilinear has no regime of its "
                                           "own; add a regime key (line 1)\n")
        # a GDA block needs no regime (the origin is the saddle point: T_eps = 1)
        cfg.write_text(f"problem = {problem}\nsolver = gda\n")
        assert main(["solve", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0

    def test_check_command(self, tmp_path):
        cfg = tmp_path / "chk.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)\n"
                       "max_iter = 500\n")
        assert main(["check", str(cfg)]) == 0

    def test_rate_command(self, tmp_path):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps_grid = [1e-1, 1e-2, 1e-3]\nmax_iter = 100000\n")
        assert main(["rate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "rate.json").exists()

    def test_compare_command(self, tmp_path):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps = 1e-3\nmax_iter = 20000\n")
        assert main(["compare", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "run000_agp.csv").exists()
        assert (tmp_path / "out" / "run000_gda.csv").exists()

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("command", ["rate", "check", "compare"])
    def test_raised_run_fails_alone_exit_5(self, tmp_path, capsys, command, parallelism):
        cfg = tmp_path / "raise.cfg"
        cfg.write_text("max_iter = 2000\n"
                       "problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "regime = nc_sc(eta=-1, rho=0.25)\n"
                       "problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n")
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out-dir", str(out),
                     "--parallelism", str(parallelism)]) == 5
        error = "InfeasibleConfigError: needs eta > 0 and 0 < rho < inf"
        label = "quadratic-seed-7-nx-1-ny-1-regime-nc_sc-agp"
        lines = capsys.readouterr().out.splitlines()
        assert f"[000] 000-{label}: {error}" in lines
        run1 = [line for line in lines if f"001-{label}" in line]
        assert run1 and error not in run1[0]
        if command == "rate":
            rows = json.loads((out / "rate.json").read_text())["experiments"]
            assert len(rows) == 2
            assert rows[0] == {"label": f"000-{label}", "error": error}
            assert rows[1]["label"] == f"001-{label}" and rows[1]["slope"] is not None
        elif command == "compare":
            names = sorted(f.name for f in out.iterdir())
            assert names == ["run001_agp.csv", "run001_gda.csv"]
        else:
            assert run1[0].endswith("gradients=ok conditions=ok monitors=ok")

    def test_check_reports_failed_conditions_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "premise.cfg"
        cfg.write_text("problem = quadratic(seed=11, nx=2, ny=2, regime=nc_c)\n"
                       "regime = nc_c(rho_bar=5, eta_bar=0.5)\nmax_iter = 200\n")
        assert main(["check", str(cfg)]) == 3
        out = capsys.readouterr().out
        assert "gradients=ok conditions=FAIL" in out
        assert "rho~ <= 2/(L_y' + c_1)" in out and "NO" in out

    def test_eps_and_max_iter_overrides(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n")
        out = tmp_path / "out"
        code = main(["solve", str(cfg), "--out-dir", str(out),
                     "--eps", "1e-12", "--max-iter", "3"])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--max-iter", "0"], ["--eps", "nan"],
                                       ["--eps", "-1"], ["--parallelism", "0"]],
                             ids=lambda f: " ".join(f))
    @pytest.mark.parametrize("command", ["solve", "rate", "check", "compare"])
    def test_bad_flag_override_exit_4(self, tmp_path, capsys, command, flags):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps_grid = [1e-1, 1e-2, 1e-3]\nmax_iter = 100\n")
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out-dir", str(out), *flags]) == 4
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, where", [
        ("regime = nc_c(rho_bar=1, eta_bar=0.5, tau=1)", "line 2"),
        ("regime = nc_c(rho_bar=0, eta_bar=0.5)", "line 2"),
        ("regime = nc_sc(eta=[1], rho=1)", "line 2"),
        ("regime = nc_sc(eta=2, rho=0.5, bogus=1)", "line 2"),
        ("regime = nc_sc(2, 0.5)", "line 2"),
        ("x0 = [a]\ny0 = [0]", "line 2"),
        ("eps_grid = [a, b, c]", "line 2"),
        ("eps_grid = [1e-1, 1e-2, [1]]", "line 2"),
        ("eps_grid = [1e-3, 1e-2, 1e-1]", "line 2"),
        ("eps_grid = [1e-1, 1e-2, 0]", "line 2"),
        ("solver = gda\nstep_x = nan", "line 3"),
        ("seed = 1.7", "line 2"),
        ("X = box(lower=[nan], upper=[1])", "line 2"),
        ("X = ball(center=[inf], radius=1)", "line 2"),
        ("X = ball(center=[0], radius=nan)", "line 2"),
        ("Y = simplex(dim=1, scale=inf)", "line 2"),
        ("Y = simplex(dim=1.5)", "line 2"),
        ("X = free(dim=1.9)", "line 2")])
    def test_bad_config_value_exit_4(self, tmp_path, capsys, lines, where):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       f"{lines}\nmax_iter = 100\n")
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and f"({where})" in err
        assert not out.exists()

    @pytest.mark.parametrize("problem", [
        "quadratic(seed=1.7, nx=2.9, ny=2, regime=nc_sc)",
        "bilinear(dim=1.9)",
        "svm(seed=1, m=2, n=6.5)",
        "sine(seed=0, nx=2, ny=2, mu=inf)"])
    def test_bad_problem_argument_exit_4(self, tmp_path, capsys, problem):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"max_iter = 100\nproblem = {problem}\n")
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and "bad problem" in err and "(line 2)" in err
        assert not out.exists()

    def test_integral_problem_arguments_accepted(self):
        whole, = parse_config("problem = quadratic(seed=1.0, nx=2.0, ny=2, regime=nc_sc)")
        exact, = parse_config("problem = quadratic(seed=1, nx=2, ny=2, regime=nc_sc)")
        assert whole.problem.constants == exact.problem.constants

    @pytest.mark.parametrize("flags", [["--eps", "-1"], ["--eps", "inf"],
                                       ["--max-iter", "0"], ["--seed", "-1"]],
                             ids=lambda f: " ".join(f))
    def test_bad_flag_without_runs_exit_4(self, tmp_path, capsys, flags):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# no runs\neps = 1e-3\n")
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out), *flags]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and f"(flag {flags[0]})" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "seed = 3\nproblem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n",
        "problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\nseed = 3\n"],
        ids=["defaults", "block"])
    def test_seed_flag_overrides_seed_keys(self, tmp_path, text):
        def csv(name, text, *flags):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text + "max_iter = 200\n")
            main(["solve", str(cfg), "--out-dir", str(tmp_path / name), *flags])
            return (tmp_path / name / "run000.csv").read_bytes()

        seed5 = csv("seed5", "problem = quadratic(seed=5, nx=1, ny=1, regime=nc_sc)\n")
        assert csv("flag", text, "--seed", "5") == seed5
        assert csv("keys", text) != seed5

    def test_summary_records_the_effective_settings(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 3\neps = 1e-2\nmax_iter = 200\n\n"
                       "problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n\n"
                       "problem = bilinear(dim=1)\nsolver = gda\nmax_iter = 50\n")

        def runs(name, *flags):
            main(["solve", str(cfg), "--out-dir", str(tmp_path / name), *flags])
            return json.loads((tmp_path / name / "summary.json").read_text())["runs"]

        keys = ("seed", "eps", "max_iter", "floored_any")
        assert [tuple(r[k] for k in keys) for r in runs("keys")] == [
            (3, 1e-2, 200, False), (3, 1e-2, 50, False)]
        flagged = runs("flags", "--seed", "5", "--eps", "1e-4", "--max-iter", "300")
        assert [tuple(r[k] for k in keys) for r in flagged] == [(5, 1e-4, 300, False)] * 2
        # the CSV is that of the seed the record names
        seed5 = tmp_path / "seed5.cfg"
        seed5.write_text("problem = quadratic(seed=5, nx=1, ny=1, regime=nc_sc)\n"
                         "eps = 1e-4\nmax_iter = 300\n")
        main(["solve", str(seed5), "--out-dir", str(tmp_path / "seed5")])
        assert ((tmp_path / "flags" / "run000.csv").read_bytes()
                == (tmp_path / "seed5" / "run000.csv").read_bytes())

    def test_summary_records_a_floored_step(self, tmp_path):
        # decoupled and concave in y: the NC-C beta_k falls to the floor 1.01 L_x
        box = Box([-1.0], [1.0])
        spec = RunSpec(index=0, label="decoupled", problem_text="decoupled", max_iter=20,
                       problem=make_quadratic([[1.0]], [[0.0]], [[0.0]], X=box, Y=box),
                       regime_cfg=NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0))
        rec, = run_suite([spec], out_dir=tmp_path)
        assert rec.error is None and rec.floored_any is True
        assert json.loads((tmp_path / "summary.json").read_text())["runs"][0]["floored_any"]

    @pytest.mark.parametrize("regime, modulus", [("nc_sc(eta=2, rho=0.5)", "mu"),
                                                  ("sc_nc(zeta=0.5, nu=2)", "theta")],
                             ids=["nc_sc", "sc_nc"])
    def test_regime_without_its_modulus(self, tmp_path, capsys, regime, modulus):
        # bilinear has mu = theta = 0: the loop runs, but the NC-SC / SC-NC
        # potentials, monitors and bound do not apply to it
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"problem = bilinear(dim=1)\nregime = {regime}\n"
                       "x0 = [1]\ny0 = [1]\nmax_iter = 50\n")
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 2
        rec = json.loads((out / "summary.json").read_text())["runs"][0]
        assert rec["error"] is None and rec["monitor_pass"] is None
        assert rec["bound_error"] == (f"InfeasibleConfigError: the {regime[:5]} bound "
                                      f"needs {modulus} > 0")
        trace = read_trace_csv(out / "run000.csv")
        assert len(trace["k"]) == 50
        assert np.all(np.isnan(trace["potential"]))
        assert np.all(np.isnan(trace["monitor_slack"]))
        capsys.readouterr()
        assert main(["check", str(cfg)]) == 0
        assert f"monitors=n/a (the {regime[:5]} inequalities need {modulus} > 0)" \
            in capsys.readouterr().out

    def test_python_dash_m_agp(self, tmp_path, capsys):
        # exits and prints as the console entry point, ``agp.bench.main``
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps = 1e-12\nmax_iter = 50\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "agp",
                               "solve", str(cfg), "--out-dir", str(tmp_path / "o")],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True)
        want = main(["solve", str(cfg), "--out-dir", str(tmp_path / "p")])
        assert want == 2  # stopped at max_iter
        assert proc.returncode == want, proc.stderr
        assert proc.stdout == capsys.readouterr().out
        assert "RuntimeWarning" not in proc.stderr

    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps = 1e-3\nmax_iter = 10000\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from agp.bench import main; sys.exit(main(sys.argv[1:]))",
                               "solve", str(cfg), "--out-dir", str(tmp_path / "o")],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
