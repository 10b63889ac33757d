import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agp.bench import (ConfigError, main, parse_config, rate_experiment,
                       read_trace_csv, run_suite, write_trace_csv)
from agp.objective import Regime, make_bilinear, random_quadratic
from agp.schedules import NcCConfig, NcScConfig, auto_configure
from agp.solver import run


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

    def test_regime_config_round_trip(self):
        from agp.schedules import CNcConfig, ScNcConfig
        for cfg in (NcScConfig(eta=16.4125, rho=0.25),
                    NcCConfig(eta_bar=0.5, rho_bar=1.0, tau=3.0),
                    ScNcConfig(zeta=0.25, nu=3.0),
                    CNcConfig(nu_bar=0.5, zeta_bar=1.0, tau=3.0)):
            text = ("problem = quadratic(seed=1, nx=2, ny=2, regime=nc_sc)\n"
                    f"regime = {cfg.descriptor()}\n")
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

    def test_summary_byte_identical_across_parallelism(self, tmp_path):
        def outputs(parallelism):
            d = tmp_path / f"p{parallelism}"
            run_suite(parse_config(SUITE), parallelism=parallelism, out_dir=d,
                      config_echo=SUITE)
            payload = json.loads((d / "summary.json").read_text())
            for r in payload["runs"]:
                del r["wall_time_s"]
            csvs = {f.name: f.read_bytes() for f in sorted(d.glob("*.csv"))}
            return json.dumps(payload, indent=2), csvs

        serial = outputs(1)
        assert len(serial[1]) == 3
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

    def test_missing_file_exit_4(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.cfg")]) == 4

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

    def test_eps_and_max_iter_overrides(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n")
        out = tmp_path / "out"
        code = main(["solve", str(cfg), "--out-dir", str(out),
                     "--eps", "1e-12", "--max-iter", "3"])
        assert code == 2

    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem = quadratic(seed=7, nx=1, ny=1, regime=nc_sc)\n"
                       "eps = 1e-3\nmax_iter = 10000\n")
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from agp.bench import main; sys.exit(main(sys.argv[1:]))",
                               "solve", str(cfg), "--out-dir", str(tmp_path / "o")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
