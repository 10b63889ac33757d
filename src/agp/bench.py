"""Benchmark harness: config parsing, suite execution, CSV/JSON output.

Config files are line-oriented ``key = value`` text.  A run block starts at
each ``problem = ...`` line; keys seen before the first block act as
defaults for every run.  ``#`` starts a comment.

    problem = quadratic(seed=7, nx=2, ny=2, regime=nc_sc)
    solver = agp
    eps = 1e-4

Problems: quadratic(seed, nx, ny, regime), bilinear(dim | nx, ny, seed),
sine(seed, nx, ny, mu), sine_dual(seed, nx, ny, theta), svm(seed, m, n).
``X = box(lower=[...], upper=[...])`` / ``Y = ...`` override feasible sets.
``regime`` is either a name (auto-configured constants) or an explicit
call like ``nc_c(rho_bar=1, eta_bar=0.5, tau=3)``.  GDA runs take
``step_x`` / ``step_y``.

CLI subcommands: solve, rate, check, compare.  Exit codes: 0 all runs
converged and monitors passed, 2 some run hit max_iter, 3 a monitor
failed, 4 config error, 5 some run raised an error in its solve, monitors
or bound (``solve``; it takes precedence over 3, which takes precedence
over 2).

``solve --parallelism N`` runs the suite in N forked worker processes; each
worker writes the CSV traces of its runs, and the parent writes
``summary.json`` in spec order, so no output byte apart from the wall times
depends on N.  A platform without the ``fork`` start method runs the suite
serially.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._expr import _CallValue, parse_value
from .geometry import Ball, Box, ConstraintSet, Product, build_set
from .objective import (MinimaxProblem, Regime, make_bilinear, make_nc_sc_sine,
                        make_robust_svm_toy, make_sc_nc_sine, random_quadratic)
from .schedules import (CNcConfig, NcCConfig, NcScConfig, RegimeConfig,
                        ScNcConfig, UnsupportedRegimeError, auto_configure)
from .solver import SolverTrace, run, run_gda
from .verify import (InvalidTraceError, compute_bound, lemma_monitor,
                     rate_slope, theory_constants)

__all__ = [
    "ConfigError",
    "RunSpec",
    "SummaryRecord",
    "RateResult",
    "parse_config",
    "run_suite",
    "rate_experiment",
    "write_trace_csv",
    "read_trace_csv",
    "main",
]

CSV_COLUMNS = ("k", "f", "gap_norm", "reg_gap_norm", "beta", "gamma", "b", "c",
               "dx_norm", "dy_norm", "potential", "monitor_slack")

DEFAULT_EPS = 1e-3
DEFAULT_MAX_ITER = 10**6
DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3)

_KNOWN_KEYS = {"problem", "solver", "regime", "eps", "max_iter", "seed", "tau",
               "step_x", "step_y", "init", "x0", "y0", "X", "Y", "eps_grid",
               "label"}

_REGIME_PRIORITY = (Regime.NC_SC, Regime.SC_NC, Regime.NC_C, Regime.C_NC)


class ConfigError(ValueError):
    pass


@dataclass
class RunSpec:
    index: int
    label: str
    problem: MinimaxProblem
    problem_text: str
    solver: str = "agp"
    regime_cfg: RegimeConfig | None = None
    step_x: float | None = None
    step_y: float | None = None
    eps: float = DEFAULT_EPS
    max_iter: int = DEFAULT_MAX_ITER
    init: object = "project-origin"
    eps_grid: tuple = DEFAULT_EPS_GRID


@dataclass
class SummaryRecord:
    run_id: int
    label: str
    solver: str
    regime: str | None
    problem: str
    reason: str | None
    T_eps: int | None
    final_gap: float | None
    iterations: int
    wall_time_s: float
    monitor_pass: bool | None
    bound: float | None
    bound_ratio: float | None
    error: str | None = None
    # why ``bound`` is None: the ValueError/ArithmeticError the bound code raised
    bound_error: str | None = None

    def to_dict(self):
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# config parsing


def _err(msg, lineno):
    raise ConfigError(f"{msg} (line {lineno})")


def _parse_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", line)
        if not m:
            _err(f"malformed line {raw.strip()!r}", lineno)
        yield lineno, m.group(1), m.group(2).strip()


def parse_config(text: str) -> list[RunSpec]:
    """Parse config text into run specs; unknown keys and bad values error
    with their line number."""
    defaults: dict = {}
    blocks: list[dict] = []
    current: dict | None = None
    for lineno, key, value in _parse_lines(text):
        if key not in _KNOWN_KEYS:
            _err(f"unknown key {key!r}", lineno)
        if key == "problem":
            current = {"problem": (value, lineno)}
            blocks.append(current)
            continue
        target = current if current is not None else defaults
        target[key] = (value, lineno)
    specs = []
    for i, block in enumerate(blocks):
        merged = {**defaults, **block}
        specs.append(_build_spec(i, merged))
    return specs


def _float_key(merged, key, default):
    if key not in merged:
        return default
    value, lineno = merged[key]
    try:
        out = float(parse_value(value))
    except (ValueError, TypeError):
        _err(f"invalid number for {key}: {value!r}", lineno)
    return out


def _build_spec(index: int, merged: dict) -> RunSpec:
    ptext, plineno = merged["problem"]
    seed_override = None
    if "seed" in merged:
        value, lineno = merged["seed"]
        try:
            seed_override = int(parse_value(value))
        except (ValueError, TypeError):
            _err(f"invalid seed {value!r}", lineno)

    tau = _float_key(merged, "tau", 3.0)
    if not tau > 2:
        _err(f"tau must be > 2, got {tau}", merged["tau"][1])

    X_override = Y_override = None
    for key in ("X", "Y"):
        if key in merged:
            value, lineno = merged[key]
            try:
                call = parse_value(value)
                s = build_set(call.name, call.args, call.kwargs) \
                    if isinstance(call, _CallValue) else None
            except (ValueError, KeyError) as e:
                _err(f"bad set for {key}: {e}", lineno)
            if s is None:
                _err(f"bad set for {key}: {value!r}", lineno)
            if key == "X":
                X_override = s
            else:
                Y_override = s

    try:
        problem, problem_regime = _build_problem(ptext, seed_override,
                                                 X_override, Y_override)
    except (ValueError, KeyError, TypeError) as e:
        _err(f"bad problem: {e}", plineno)

    solver = "agp"
    if "solver" in merged:
        value, lineno = merged["solver"]
        if value not in ("agp", "gda"):
            _err(f"solver must be agp or gda, got {value!r}", lineno)
        solver = value

    eps = _float_key(merged, "eps", DEFAULT_EPS)
    if not (eps > 0 and math.isfinite(eps)):
        _err("eps must be positive", merged["eps"][1] if "eps" in merged else plineno)

    max_iter = DEFAULT_MAX_ITER
    if "max_iter" in merged:
        value, lineno = merged["max_iter"]
        try:
            max_iter = int(float(parse_value(value)))
        except (ValueError, TypeError):
            _err(f"invalid max_iter {value!r}", lineno)
        if max_iter < 1:
            _err("max_iter must be >= 1", lineno)

    init = "project-origin"
    if "init" in merged:
        value, lineno = merged["init"]
        if value != "project-origin":
            _err(f"init must be project-origin (use x0/y0 for explicit starts)", lineno)
    if "x0" in merged or "y0" in merged:
        if not ("x0" in merged and "y0" in merged):
            lineno = merged.get("x0", merged.get("y0"))[1]
            _err("x0 and y0 must be given together", lineno)
        x0 = np.asarray(parse_value(merged["x0"][0]), dtype=float)
        y0 = np.asarray(parse_value(merged["y0"][0]), dtype=float)
        if x0.shape != (problem.dim_x,) or y0.shape != (problem.dim_y,):
            _err("x0/y0 dimensions do not match the problem", merged["x0"][1])
        init = (x0, y0)

    regime_cfg = None
    step_x = step_y = None
    if solver == "gda":
        step_x = _float_key(merged, "step_x", 0.1)
        step_y = _float_key(merged, "step_y", 0.1)
        if step_x <= 0 or step_y <= 0:
            _err("step sizes must be positive", merged.get("step_x", (None, plineno))[1])
    else:
        regime_cfg = _resolve_regime(merged, problem, problem_regime, tau, plineno)

    eps_grid = DEFAULT_EPS_GRID
    if "eps_grid" in merged:
        value, lineno = merged["eps_grid"]
        grid = parse_value(value)
        if not isinstance(grid, list) or len(grid) < 3:
            _err("eps_grid must be a list of at least 3 values", lineno)
        eps_grid = tuple(float(g) for g in grid)

    label = merged["label"][0] if "label" in merged else \
        f"{index:03d}-{_slug(problem.name)}-{solver}"
    return RunSpec(index=index, label=label, problem=problem, problem_text=ptext,
                   solver=solver, regime_cfg=regime_cfg, step_x=step_x, step_y=step_y,
                   eps=eps, max_iter=max_iter, init=init, eps_grid=eps_grid)


def _slug(name):
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "run"


def _resolve_regime(merged, problem, problem_regime, tau, plineno):
    if "regime" in merged:
        value, lineno = merged["regime"]
        parsed = parse_value(value)
        if isinstance(parsed, _CallValue):
            return _explicit_regime(parsed, tau, lineno)
        try:
            regime = Regime(parsed)
        except ValueError:
            _err(f"unknown regime {parsed!r}", lineno)
    elif problem_regime is not None:
        regime = problem_regime
        lineno = plineno
    else:
        tagged = [r for r in _REGIME_PRIORITY if r in problem.tags]
        if not tagged:
            _err("problem has no regime tag; add a regime key", plineno)
        regime, lineno = tagged[0], plineno
    try:
        cfg = auto_configure(problem.constants, regime)
    except UnsupportedRegimeError as e:
        _err(f"{e}; give explicit constants, e.g. regime = "
             f"{regime.value}(...)", lineno)
    if isinstance(cfg, (NcCConfig, CNcConfig)) and tau != cfg.tau:
        cfg = dataclasses.replace(cfg, tau=tau)
    return cfg


def _explicit_regime(call, tau, lineno):
    kw = dict(call.kwargs)
    kw.setdefault("tau", tau)
    try:
        if call.name == "nc_sc":
            return NcScConfig(eta=float(kw["eta"]), rho=float(kw["rho"]))
        if call.name == "nc_c":
            return NcCConfig(eta_bar=float(kw["eta_bar"]), rho_bar=float(kw["rho_bar"]),
                             tau=float(kw["tau"]))
        if call.name == "sc_nc":
            return ScNcConfig(zeta=float(kw["zeta"]), nu=float(kw["nu"]))
        if call.name == "c_nc":
            return CNcConfig(zeta_bar=float(kw["zeta_bar"]), nu_bar=float(kw["nu_bar"]),
                             tau=float(kw["tau"]))
    except KeyError as e:
        _err(f"regime {call.name} missing constant {e}", lineno)
    _err(f"unknown regime {call.name!r}", lineno)


def _default_boxes(nx, ny):
    return (Box(-np.ones(nx), np.ones(nx)), Box(-np.ones(ny), np.ones(ny)))


def _build_problem(text, seed_override, X_override, Y_override):
    call = parse_value(text)
    if not isinstance(call, _CallValue):
        raise ValueError(f"problem must be a call form, got {text!r}")
    kw = dict(call.kwargs)
    if seed_override is not None:
        kw["seed"] = seed_override
    name = call.name.lower()
    regime = None

    if name == "quadratic":
        regime = Regime(kw.get("regime", "nc_sc"))
        prob = random_quadratic(int(kw.get("seed", 0)), int(kw["nx"]), int(kw["ny"]),
                                regime)
        prob = _override_sets(prob, X_override, Y_override)
    elif name == "bilinear":
        if "dim" in kw:
            B = np.eye(int(kw["dim"]))
        else:
            rng = np.random.default_rng(int(kw.get("seed", 0)))
            B = rng.standard_normal((int(kw["nx"]), int(kw["ny"])))
        nx, ny = B.shape
        X, Y = _default_boxes(nx, ny)
        prob = make_bilinear(B, X=X_override or X, Y=Y_override or Y)
    elif name == "sine":
        nx, ny = int(kw["nx"]), int(kw["ny"])
        rng = np.random.default_rng(int(kw.get("seed", 0)))
        B = 0.5 * rng.standard_normal((nx, ny)) / math.sqrt(max(nx, ny))
        X, Y = _default_boxes(nx, ny)
        prob = make_nc_sc_sine(nx, ny, B, float(kw.get("mu", 1.0)),
                               X_override or X, Y_override or Y)
        regime = Regime.NC_SC
    elif name == "sine_dual":
        nx, ny = int(kw["nx"]), int(kw["ny"])
        rng = np.random.default_rng(int(kw.get("seed", 0)))
        B = 0.5 * rng.standard_normal((nx, ny)) / math.sqrt(max(nx, ny))
        X, Y = _default_boxes(nx, ny)
        prob = make_sc_nc_sine(nx, ny, B, float(kw.get("theta", 1.0)),
                               X_override or X, Y_override or Y)
        regime = Regime.SC_NC
    elif name == "svm":
        m = int(kw.get("m", 2))
        n = int(kw.get("n", 6))
        rng = np.random.default_rng(int(kw.get("seed", 0)))
        feats = rng.standard_normal((n, m))
        labels = np.where(feats[:, 0] + 0.1 * rng.standard_normal(n) >= 0, 1.0, -1.0)
        X = X_override or Ball(np.zeros(m + 1), 1.0)
        Y = Y_override or Product((Ball(np.zeros(m), 1.0), Box([-1.0], [1.0])))
        prob = make_robust_svm_toy(list(zip(feats, labels)), X, Y)
        regime = Regime.C_NC
    else:
        raise ValueError(f"unknown problem {name!r}")
    return prob, regime


def _override_sets(prob, X, Y):
    if X is None and Y is None:
        return prob
    return dataclasses.replace(prob, X=X or prob.X, Y=Y or prob.Y)


# ---------------------------------------------------------------------------
# CSV traces


_CSV_ROW = "%d" + ",%.17g" * (len(CSV_COLUMNS) - 1) + "\n"


def write_trace_csv(trace: SolverTrace, path) -> None:
    """One row per iteration, reals at 17 significant digits."""
    cols = [getattr(trace, name).tolist() for name in CSV_COLUMNS]
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(_CSV_ROW % row for row in zip(*cols))


def read_trace_csv(path) -> dict:
    """Inverse of write_trace_csv; returns column arrays keyed by name."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected trace header {header}")
    rows = [line.split(",") for line in text[1:]]
    out = {}
    for j, name in enumerate(CSV_COLUMNS):
        col = [r[j] for r in rows]
        out[name] = (np.array([int(v) for v in col], dtype=int) if name == "k"
                     else np.array([float(v) for v in col]))
    return out


# ---------------------------------------------------------------------------
# suite execution


def _grid_resolution(problem):
    d = max(problem.dim_x, problem.dim_y)
    return 101 if d <= 1 else 21 if d <= 2 else 9


def _execute(spec: RunSpec) -> tuple[SummaryRecord, SolverTrace | None]:
    t0 = time.perf_counter()
    rec = SummaryRecord(run_id=spec.index, label=spec.label, solver=spec.solver,
                        regime=spec.regime_cfg.regime.value if spec.regime_cfg else None,
                        problem=spec.problem_text, reason=None, T_eps=None,
                        final_gap=None, iterations=0, wall_time_s=0.0,
                        monitor_pass=None, bound=None, bound_ratio=None)
    try:
        if spec.solver == "agp":
            trace = run(spec.problem, spec.regime_cfg, spec.eps, spec.max_iter, spec.init)
        else:
            trace = run_gda(spec.problem, spec.step_x, spec.step_y, spec.eps,
                            spec.max_iter, spec.init)
    except Exception as e:  # per-run failure: capture, let the suite continue
        rec.error = f"{type(e).__name__}: {e}"
        rec.wall_time_s = time.perf_counter() - t0
        return rec, None
    rec.reason = trace.reason
    rec.T_eps = trace.T_eps
    rec.final_gap = trace.final_gap
    rec.iterations = trace.iterations
    if spec.solver == "agp":
        # a monitor or bound that raises fails this run only; its trace is kept
        errors = []
        try:
            rec.monitor_pass = lemma_monitor(trace, spec.problem, spec.regime_cfg).passed
        except InvalidTraceError:
            rec.monitor_pass = None
        except Exception as e:
            errors.append(f"lemma_monitor: {type(e).__name__}: {e}")
        try:
            tc = theory_constants(spec.problem, spec.regime_cfg, trace,
                                  resolution=_grid_resolution(spec.problem))
            rec.bound = compute_bound(tc, spec.eps)
            if trace.T_eps:
                rec.bound_ratio = rec.bound / trace.T_eps
        except (ValueError, ArithmeticError) as e:
            rec.bound = None
            rec.bound_error = f"{type(e).__name__}: {e}"
        except Exception as e:
            errors.append(f"bound: {type(e).__name__}: {e}")
        rec.error = "; ".join(errors) or None
    rec.wall_time_s = time.perf_counter() - t0
    return rec, trace


def _execute_and_write(spec: RunSpec, out: Path | None) -> SummaryRecord:
    rec, trace = _execute(spec)
    if out and trace is not None:
        write_trace_csv(trace, out / f"run{spec.index:03d}.csv")
    return rec


# (specs, out) of the suite a forked worker serves.  A MinimaxProblem holds
# closures and cannot be pickled, so the pool's initializer sets this in each
# worker from the arguments it inherits by fork, and only spec indices and
# summary records cross the pipes.
_WORKER_SUITE = None


def _adopt_suite(specs, out):
    global _WORKER_SUITE
    _WORKER_SUITE = (specs, out)


def _execute_forked(i: int) -> SummaryRecord:
    specs, out = _WORKER_SUITE
    return _execute_and_write(specs[i], out)


def _can_fork() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _run_forked(specs, out, workers) -> list[SummaryRecord]:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_suite, initargs=(specs, out)) as pool:
        return list(pool.map(_execute_forked, range(len(specs))))


def run_suite(specs: list[RunSpec], parallelism: int = 1, out_dir=None,
              config_echo: str = ""):
    """Run all specs; outputs are deterministic regardless of parallelism.

    ``parallelism`` is the number of forked worker processes.  Each run's
    worker writes its CSV trace; the records come back in spec order and
    the parent writes ``summary.json``, so the CSVs, and ``summary.json``
    apart from ``wall_time_s``, are byte-identical across settings.  With
    fewer than two runs or workers, or on a platform without the ``fork``
    start method, the runs go serially in this process.  An exception that
    escapes a run (say an ``OSError`` from a CSV write) propagates.
    """
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    workers = min(parallelism, len(specs))
    if workers > 1 and _can_fork():
        records = _run_forked(specs, out, workers)
    else:
        records = [_execute_and_write(s, out) for s in specs]
    if out:
        payload = {"config": config_echo, "runs": [r.to_dict() for r in records]}
        (out / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
    return records


# ---------------------------------------------------------------------------
# rate experiments


@dataclass
class RateResult:
    table: list  # (eps, T or None), eps descending
    slope: float | None
    partial: bool


def rate_experiment(problem, cfg, eps_grid, max_iter, init="project-origin") -> RateResult:
    """First-hit iteration counts along one long trajectory.

    T(eps) is a first-hit time of a single deterministic sequence, so one
    run at the smallest eps yields the whole table.
    """
    grid = [float(e) for e in eps_grid]
    if len(grid) < 3:
        raise ValueError("eps grid needs at least 3 values")
    if not all(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly decreasing")
    trace = run(problem, cfg, eps=grid[-1], max_iter=max_iter, init=init)
    table = [(e, trace.first_hit(e)) for e in grid]
    achieved = [(e, t) for e, t in table if t is not None]
    partial = len(achieved) < len(grid)
    slope = rate_slope(achieved) if len(achieved) >= 3 else None
    return RateResult(table=table, slope=slope, partial=partial)


# ---------------------------------------------------------------------------
# CLI


def _common_flags(p):
    p.add_argument("config", help="path to a run-spec config file")
    p.add_argument("--out-dir", default=None,
                   help="output root (default $AGP_OUT_DIR or ./agp_out)")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override problem seeds")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)


def _load_specs(args) -> tuple[list[RunSpec], str]:
    text = Path(args.config).read_text()
    if args.seed is not None:
        text = f"seed = {args.seed}\n" + text
    specs = parse_config(text)
    for s in specs:
        if args.max_iter is not None:
            s.max_iter = args.max_iter
        if args.eps is not None:
            s.eps = args.eps
    return specs, text


def _out_dir(args):
    return args.out_dir or os.environ.get("AGP_OUT_DIR") or "agp_out"


def _cmd_solve(args) -> int:
    specs, text = _load_specs(args)
    records = run_suite(specs, parallelism=args.parallelism,
                        out_dir=_out_dir(args), config_echo=text)
    code = 0
    for r in records:
        status = r.error or r.reason
        print(f"[{r.run_id:03d}] {r.label}: {status}, T_eps={r.T_eps}, "
              f"final_gap={r.final_gap}, monitors={r.monitor_pass}")
        if r.error:
            code = 5
        elif r.monitor_pass is False:
            code = max(code, 3)
        elif r.reason == "max_iter":
            code = max(code, 2)
    return code


def _cmd_rate(args) -> int:
    specs, _ = _load_specs(args)
    out = Path(_out_dir(args))
    out.mkdir(parents=True, exist_ok=True)
    code = 0
    rows = []
    for spec in specs:
        if spec.solver != "agp":
            continue
        res = rate_experiment(spec.problem, spec.regime_cfg, spec.eps_grid,
                              spec.max_iter, spec.init)
        print(f"[{spec.index:03d}] {spec.label}: slope="
              f"{'n/a' if res.slope is None else f'{res.slope:.3f}'}"
              f"{' (partial)' if res.partial else ''}")
        for e, t in res.table:
            print(f"    eps={e:g}  T={t}")
        rows.append({"label": spec.label, "slope": res.slope, "partial": res.partial,
                     "table": [[e, t] for e, t in res.table]})
        if res.partial:
            code = max(code, 2)
    (out / "rate.json").write_text(json.dumps({"experiments": rows}, indent=2) + "\n")
    return code


def _cmd_check(args) -> int:
    from .verify import finite_diff_check

    specs, _ = _load_specs(args)
    code = 0
    for spec in specs:
        if spec.solver != "agp":
            continue
        grads = finite_diff_check(spec.problem, 100, seed=spec.index)
        trace = run(spec.problem, spec.regime_cfg, spec.eps,
                    min(spec.max_iter, 2000), spec.init)
        monitors = lemma_monitor(trace, spec.problem, spec.regime_cfg)
        print(f"[{spec.index:03d}] {spec.label}: gradients="
              f"{'ok' if grads.passed else 'FAIL'} "
              f"monitors={'ok' if monitors.passed else 'FAIL'}")
        if not (grads.passed and monitors.passed):
            print(grads)
            print(monitors)
            code = 3
    return code


def _cmd_compare(args) -> int:
    specs, _ = _load_specs(args)
    out = Path(_out_dir(args))
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'run':<28} {'algo':<5} {'T_eps':>8} {'final gap':>12} {'iters':>8}")
    code = 0
    for spec in specs:
        agp_trace = run(spec.problem, spec.regime_cfg, spec.eps, spec.max_iter,
                        spec.init) if spec.regime_cfg else None
        sx = spec.step_x or 0.1
        sy = spec.step_y or 0.1
        gda_trace = run_gda(spec.problem, sx, sy, spec.eps, spec.max_iter, spec.init)
        for algo, tr in (("agp", agp_trace), ("gda", gda_trace)):
            if tr is None:
                continue
            print(f"{spec.label:<28} {algo:<5} {str(tr.T_eps):>8} "
                  f"{tr.final_gap:>12.3e} {tr.iterations:>8}")
            write_trace_csv(tr, out / f"run{spec.index:03d}_{algo}.csv")
            if tr.reason == "max_iter" and algo == "agp":
                code = max(code, 2)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="agp",
        description="Alternating-gradient-projection minimax benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", _cmd_solve), ("rate", _cmd_rate),
                     ("check", _cmd_check), ("compare", _cmd_compare)):
        p = sub.add_parser(name)
        _common_flags(p)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4
    except FileNotFoundError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
