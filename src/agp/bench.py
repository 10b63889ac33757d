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
``step_x`` / ``step_y``.  The flags ``--seed``, ``--max-iter`` and ``--eps``
override those keys in every block.  Every bad value, in a key or a flag,
is a config error (exit 4) that names its line or flag, raised before
anything runs or is written.

CLI subcommands: solve, rate, check, compare.  Exit codes: 0 all runs
converged and monitors passed, 2 some run hit max_iter, 3 a monitor or a
``check`` condition failed, 4 config error, 5 some run raised an error, on
every subcommand (5 takes precedence over 3, and 3 over 2); the other
runs go on.  A CSV trace that cannot be written is a run error (5) named
``csv: ...``, and ``summary.json`` or ``rate.json`` that cannot be written
ends the command with one stderr line and exit 5.

Every subcommand maps its specs on ``--parallelism N`` forked worker
processes; each worker writes the CSV traces of its runs, and the parent
prints each run's lines and writes ``summary.json`` / ``rate.json`` in spec
order, so no output byte apart from the wall times depends on N.  A
platform without the ``fork`` start method runs the specs serially.
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._expr import _CallValue, parse_value
from .geometry import Ball, Box, Product, parse_set
from .objective import (VALUE_CHUNK, MinimaxProblem, Regime, make_bilinear,
                        make_nc_sc_sine, make_robust_svm_toy, make_sc_nc_sine,
                        random_quadratic)
from .schedules import (DEFAULT_TAU, CNcConfig, NcCConfig, NcScConfig, RegimeConfig,
                        ScNcConfig, UnsupportedRegimeError, auto_configure, validate)
from .solver import SolverTrace, run, run_gda
from .verify import (InvalidTraceError, compute_bound, finite_diff_check, lemma_monitor,
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
    "main",
]

CSV_COLUMNS = ("k", "f", "gap_norm", "reg_gap_norm", "beta", "gamma", "b", "c",
               "dx_norm", "dy_norm", "potential", "monitor_slack")

DEFAULT_EPS = 1e-3
DEFAULT_MAX_ITER = 10**6
DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3)
_GDA_STEP = 0.1  # step_x and step_y of a GDA run that sets none

_KNOWN_KEYS = {"problem", "solver", "regime", "eps", "max_iter", "seed", "tau",
               "step_x", "step_y", "init", "x0", "y0", "X", "Y", "eps_grid",
               "label"}

_REGIME_CONFIGS = {cls.regime.value: cls
                   for cls in (NcScConfig, NcCConfig, ScNcConfig, CNcConfig)}


class ConfigError(ValueError):
    pass


@dataclass
class RunSpec:
    index: int
    label: str
    problem: MinimaxProblem
    problem_text: str
    seed: int = 0  # the seed the problem was built with, after any --seed
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
    seed: int
    eps: float
    max_iter: int
    reason: str | None
    T_eps: int | None
    final_gap: float | None
    iterations: int
    floored_any: bool | None
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


def _err(msg, where):
    raise ConfigError(f"{msg} ({where})")


def _parse_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", line)
        if not m:
            _err(f"malformed line {raw.strip()!r}", f"line {lineno}")
        yield f"line {lineno}", m.group(1), m.group(2).strip()


def parse_config(text: str) -> list[RunSpec]:
    """Parse config text into run specs; unknown keys and bad values error
    with their line number."""
    return _parse_config(text, {})


def _parse_config(text, flags):
    """The specs of ``text``, each read by checked readers from ``{**defaults,
    **block, **flags}``; each layer maps a key to ``(value text, "line N")``
    or ``(value text, "flag --name")``, so an error names its line or flag."""
    defaults: dict = {}
    blocks: list[dict] = []
    for where, key, value in _parse_lines(text):
        if key not in _KNOWN_KEYS:
            _err(f"unknown key {key!r}", where)
        if key == "problem":
            blocks.append({})
        (blocks[-1] if blocks else defaults)[key] = (value, where)
    _flag_keys(flags)  # a bad flag is refused even when no block reads it
    return [_build_spec(i, {**defaults, **block, **flags})
            for i, block in enumerate(blocks)]


def _value(merged, key):
    text, where = merged[key]
    try:
        return parse_value(text), where
    except ValueError as e:
        _err(f"bad {key}: {e}", where)


def _finite(value, what, where):
    try:
        out = float(value)
    except (ValueError, TypeError):
        out = math.nan
    if not math.isfinite(out):
        _err(f"{what}: {value!r} is not a finite number", where)
    return out


def _number(merged, key, default, above=0.0):
    """A finite float ``> above``."""
    if key not in merged:
        return default
    value, where = _value(merged, key)
    out = _finite(value, key, where)
    if not out > above:
        _err(f"{key} must be " + ("positive" if above == 0 else f"> {above:g}"), where)
    return out


def _integer(merged, key, default, least):
    if key not in merged:
        return default
    value, where = _value(merged, key)
    return _whole(value, key, where, least)


def _whole(value, what, where, least):
    """An integral number ``>= least``, as an int."""
    out = _finite(value, what, where)
    if not (out.is_integer() and out >= least):
        _err(f"{what} must be an integer >= {least}, got {value!r}", where)
    return value if type(value) is int else int(out)


def _numbers(merged, key):
    """A list of finite floats."""
    value, where = _value(merged, key)
    if not isinstance(value, list):
        _err(f"{key} must be a list of numbers, got {value!r}", where)
    return [_finite(v, key, where) for v in value]


def _flag_keys(merged):
    """``(seed, eps, max_iter)``: the keys that a flag can set too."""
    return (_integer(merged, "seed", None, least=0), _number(merged, "eps", DEFAULT_EPS),
            _integer(merged, "max_iter", DEFAULT_MAX_ITER, least=1))


def _set(merged, key):
    if key not in merged:
        return None
    text, where = merged[key]
    try:
        return parse_set(text)
    except (ValueError, KeyError, TypeError) as e:
        _err(f"bad set for {key}: {e}", where)


# the least integer each numeric problem argument takes; None for a finite real
_PROBLEM_ARGS = {"seed": 0, "nx": 1, "ny": 1, "dim": 1, "m": 1, "n": 1,
                 "mu": None, "theta": None}


def _problem_call(merged, seed):
    """``(name, kwargs)`` of the problem call, its numeric arguments read by
    the checked readers; ``seed``, when set, overrides the call's own."""
    call, where = _value(merged, "problem")
    if not isinstance(call, _CallValue):
        _err(f"bad problem: expected a call form, got {merged['problem'][0]!r}", where)
    kw = dict(call.kwargs) if seed is None else {**call.kwargs, "seed": seed}
    for key, least in _PROBLEM_ARGS.items():
        if key in kw:
            what = f"bad problem: {key}"
            kw[key] = (_finite(kw[key], what, where) if least is None
                       else _whole(kw[key], what, where, least))
    return call.name.lower(), kw


def _build_spec(index: int, merged: dict) -> RunSpec:
    ptext, pwhere = merged["problem"]
    seed, eps, max_iter = _flag_keys(merged)
    tau = _number(merged, "tau", DEFAULT_TAU, above=2)
    X, Y = _set(merged, "X"), _set(merged, "Y")
    name, kw = _problem_call(merged, seed)
    try:
        problem, problem_regime = _build_problem(name, kw, X, Y)
    except (ValueError, KeyError, TypeError) as e:
        _err(f"bad problem: {e}", pwhere)

    solver = merged.get("solver", ("agp",))[0]
    if solver not in ("agp", "gda"):
        _err(f"solver must be agp or gda, got {solver!r}", merged["solver"][1])

    init = "project-origin"
    if "init" in merged and merged["init"][0] != "project-origin":
        _err("init must be project-origin (use x0/y0 for explicit starts)", merged["init"][1])
    if "x0" in merged or "y0" in merged:
        if not ("x0" in merged and "y0" in merged):
            _err("x0 and y0 must be given together", merged.get("x0", merged.get("y0"))[1])
        init = (np.array(_numbers(merged, "x0")), np.array(_numbers(merged, "y0")))
        if init[0].shape != (problem.dim_x,) or init[1].shape != (problem.dim_y,):
            _err("x0/y0 dimensions do not match the problem", merged["x0"][1])

    regime_cfg = step_x = step_y = None
    if solver == "gda":
        step_x = _number(merged, "step_x", _GDA_STEP)
        step_y = _number(merged, "step_y", _GDA_STEP)
    else:
        regime_cfg = _resolve_regime(merged, problem, problem_regime, tau, pwhere)

    eps_grid = DEFAULT_EPS_GRID
    if "eps_grid" in merged:
        eps_grid = tuple(_numbers(merged, "eps_grid"))
        if len(eps_grid) < 3 or not all(a > b > 0 for a, b in zip(eps_grid, eps_grid[1:])):
            _err("eps_grid must be a list of at least 3 positive, strictly decreasing "
                 "values", merged["eps_grid"][1])

    label = merged["label"][0] if "label" in merged else \
        f"{index:03d}-{_slug(problem.name)}-{solver}"
    return RunSpec(index=index, label=label, problem=problem, problem_text=ptext,
                   seed=kw.get("seed", 0), solver=solver, regime_cfg=regime_cfg,
                   step_x=step_x, step_y=step_y, eps=eps, max_iter=max_iter, init=init,
                   eps_grid=eps_grid)


def _slug(name):
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "run"


def _resolve_regime(merged, problem, problem_regime, tau, pwhere):
    if "regime" in merged:
        parsed, where = _value(merged, "regime")
        if isinstance(parsed, _CallValue):
            return _explicit_regime(parsed, tau, where)
        try:
            regime = Regime(parsed)
        except ValueError:
            _err(f"unknown regime {parsed!r}", where)
    elif problem_regime is not None:
        regime, where = problem_regime, pwhere
    else:
        _err(f"{problem.name} has no regime of its own; add a regime key", pwhere)
    try:
        cfg = auto_configure(problem.constants, regime)
    except UnsupportedRegimeError as e:
        _err(f"{e}; give explicit constants, e.g. regime = "
             f"{regime.value}(...)", where)
    if isinstance(cfg, (NcCConfig, CNcConfig)) and tau != cfg.tau:
        cfg = dataclasses.replace(cfg, tau=tau)
    return cfg


def _explicit_regime(call, tau, where):
    """The config class named by ``call``, built from its ``init`` fields;
    ``tau`` fills an unset tau."""
    cls = _REGIME_CONFIGS.get(call.name)
    if cls is None:
        _err(f"unknown regime {call.name!r}", where)
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    kw = {"tau": tau, **call.kwargs} if "tau" in names else call.kwargs
    if call.args or set(kw) != set(names):
        _err(f"regime {call.name} takes the named constants {', '.join(names)}", where)
    constants = {n: _finite(kw[n], f"{call.name} constant {n}", where) for n in names}
    try:
        return cls(**constants)
    except ValueError as e:
        _err(f"bad regime {call.name}: {e}", where)


def _default_boxes(nx, ny):
    return (Box(-np.ones(nx), np.ones(nx)), Box(-np.ones(ny), np.ones(ny)))


def _build_problem(name, kw, X_override, Y_override):
    regime = None
    if name == "quadratic":
        regime = Regime(kw.get("regime", "nc_sc"))
        prob = random_quadratic(kw.get("seed", 0), kw["nx"], kw["ny"], regime)
        prob = dataclasses.replace(prob, X=X_override or prob.X, Y=Y_override or prob.Y)
    elif name == "bilinear":
        if "dim" in kw:
            B = np.eye(kw["dim"])
        else:
            rng = np.random.default_rng(kw.get("seed", 0))
            B = rng.standard_normal((kw["nx"], kw["ny"]))
        nx, ny = B.shape
        X, Y = _default_boxes(nx, ny)
        prob = make_bilinear(B, X=X_override or X, Y=Y_override or Y)
    elif name in ("sine", "sine_dual"):
        make, modulus, regime = ((make_nc_sc_sine, "mu", Regime.NC_SC) if name == "sine"
                                 else (make_sc_nc_sine, "theta", Regime.SC_NC))
        nx, ny = kw["nx"], kw["ny"]
        rng = np.random.default_rng(kw.get("seed", 0))
        B = 0.5 * rng.standard_normal((nx, ny)) / math.sqrt(max(nx, ny))
        X, Y = _default_boxes(nx, ny)
        prob = make(nx, ny, B, kw.get(modulus, 1.0), X_override or X, Y_override or Y)
    elif name == "svm":
        m, n = kw.get("m", 2), kw.get("n", 6)
        rng = np.random.default_rng(kw.get("seed", 0))
        feats = rng.standard_normal((n, m))
        labels = np.where(feats[:, 0] + 0.1 * rng.standard_normal(n) >= 0, 1.0, -1.0)
        X = X_override or Ball(np.zeros(m + 1), 1.0)
        Y = Y_override or Product((Ball(np.zeros(m), 1.0), Box([-1.0], [1.0])))
        prob = make_robust_svm_toy(list(zip(feats, labels)), X, Y)
        regime = Regime.C_NC
    else:
        raise ValueError(f"unknown problem {name!r}")
    return prob, regime


# ---------------------------------------------------------------------------
# CSV traces


_CSV_ROW = "%d" + ",%.17g" * (len(CSV_COLUMNS) - 1) + "\n"


def write_trace_csv(trace: SolverTrace, path) -> None:
    """One row per iteration, reals at 17 significant digits."""
    cols = [getattr(trace, name) for name in CSV_COLUMNS]
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for s in range(0, len(trace), VALUE_CHUNK):
            chunk = [col[s:s + VALUE_CHUNK].tolist() for col in cols]
            fh.writelines(_CSV_ROW % row for row in zip(*chunk))


# ---------------------------------------------------------------------------
# suite execution


def _execute(spec: RunSpec, out: Path | None) -> SummaryRecord:
    """Run one spec; write its CSV trace into ``out``, if set, after timing it."""
    t0 = time.perf_counter()
    rec = SummaryRecord(run_id=spec.index, label=spec.label, solver=spec.solver,
                        regime=spec.regime_cfg.regime.value if spec.regime_cfg else None,
                        problem=spec.problem_text, seed=spec.seed, eps=spec.eps,
                        max_iter=spec.max_iter, reason=None, T_eps=None,
                        final_gap=None, iterations=0, floored_any=None, wall_time_s=0.0,
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
        return rec
    rec.reason = trace.reason
    rec.T_eps = trace.T_eps
    rec.final_gap = trace.final_gap
    rec.iterations = trace.iterations
    rec.floored_any = trace.floored_any
    # a monitor, bound or CSV write that raises fails this run only
    errors = []
    if spec.solver == "agp":
        try:
            rec.monitor_pass = lemma_monitor(trace).passed
        except InvalidTraceError:
            rec.monitor_pass = None
        except Exception as e:
            errors.append(f"lemma_monitor: {type(e).__name__}: {e}")
        try:
            tc = theory_constants(trace)
            rec.bound = compute_bound(tc, spec.eps)
            if trace.T_eps:
                rec.bound_ratio = rec.bound / trace.T_eps
        except (ValueError, ArithmeticError) as e:
            rec.bound = None
            rec.bound_error = f"{type(e).__name__}: {e}"
        except Exception as e:
            errors.append(f"bound: {type(e).__name__}: {e}")
    rec.wall_time_s = time.perf_counter() - t0
    if out:
        try:
            write_trace_csv(trace, out / f"run{spec.index:03d}.csv")
        except OSError as e:
            errors.append(f"csv: {type(e).__name__}: {e}")
    rec.error = "; ".join(errors) or None
    return rec


# (job, specs) of the map a forked worker serves, set by the pool's
# initializer from the arguments the worker inherits by fork: a MinimaxProblem
# holds closures and cannot be pickled, so only indices and results cross.
_WORKER_JOB = None


def _adopt_job(job, specs):
    global _WORKER_JOB
    _WORKER_JOB = (job, specs)


def _run_adopted(i: int):
    job, specs = _WORKER_JOB
    return job(specs[i])


def _map_specs(job, specs: list[RunSpec], workers: int) -> list:
    """``[job(s) for s in specs]``: in ``min(workers, len(specs))`` forked
    processes when that is two or more and the platform can fork, else
    serially here.  An exception that escapes a job propagates."""
    import multiprocessing

    workers = min(workers, len(specs))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [job(s) for s in specs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_job, initargs=(job, specs)) as pool:
        return list(pool.map(_run_adopted, range(len(specs))))


def run_suite(specs: list[RunSpec], parallelism: int = 1, out_dir=None,
              config_echo: str = ""):
    """Run all specs; outputs are deterministic regardless of parallelism.

    ``parallelism`` is the number of forked worker processes.  Each run's
    worker writes its CSV trace; the records come back in spec order and
    the parent writes ``summary.json``, so the CSVs, and ``summary.json``
    apart from ``wall_time_s``, are byte-identical across settings.  With
    fewer than two runs or workers, or on a platform without the ``fork``
    start method, the runs go serially in this process.  A CSV that cannot
    be written fails its run only: an ``OSError`` from the write is named
    in the record's ``error``.  Any other exception that escapes a run
    propagates, as does an ``OSError`` from ``out_dir`` or ``summary.json``.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    records = _map_specs(lambda s: _execute(s, out), specs, parallelism)
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
    p.add_argument("--parallelism", type=int, default=1,
                   help="forked worker processes (default 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="problem seed of every run, over the config's seed keys")
    p.add_argument("--max-iter", type=int, default=None,
                   help="max_iter of every run, over the config's max_iter keys")
    p.add_argument("--eps", type=float, default=None,
                   help="eps of every run, over the config's eps keys")


def _load_specs(args) -> tuple[list[RunSpec], str]:
    """The config's specs and text; its flags override every block."""
    if args.parallelism < 1:
        raise ConfigError(f"--parallelism must be >= 1, got {args.parallelism}")
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read the config: {e}") from None
    flags = {key: (repr(value), f"flag --{key.replace('_', '-')}")
             for key, value in (("seed", args.seed), ("eps", args.eps),
                                ("max_iter", args.max_iter)) if value is not None}
    return _parse_config(text, flags), text


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


def _run_jobs(job, specs, args) -> tuple[int, list]:
    """Map ``job: spec -> (lines, code, payload)`` over ``specs`` with
    ``args.parallelism`` workers and print the lines in spec order; returns
    the highest code and the payloads.  A job that raises gets the line
    ``[NNN] label: Type: msg``, code 5 and payload ``{"label", "error"}``."""
    def guarded(spec):
        try:
            return job(spec)
        except Exception as e:  # per-run failure: the other runs go on
            error = f"{type(e).__name__}: {e}"
            return [f"[{spec.index:03d}] {spec.label}: {error}"], 5, \
                {"label": spec.label, "error": error}

    results = _map_specs(guarded, specs, args.parallelism)
    for lines, _, _ in results:
        print(*lines, sep="\n")
    return max((r[1] for r in results), default=0), [r[2] for r in results]


def _rate_job(spec):
    res = rate_experiment(spec.problem, spec.regime_cfg, spec.eps_grid,
                          spec.max_iter, spec.init)
    lines = [f"[{spec.index:03d}] {spec.label}: slope="
             f"{'n/a' if res.slope is None else f'{res.slope:.3f}'}"
             f"{' (partial)' if res.partial else ''}"]
    lines += [f"    eps={e:g}  T={t}" for e, t in res.table]
    row = {"label": spec.label, "slope": res.slope, "partial": res.partial,
           "table": [[e, t] for e, t in res.table]}
    return lines, 2 if res.partial else 0, row


def _cmd_rate(args) -> int:
    specs, _ = _load_specs(args)
    out = Path(_out_dir(args))
    out.mkdir(parents=True, exist_ok=True)
    code, rows = _run_jobs(_rate_job, [s for s in specs if s.solver == "agp"], args)
    (out / "rate.json").write_text(json.dumps({"experiments": rows}, indent=2) + "\n")
    return code


def _check_job(spec):
    grads = finite_diff_check(spec.problem, 100, seed=spec.index)
    trace = run(spec.problem, spec.regime_cfg, spec.eps, min(spec.max_iter, 2000),
                spec.init)
    reports = [grads, validate(spec.regime_cfg, spec.problem.constants)]
    try:
        reports.append(lemma_monitor(trace))
        verdicts = ["ok" if r.passed else "FAIL" for r in reports]
    except InvalidTraceError as e:
        # the regime's analysis does not apply to this problem (a missing
        # modulus), so neither its conditions nor its monitors say anything
        del reports[1:]
        verdicts = ["ok" if grads.passed else "FAIL", "n/a", f"n/a ({e})"]
    line = "[{:03d}] {}: gradients={} conditions={} monitors={}".format(
        spec.index, spec.label, *verdicts)
    if "FAIL" not in verdicts:
        return [line], 0, None
    return [line, *map(str, reports)], 3, None


def _cmd_check(args) -> int:
    specs, _ = _load_specs(args)
    return _run_jobs(_check_job, [s for s in specs if s.solver == "agp"], args)[0]


def _compare_job(spec, out):
    agp_trace = run(spec.problem, spec.regime_cfg, spec.eps, spec.max_iter,
                    spec.init) if spec.regime_cfg else None
    gda_trace = run_gda(spec.problem, spec.step_x or _GDA_STEP, spec.step_y or _GDA_STEP,
                        spec.eps, spec.max_iter, spec.init)
    lines = []
    for algo, tr in (("agp", agp_trace), ("gda", gda_trace)):
        if tr is not None:
            lines.append(f"{spec.label:<28} {algo:<5} {str(tr.T_eps):>8} "
                         f"{tr.final_gap:>12.3e} {tr.iterations:>8}")
            write_trace_csv(tr, out / f"run{spec.index:03d}_{algo}.csv")
    return lines, 2 if agp_trace is not None and agp_trace.reason == "max_iter" else 0, None


def _cmd_compare(args) -> int:
    specs, _ = _load_specs(args)
    out = Path(_out_dir(args))
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'run':<28} {'algo':<5} {'T_eps':>8} {'final gap':>12} {'iters':>8}")
    return _run_jobs(lambda s: _compare_job(s, out), specs, args)[0]


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
    except OSError as e:  # say summary.json or rate.json cannot be written
        print(f"agp {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
