"""One benchmark pass in a fresh interpreter.

    python3 passrun.py ROOT WORKLOAD SEED OUT_DIR MODE [--short]

MODE is ``setup`` (time ``import agp`` plus ``parse_config`` only), ``plain``
(an untraced pass), ``serial`` (an untraced pass on one thread) or ``traced``
(the calls of ``serial`` with spans recorded).  The pass checks its own
outputs against ``expected.json`` next to this file and prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  imported before set-up is timed

from tracing import Tracer
from workloads import DEFAULT_SEED, SLOPE_CAPS, WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
CSV_HEADER = ("k,f,gap_norm,reg_gap_norm,beta,gamma,b,c,dx_norm,dy_norm,"
              "potential,monitor_slack")

# calls the library makes through module globals of agp.bench; the traced
# pass routes them through spans, and the annotations add per-span counts


def _iters(span, args, trace):
    span["iterations"] = trace.iterations


def _monitored(span, args, report):
    span["iterations"] = len(args[0])


def _csv_rows(span, args, _):
    span["rows"] = len(args[0])
    span["bytes"] = Path(args[1]).stat().st_size


SUITE_LAYERS = {"run": _iters, "run_gda": _iters, "lemma_monitor": _monitored,
                "theory_constants": None, "compute_bound": None,
                "write_trace_csv": _csv_rows}
RATE_LAYERS = {"run": _iters}


def import_agp(root):
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import agp

    if Path(agp.__file__).resolve().parent.parent != src:
        raise ImportError(f"agp imported from {agp.__file__}, not from {src}")
    return agp


# ---------------------------------------------------------------------------
# workload bodies; each returns (iterations, per-run results)


def suite_pass(agp, specs, text, out_dir, parallelism):
    records = agp.run_suite(specs, parallelism=parallelism, out_dir=out_dir,
                            config_echo=text)
    return sum(r.iterations for r in records), records


def rate_iterations(spec, res):
    # rate_experiment runs once at the last eps: it stops there or at max_iter
    return res.table[-1][1] or spec.max_iter


def rate_pass(rate_experiment, specs):
    results = []
    for spec in specs:
        try:
            res = rate_experiment(spec.problem, spec.regime_cfg, spec.eps_grid,
                                  spec.max_iter, spec.init)
        except Exception as e:  # a raising run is a failed run; keep going
            res = e
        results.append(res)
    return sum(rate_iterations(spec, res) for spec, res in zip(specs, results)
               if not isinstance(res, Exception)), results


def recorded_outputs(kind, spec, result):
    """The outputs of one run that ``expected.json`` records for the default seed."""
    if kind == "rate":
        return {"table": [t for _, t in result.table],
                "iterations": rate_iterations(spec, result)}
    return {"reason": result.reason, "T_eps": result.T_eps,
            "iterations": result.iterations, "monitor_pass": result.monitor_pass}


# ---------------------------------------------------------------------------
# output checks; each returns a list of "label: problem" strings, one per
# failed run


def _lines(path):
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def _check_suite(specs, records, out_dir, expected):
    failures = []
    summary = json.loads("\n".join(_lines(Path(out_dir) / "summary.json")) or "{}")
    if len(summary.get("runs", ())) != len(specs):
        failures.append(f"summary.json does not list all {len(specs)} runs")
    for i, (spec, rec) in enumerate(zip(specs, records)):
        problems = []
        if rec.error is not None:
            problems.append(f"raised {rec.error}")
        else:
            if spec.solver == "agp" and rec.monitor_pass is not True:
                problems.append(f"monitor verdict {rec.monitor_pass}")
            if spec.solver == "agp" and rec.T_eps is not None and not (
                    rec.bound is not None and rec.bound >= rec.T_eps):
                problems.append(f"bound {rec.bound} below T_eps {rec.T_eps}")
            lines = _lines(Path(out_dir) / f"run{spec.index:03d}.csv")
            if not lines or lines[0] != CSV_HEADER or len(lines) - 1 != rec.iterations:
                problems.append(f"CSV has {len(lines) - 1} rows, want {rec.iterations}")
        if expected is not None:
            got = recorded_outputs("suite", spec, rec)
            if got != expected[i]:
                problems.append(f"got {got}, expected {expected[i]}")
        if problems:
            failures.append(f"{spec.label}: " + "; ".join(problems))
    return failures


def _check_rate(specs, results, expected):
    from agp.verify import rate_slope

    failures = []
    for i, (spec, res) in enumerate(zip(specs, results)):
        problems = []
        if isinstance(res, Exception):
            problems.append(f"raised {type(res).__name__}: {res}")
        else:
            # fit the real grid only: a hit at the 1e-300 sentinel would
            # dominate the fit and pull the slope towards 0
            cap = SLOPE_CAPS[spec.regime_cfg.regime.value]
            points = [(e, t) for e, t in res.table[:-1] if t is not None]
            slope = rate_slope(points) if len(points) >= 3 else None
            if slope is not None and not slope <= cap:
                problems.append(f"slope {slope} above {cap}")
            if expected is not None:
                got = recorded_outputs("rate", spec, res)
                if got != expected[i]:
                    problems.append(f"got {got}, expected {expected[i]}")
        if problems:
            failures.append(f"{spec.label}: " + "; ".join(problems))
    return failures


def expected_for(workload, seed, short):
    """Recorded outputs apply to full-length passes at the default seed."""
    if short or seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "expected.json").read_text())[workload]


# ---------------------------------------------------------------------------
# layer metrics of a traced pass


def layer_metrics(tracer):
    spans = tracer.spans
    sids = {}
    for sid, s in enumerate(spans):
        sids.setdefault(s["name"], []).append(sid)

    def seconds(name):
        return sum((spans[i]["end"] - spans[i]["start"] for i in sids.get(name, ())), 0.0)

    def count(name, key):
        # a span whose call raised has no counts
        return sum(spans[i].get(key, 0) for i in sids.get(name, ()))

    def leaves(name, leaf):
        stats = [tracer.leaf_stats(i, leaf) for i in sids.get(name, ())]
        return sum(c for c, _ in stats), sum((t for _, t in stats), 0.0)

    def per(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    all_calls = {"value": 0, "grad": 0, "project": 0}
    all_time = dict.fromkeys(all_calls, 0.0)
    for sid, leaf in tracer.leaves:
        c, s = tracer.leaf_stats(sid, leaf)
        all_calls[leaf] += c
        all_time[leaf] += s

    run_s, run_iters = seconds("run"), count("run", "iterations")
    gda_s, gda_iters = seconds("run_gda"), count("run_gda", "iterations")
    run_leaf = {leaf: leaves("run", leaf) for leaf in all_calls}
    run_child_s = sum(s for _, s in run_leaf.values())
    lm_s, lm_iters = seconds("lemma_monitor"), count("lemma_monitor", "iterations")
    csv_s, csv_rows = seconds("write_trace_csv"), count("write_trace_csv", "rows")
    metrics = {
        "bench.parse_config.s": (seconds("parse_config"), "s"),
        "bench.rate_experiment.s": (seconds("rate_experiment"), "s"),
        "bench.write_trace_csv.s": (csv_s, "s"),
        "bench.write_trace_csv.us_per_row": (per(csv_s, csv_rows, 1e6), "us"),
        "bench.write_trace_csv.bytes": (count("write_trace_csv", "bytes"), "B"),
        "solver.iterations": (run_iters + gda_iters, "count"),
        "solver.run.s": (run_s, "s"),
        "solver.run.self_s": (run_s - run_child_s, "s"),
        "solver.run.us_per_iter": (per(run_s, run_iters, 1e6), "us"),
        "solver.run_gda.s": (gda_s, "s"),
        "solver.run_gda.us_per_iter": (per(gda_s, gda_iters, 1e6), "us"),
        "solver.run.value_per_iter": (per(run_leaf["value"][0], run_iters), "calls/iter"),
        "solver.run.grad_per_iter": (per(run_leaf["grad"][0], run_iters), "calls/iter"),
        "solver.run.project_per_iter": (per(run_leaf["project"][0], run_iters), "calls/iter"),
        "objective.value.calls": (all_calls["value"], "count"),
        "objective.grad.calls": (all_calls["grad"], "count"),
        "objective.s": (all_time["value"] + all_time["grad"], "s"),
        "geometry.project.calls": (all_calls["project"], "count"),
        "geometry.project.s": (all_time["project"], "s"),
        "verify.lemma_monitor.s": (lm_s, "s"),
        "verify.lemma_monitor.us_per_iter": (per(lm_s, lm_iters, 1e6), "us"),
        "verify.lemma_monitor.value_calls": (leaves("lemma_monitor", "value")[0], "count"),
        "verify.theory_constants.s": (seconds("theory_constants"), "s"),
        "verify.theory_constants.value_calls": (leaves("theory_constants", "value")[0], "count"),
        "verify.compute_bound.s": (seconds("compute_bound"), "s"),
    }
    return metrics


# ---------------------------------------------------------------------------


def run_pass(root, workload, seed, out_dir, mode, short=False):
    _, kind, parallelism = WORKLOADS[workload]
    text = config_text(workload, seed, short)
    t0 = perf_counter()
    agp = import_agp(root)
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        specs = tracer.layer("parse_config", agp.parse_config)(text)
    else:
        specs = agp.parse_config(text)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s, "runs": len(specs)}
    if mode == "setup":
        return result

    out_dir = Path(out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    bench = sys.modules["agp.bench"]
    expected = expected_for(workload, seed, short)
    if mode != "plain":
        parallelism = 1  # spans are recorded on one thread
    if tracer is not None:
        for spec in specs:
            spec.problem = tracer.wrap_problem(spec.problem, spec.index)
        patch = tracer.patched(bench, SUITE_LAYERS if kind == "suite" else RATE_LAYERS)
        rate_experiment = tracer.layer("rate_experiment", agp.rate_experiment)
    else:
        patch = contextlib.nullcontext()
        rate_experiment = agp.rate_experiment

    try:
        with patch:
            t1 = perf_counter()
            if kind == "suite":
                iterations, outputs = suite_pass(agp, specs, text, out_dir, parallelism)
            else:
                iterations, outputs = rate_pass(rate_experiment, specs)
            wall_s = perf_counter() - t1
    except Exception as e:  # an error escaped the library: every run failed
        result.update(wall_s=None, iterations=0,
                      failures=[f"pass raised {type(e).__name__}: {e}"] * len(specs))
        return result

    failures = (_check_suite(specs, outputs, out_dir, expected) if kind == "suite"
                else _check_rate(specs, outputs, expected))
    result.update(wall_s=wall_s, iterations=iterations, failures=failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.finish()
        result.update(layers=layer_metrics(tracer))
        tracer.dump(out_dir / "spans")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("out_dir")
    p.add_argument("mode", choices=("setup", "plain", "serial", "traced"))
    p.add_argument("--short", action="store_true")
    a = p.parse_args(argv)
    result = run_pass(a.root, a.workload, a.seed, a.out_dir, a.mode, a.short)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
