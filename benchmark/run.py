"""Benchmark of the agp library on three workloads.

    python3 benchmark/run.py --workload suite_bounds --seed 0 --seconds 40 --trace 0

Each pass runs in a fresh interpreter (``passrun.py``) against the library
under ``src/`` of the checkout this script sits in.  With ``--trace 0`` it
reports the end-to-end metrics (medians over the passes that fit in
``--seconds``); with ``--trace 1`` one extra traced pass, and on a parallel
workload one extra untraced serial pass, give the per-layer metrics.  Every
pass checks its outputs.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 19  # set-up-only interpreters per run, on top of one per pass
RUN_LIMIT_S = 170  # a run never starts a child it could not finish by then


def environment(traced):
    import numpy

    commit = "unknown"  # a plain checkout carries no git metadata
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except OSError:  # no git on this machine
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "traced": bool(traced)}


class Runner:
    def __init__(self, args, out_root):
        self.args = args
        self.out_root = out_root
        self.t0 = perf_counter()

    def elapsed(self):
        return perf_counter() - self.t0

    def child(self, mode, name):
        a = self.args
        cmd = [sys.executable, str(HERE / "passrun.py"), str(ROOT), a.workload,
               str(a.seed), str(self.out_root / name), mode]
        if a.short:
            cmd.append("--short")
        t = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(RUN_LIMIT_S - self.elapsed(), 1))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{mode} pass exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["child_s"] = perf_counter() - t
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def measure(args, out_root, parallelism):
    """Set-up samples, the optional traced and serial passes, then untraced passes."""
    r = Runner(args, out_root)
    r.child("setup", "warmup")  # compiles bytecode; not a user's per-run cost
    r.t0 = perf_counter()
    setups = [r.child("setup", f"setup{i}")["setup_s"] for i in range(SETUP_SAMPLES)]
    traced = r.child("traced", "traced") if args.trace else None
    serial = r.child("serial", "serial") if args.trace and parallelism > 1 else None
    passes = []
    while True:
        p = r.child("plain", f"pass{len(passes)}")
        passes.append(p)
        next_end = r.elapsed() + p["child_s"]
        if next_end > args.seconds or next_end > RUN_LIMIT_S:
            break
    return setups + [p["setup_s"] for p in passes], traced, serial, passes


def end_to_end(setups, passes):
    ok = [p for p in passes if p["wall_s"] is not None]
    return {
        "wall_s": (median([p["wall_s"] for p in ok]), "s"),
        "iters_per_s": (median([p["iterations"] / p["wall_s"] for p in ok]), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in ok]), "MiB"),
    }


def ratio(a, b):
    return a / b if a and b else 0.0


def per_layer(traced, serial, passes):
    """Layer metrics of the traced pass, plus two ratios of untraced walls.

    ``parallel_gain`` is the serial untraced wall over the median parallel
    wall (0 on a serial workload); ``trace.overhead`` is the traced wall over
    the serial untraced wall.  Both compare passes on the same thread count
    or without tracing, so neither carries the other's factor.
    """
    layers = dict(traced["layers"])
    wall = median([p["wall_s"] for p in passes if p["wall_s"] is not None])
    serial_wall = wall if serial is None else serial["wall_s"]
    gain = ratio(serial_wall, wall) if serial is not None else 0.0
    layers["bench.run_suite.parallel_gain"] = (gain, "ratio")
    layers["trace.overhead"] = (ratio(traced["wall_s"], serial_wall), "ratio")
    return layers


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="cut every run's max_iter 20-fold (self-test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "agp" / "__init__.py").is_file():
        print(f"no agp library under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".benchmark_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args.trace)
    setups, traced, serial, passes = measure(args, out_root, WORKLOADS[args.workload][2])

    done = passes + [d for d in (traced, serial) if d]
    attempted = sum(d["runs"] for d in done)
    failures = [f for d in done for f in d["failures"]]
    metrics = per_layer(traced, serial, passes) if traced else end_to_end(setups, passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{len(setups)} set-up samples, traced={bool(traced)}")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<40} {len(failures) / attempted:>16.6g} ratio "
          f"({len(failures)} of {attempted} runs)")
    for f in failures:
        print(f"  FAILED {f}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    (out_root / "result.json").write_text(json.dumps(
        {"env": env, "workload": args.workload, "seed": args.seed,
         "passes": passes, "traced_pass": traced, "serial_pass": serial, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
