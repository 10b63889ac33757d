"""Self-test of the benchmark.

    python3 benchmark/selftest.py

1. A short pass of every workload, untraced and traced, prints a result
   line with exactly the metrics and units BENCHMARK.json declares.
2. A deliberately wrong expected T_eps makes the run report failed runs.
3. Without the library next to it the benchmark exits non-zero and prints
   no result.
Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".benchmark_out" / "selftest"


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check(cond, msg):
    print(("ok    " if cond else "FAIL  ") + msg)
    return cond


def metrics_match(workload, spec):
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, res = bench(["--workload", workload, "--seconds", "1", "--trace", str(trace),
                           "--short"])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {} if res is None else {n: m["unit"] for n, m in res["metrics"].items()}
        ok &= check(code == 0 and res is not None
                    and set(res) == {"correct", "attempted", "failed", "metrics"}
                    and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                    f"{workload} trace={trace}: short pass passes its checks")
        ok &= check(got == want, f"{workload} trace={trace}: emits every {key} metric "
                                 f"with its unit")
    return ok


def copy_tree(name, with_library):
    """A fresh directory holding BENCHMARK.json, benchmark/ and optionally src/."""
    root = OUT / name
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, root / "benchmark", ignore=skip)
    if with_library:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


def wrong_t_eps_fails():
    root = copy_tree("wrong", with_library=True)
    expected = json.loads((HERE / "expected.json").read_text())
    run = next(r for r in expected["suite_bounds"] if r["T_eps"] is not None)
    run["T_eps"] += 1
    (root / "benchmark" / "expected.json").write_text(json.dumps(expected))
    code, res = bench(["--workload", "suite_bounds", "--seconds", "1", "--trace", "0"],
                      cwd=root)
    return check(code == 1 and res is not None and res["failed"] / res["attempted"] > 0,
                 "a wrong expected T_eps gives fail_ratio > 0")


def bare_directory_fails():
    bare = copy_tree("bare", with_library=False)
    code, res = bench(["--workload", "rate_sweep", "--seconds", "1", "--trace", "0"], cwd=bare)
    return check(code != 0 and res is None, "without the library: non-zero exit, no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        ok &= metrics_match(w["name"], spec)
    ok &= wrong_t_eps_fails()
    ok &= bare_directory_fails()
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
