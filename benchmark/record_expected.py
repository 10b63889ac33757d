"""Record the default-seed outputs every full-length pass is checked against.

    python3 benchmark/record_expected.py > benchmark/expected.json

Run it only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from passrun import import_agp, rate_pass, recorded_outputs, suite_pass  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402


def record(agp, workload):
    _, kind, parallelism = WORKLOADS[workload]
    text = config_text(workload, DEFAULT_SEED)
    specs = agp.parse_config(text)
    if kind == "rate":
        _, results = rate_pass(agp.rate_experiment, specs)
    else:
        out = HERE.parent / ".benchmark_out" / "record" / workload
        out.mkdir(parents=True, exist_ok=True)
        _, results = suite_pass(agp, specs, text, out, parallelism)
    return [recorded_outputs(kind, spec, res) for spec, res in zip(specs, results)]


def main():
    agp = import_agp(HERE.parent)
    print(json.dumps({w: record(agp, w) for w in WORKLOADS}, indent=1))


if __name__ == "__main__":
    main()
