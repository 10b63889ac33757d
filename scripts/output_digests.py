"""Print a sha256 digest of every output of the benchmark workloads.

    python scripts/output_digests.py ROOT

imports ``agp`` from ``ROOT/src`` only (with the benchmark's
``import_agp``), builds the config text of every workload in
``benchmark/workloads.py`` at seeds 0 and 1, and prints one
``sha256  workload/seed/item`` line per output.  The benchmark code is that
of the checkout this script sits in, so every root sees the same input:

- every workload runs ``rate_experiment`` on each of its ``agp`` specs: one
  line per spec for its table, slope and ``partial`` flag;
- every workload also runs ``run`` on each of its ``agp`` specs: one line
  per spec over ``repr`` of its ``validate`` report, of its
  ``lemma_monitor`` report and of its ``theory_constants``, or the error
  text where one raises;
- a ``suite`` workload also runs through ``run_suite`` serially: one line
  per column of each CSV trace (``runNNN.csv:monitor_slack``, over the
  column's header and values), so a diff names the column that moved, and
  one for ``summary.json`` with its ``wall_time_s`` fields dropped, the
  only fields that vary between runs;
- at seed 0, every workload also runs through the ``solve``, ``rate``,
  ``check`` and ``compare`` subcommands of ``agp.bench.main`` at
  ``--parallelism`` 1 and 2: one line per command and setting over its exit
  code, its stdout and every file it writes (``summary.json`` without its
  ``wall_time_s`` fields).

Two checkouts produce the same outputs when the script prints the same
lines for both::

    python scripts/output_digests.py /path/to/a > a.txt
    python scripts/output_digests.py /path/to/b > b.txt
    diff a.txt b.txt

The script calls the library as the checkout it sits in defines it: here
``lemma_monitor(trace)`` and ``theory_constants(trace)``.  When those
signatures differ between the two roots, digest each root with its own
checkout's script (``/path/to/a/scripts/output_digests.py /path/to/a``);
a root on other signatures would record a ``TypeError`` line instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
from passrun import import_agp  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

SEEDS = (0, 1)
CLI_COMMANDS = ("solve", "rate", "check", "compare")
CLI_PARALLELISM = (1, 2)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timing_free_summary(path) -> bytes:
    """``summary.json`` without its ``wall_time_s`` fields."""
    summary = json.loads(path.read_text())
    for run in summary["runs"]:
        del run["wall_time_s"]
    return json.dumps(summary, indent=2).encode()


def column_digests(path):
    """``(item, digest)`` of each column of the CSV at ``path``: one sha256
    over the column's header and its values, one per line."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for column in zip(*rows):
        yield f"{path.name}:{column[0]}", digest("\n".join(column).encode())


def suite_digests(agp, text, out_dir):
    """``(item, digest)`` of each CSV column and of the timing-free summary."""
    agp.run_suite(agp.parse_config(text), parallelism=1, out_dir=out_dir,
                  config_echo=text)
    for csv in sorted(out_dir.glob("*.csv")):
        yield from column_digests(csv)
    yield "summary.json", digest(timing_free_summary(out_dir / "summary.json"))


def rate_digests(agp, text):
    """``(item, digest)`` of the rate table of each ``agp`` spec."""
    for spec in agp.parse_config(text):
        if spec.solver != "agp":
            continue
        res = agp.rate_experiment(spec.problem, spec.regime_cfg, spec.eps_grid,
                                  spec.max_iter, spec.init)
        table = {"table": res.table, "slope": res.slope, "partial": res.partial}
        yield f"rate{spec.index:03d}", digest(json.dumps(table).encode())


def _repr_or_error(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def verify_digests(agp, text):
    """``(item, digest)`` over the validation report of each ``agp`` spec's
    config, and the monitor report and the bound constants of its run."""
    for spec in agp.parse_config(text):
        if spec.solver != "agp":
            continue
        trace = agp.run(spec.problem, spec.regime_cfg, spec.eps, spec.max_iter, spec.init)
        data = "\n".join((_repr_or_error(agp.validate, spec.regime_cfg,
                                         spec.problem.constants),
                          _repr_or_error(agp.lemma_monitor, trace),
                          _repr_or_error(agp.theory_constants, trace)))
        yield f"verify{spec.index:03d}", digest(data.encode())


def cli_digests(agp, text, tmp):
    """``(item, digest)`` of each CLI command and parallelism: one sha256
    over the exit code, the stdout and the sorted files of the output
    directory."""
    tmp.mkdir(parents=True)
    cfg = tmp / "workload.cfg"
    cfg.write_text(text)
    for cmd in CLI_COMMANDS:
        for p in CLI_PARALLELISM:
            out_dir = tmp / f"{cmd}-p{p}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = agp.bench.main([cmd, str(cfg), "--out-dir", str(out_dir),
                                       "--parallelism", str(p)])
            h = hashlib.sha256(f"exit {code}\n{stdout.getvalue()}".encode())
            for f in sorted(out_dir.glob("*")):
                data = (timing_free_summary(f) if f.name == "summary.json"
                        else f.read_bytes())
                h.update(f.name.encode() + b"\0" + data)
            yield f"{cmd}-p{p}", h.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: output_digests.py ROOT", file=sys.stderr)
        return 2
    agp = import_agp(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, kind, _) in WORKLOADS.items():
            for seed in SEEDS:
                text = config_text(name, seed)
                items = list(rate_digests(agp, text))
                items += verify_digests(agp, text)
                if kind == "suite":
                    items += suite_digests(agp, text, Path(tmp) / name / str(seed))
                if seed == 0:
                    items += cli_digests(agp, text, Path(tmp) / name / "cli")
                for item, sha in items:
                    print(f"{sha}  {name}/{seed}/{item}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
