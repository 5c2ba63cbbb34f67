"""Is the benchmark steady enough to gate on?  The driver's acceptance test.

    python benchmarks/ledger/steadiness.py [--out SET.jsonl]

Runs the ``BENCHMARK.json`` command ten times on each workload, each
time with another ``--seed`` (1, 2, ...), as the driver does, and
prints for every end-to-end metric the distance between the first and
third quartile of the runs as a share of their median
(``statistics.quantiles(values, n=4)``) beside the metric's bound.  For a
gated metric a spread above a third of the bound is marked ``loose`` and
one above the bound ``FAIL`` (``setup_s`` too, whose spread the driver
itself exempts); the ungated metrics are shown against the issue's
bounds, for the record.  With ``--out`` every run's result
document is appended to a JSON-lines file; ``compare.py`` takes two such
files and applies the other half of the driver's test, that the second
set's medians are not worse than the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import end_to_end_bounds, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUNS = 10


def one_run(command, workload: str, seed: int, seconds: int) -> dict:
    """One driver-style run; returns its result document."""
    with tempfile.TemporaryDirectory(prefix="ledger-steady-") as scratch:
        out = Path(scratch) / "out.json"
        done = subprocess.run(
            [
                *command, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0", "--out", str(out),
            ],  # fmt: skip
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            timeout=900,
        )
        if done.returncode != 0:
            sys.exit(f"steadiness: {workload} seed {seed} exited with {done.returncode}")
        return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = end_to_end_bounds(contract)
    worst = "ok"
    for workload in (item["name"] for item in contract["workloads"]):
        series: dict = {}
        started = time.monotonic()
        for seed in range(1, RUNS + 1):
            document = one_run(
                contract["command"], workload, seed, contract["run_seconds"]
            )
            for name, metric in document["workloads"][workload]["end_to_end"].items():
                series.setdefault(name, []).append(metric["value"])
            if args.out:
                for result in document["workloads"].values():
                    del result["detail"]  # bulky, and compare.py reads none of it
                with args.out.open("a") as sink:
                    sink.write(json.dumps(document) + "\n")
        elapsed = (time.monotonic() - started) / RUNS
        print(f"== {workload} ({RUNS} seeds, {elapsed:.1f} s per run) ==", flush=True)
        for name, metric in bounds.items():
            spread = quartile_spread(series[name])
            if not metric["gated"]:
                verdict = "ungated"
            elif spread > metric["bound"]:
                verdict = worst = "FAIL"
            elif spread > metric["bound"] / 3:
                verdict = "loose"
                worst = worst if worst == "FAIL" else "loose"
            else:
                verdict = "ok"
            print(
                f"   {name:<22} median {statistics.median(series[name]):>12.4f} "
                f"{metric['unit']:<6} spread {spread:6.1%}  bound {metric['bound']:4.0%}"
                f"  {verdict}"
            )
    print(f"steadiness: {worst}")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
