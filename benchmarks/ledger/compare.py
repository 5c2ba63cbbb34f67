"""Compare two ledger results: ``compare.py A B`` — A the parent, B the change.

Each side is a result document (``run.py --out``) or a JSON-lines file of
result documents (``history.jsonl``, ``steadiness.py --out``).  For every
(metric, workload) pair the program prints both medians, both spreads
(inter-quartile distance over median across the side's runs; ``-`` for a
single run) and a verdict against the metric's bound — from
``BENCHMARK.json`` for the gated metrics, the issue's for the ungated:

* ``regression`` — B's median is worse than A's by more than the bound
  (``worse`` for an ungated metric, which never fails the comparison);
* ``unresolved`` — a side's spread exceeds the bound, so the pair cannot
  be called either way;
* ``improved`` / ``ok`` otherwise.

More failed operations in B than in A is a regression whatever the
metrics say.  Exit status 1 on any regression, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from stats import end_to_end_bounds, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

Series = Dict[Tuple[str, str], List[float]]


def load(path: Path) -> Tuple[Series, Dict[str, int]]:
    """(workload, metric) → values over the runs in *path*; failed counts."""
    text = path.read_text().strip()
    try:
        documents = [json.loads(text)]
    except json.JSONDecodeError:
        documents = [json.loads(line) for line in text.splitlines() if line.strip()]
    series: Series = {}
    failed: Dict[str, int] = {}
    for document in documents:
        for workload, result in document["workloads"].items():
            failed[workload] = failed.get(workload, 0) + result["failed"]
            for name, metric in result["end_to_end"].items():
                series.setdefault((workload, name), []).append(metric["value"])
    return series, failed


def spread(values: List[float]) -> float:
    """Quartile spread over the runs of a side; NaN for a single run."""
    return quartile_spread(values) if len(values) > 1 else float("nan")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    (parent, parent_failed), (change, change_failed) = (load(Path(p)) for p in argv)
    regressions = 0
    print(
        f"{'workload':<16}{'metric':<22}{'A median':>13}{'A spread':>10}"
        f"{'B median':>13}{'B spread':>10}{'change':>9}  verdict"
    )
    for workload in (item["name"] for item in contract["workloads"]):
        for name, metric in end_to_end_bounds(contract).items():
            key = (workload, name)
            if key not in parent or key not in change:
                continue
            a, b = statistics.median(parent[key]), statistics.median(change[key])
            spreads = [spread(parent[key]), spread(change[key])]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            known = [value for value in spreads if value == value]
            if known and max(known) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regression" if metric["gated"] else "worse"
                regressions += metric["gated"]
            else:
                verdict = "improved" if worse < -metric["bound"] else "ok"
            shown = [f"{value:9.1%}" if value == value else f"{'-':>9}" for value in spreads]
            print(
                f"{workload:<16}{name:<22}{a:>13.4f} {shown[0]}"
                f"{b:>13.4f} {shown[1]}{(b - a) / a:>+9.1%}  {verdict}"
                f"{'' if metric['gated'] else ' (ungated)'}"
            )
        if change_failed.get(workload, 0) > parent_failed.get(workload, 0):
            print(
                f"{workload:<16}{'failed':<22}{parent_failed.get(workload, 0):>13}"
                f"{'':>10}{change_failed[workload]:>13}{'':>19}  regression"
            )
            regressions += 1
    print(f"compare: {regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
