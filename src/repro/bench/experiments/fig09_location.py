"""Fig. 9 — effect of the *location* of ongoing intervals on join runtime.

The 10-year history splits into five 2-year segments.  ``D_ex`` places all
expanding-interval start points into one chosen segment; ``D_sh`` places
all shrinking-interval end points there.  The join ``Q⋈_ovlp`` (equality on
the group attribute plus temporal overlaps) runs per segment for:

* the ongoing approach,
* ``Cliff_max`` (one evaluation), and
* the "without ongoing intervals" baseline — the same data with every
  ongoing interval replaced by a fixed one, run through the *same* ongoing
  engine; it isolates the pure cost of ongoing-interval processing.

Paper shapes: for ``D_ex`` the ongoing runtime *decreases* as the segment
moves later (late-starting expanding intervals overlap fewer partners);
for ``D_sh`` it *increases* (late end points mean longer instantiated
durations); and the baseline accounts for the bulk of the runtime — join
processing dominates, the ongoing overhead is bounded.
"""

from __future__ import annotations

from typing import List

from repro.baselines.clifford import cliff_max_reference_time
from repro.bench.harness import ExperimentResult, Measurement, measure
from repro.datasets import (
    TemporalJoinWorkload,
    generate_dex,
    generate_dsh,
    strip_ongoing,
    synthetic_database,
)
from repro.datasets.synthetic import SEGMENTS

__all__ = ["run"]


def _segment_runtimes(make_dataset, workload: TemporalJoinWorkload, scale: float):
    """Per segment: the ongoing, Clifford and without-ongoing measurements."""
    ongoing: List[Measurement] = []
    clifford: List[Measurement] = []
    baseline: List[Measurement] = []
    n_rows = max(100, int(1_500 * scale))
    for segment in range(SEGMENTS):
        relation = make_dataset(n_rows, segment=segment)
        database = synthetic_database(relation)
        rt = cliff_max_reference_time(relation)
        ongoing.append(measure(lambda: workload.run_ongoing(database)))
        clifford.append(measure(lambda: workload.run_clifford(database, rt)))
        stripped_db = synthetic_database(strip_ongoing(relation))
        baseline.append(measure(lambda: workload.run_ongoing(stripped_db)))
    return ongoing, clifford, baseline


def run(scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Fig. 9", title="Location of ongoing time intervals (Q⋈_ovlp)"
    )
    workload = TemporalJoinWorkload("R", "overlaps")

    for label, generator in (("D_ex", generate_dex), ("D_sh", generate_dsh)):
        ongoing, clifford, baseline = _segment_runtimes(generator, workload, scale)
        ongoing_ms = [m.millis for m in ongoing]
        clifford_ms = [m.millis for m in clifford]
        baseline_ms = [m.millis for m in baseline]
        result.add_row(f"{label} (segment 0 = earliest):")
        result.add_row(
            "  segment    " + " ".join(f"{s:>9}" for s in range(SEGMENTS))
        )
        result.add_row(
            "  w/out ong. " + " ".join(f"{v:8.0f}m" for v in baseline_ms)
        )
        result.add_row(
            "  ongoing    " + " ".join(f"{v:8.0f}m" for v in ongoing_ms)
        )
        result.add_row(
            "  Cliff_max  " + " ".join(f"{v:8.0f}m" for v in clifford_ms)
        )
        spread = max(m.spread for m in (*ongoing, *clifford, *baseline))
        result.add_row(f"  (medians in ms; quartile spread ≤ {spread:.0%})")
        result.data[f"{label}_ongoing_ms"] = ongoing_ms
        result.data[f"{label}_baseline_ms"] = baseline_ms
        result.data[f"{label}_clifford_ms"] = clifford_ms

        if label == "D_ex":
            result.add_check(
                "D_ex: ongoing runtime decreases toward later segments",
                ongoing_ms[0] > ongoing_ms[-1],
            )
        else:
            result.add_check(
                "D_sh: ongoing runtime increases toward later segments",
                ongoing_ms[-1] > ongoing_ms[0],
            )
        average_share = sum(
            without / with_ongoing
            for without, with_ongoing in zip(baseline_ms, ongoing_ms)
        ) / SEGMENTS
        result.add_row(
            f"  baseline accounts for {average_share:.0%} of the ongoing "
            f"runtime (paper: 80-90%)"
        )
        result.add_check(
            f"{label}: join processing dominates (baseline ≥ 50% of ongoing)",
            average_share >= 0.50,
        )
    return result
