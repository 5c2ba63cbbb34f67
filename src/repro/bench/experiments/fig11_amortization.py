"""Fig. 11 — amortization of instantiated results via a materialized result.

Applications that want *fixed* results at different reference times can
materialize the ongoing result once and instantiate it per reference time
(Section IX-C).  The amortization count is the number of instantiations
after which this is cheaper than Clifford's re-evaluation::

    ongoing_eval + n * instantiate   <=   n * clifford_eval

measured for the selection ``Qσ_ovlp(B)`` and the complex join
``QC⋈_ovlp(A, S, B)`` on MozillaBugs at growing input sizes (grow-backward
scaling).  ``ongoing_eval`` is a cold ``database.query(workload.plan())``,
the build a subscription starts from, and ``instantiate`` is
``OngoingRelation.instantiate(rt)`` on the relation it returns.  The timed
build excludes the tables' per-version caches (``Table.interval_index`` /
``Table.partition_index``): no run writes a table, so ``measure``'s
warm-up builds them and every timed run reads them, like a stored index.
Paper shapes: both amortize below ~2 instantiations at every size; the
selection's count is flat, the complex join's increases slightly
(Clifford's plan is a linear-time hash join, the ongoing plan pays a
log-linear component).
"""

from __future__ import annotations

import math
from typing import List

from repro.baselines.clifford import cliff_max_reference_time
from repro.bench.harness import (
    ExperimentResult,
    amortization_instantiations,
    measure,
)
from repro.datasets import ComplexJoinWorkload, SelectionWorkload, generate_mozilla, last_tenth
from repro.datasets import mozilla as mozilla_module

__all__ = ["run"]


def run(scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Fig. 11", title="Amortization via materialized results (MozillaBugs)"
    )
    full_bugs = max(800, int(8_000 * scale))
    full = generate_mozilla(full_bugs)
    sizes = [full_bugs // 4, full_bugs // 2, (3 * full_bugs) // 4, full_bugs]
    argument = last_tenth(mozilla_module.HISTORY_START, mozilla_module.HISTORY_END)

    selection = SelectionWorkload("B", "overlaps", argument)
    complex_join = ComplexJoinWorkload("overlaps")

    for label, workload in (
        ("selection Qσ_ovlp(B)", selection),
        ("complex join QC⋈_ovlp(A,S,B)", complex_join),
    ):
        result.add_row(f"{label}:")
        result.add_row(
            f"  {'bugs':>8} {'ongoing':>14} {'instantiate':>14} "
            f"{'Cliff_max':>14} {'# inst. for amortization':>25}"
        )
        ongoing_ms: List[float] = []
        instantiate_ms: List[float] = []
        amortizations: List[float] = []
        for size in sizes:
            dataset = full.slice_recent(size)
            database = dataset.as_database()
            rt = cliff_max_reference_time(dataset.bug_info)
            plan = workload.plan()
            materialized = database.query(plan)
            ongoing = measure(lambda: database.query(plan))
            instantiate = measure(lambda: materialized.instantiate(rt))
            clifford = measure(lambda: workload.run_clifford(database, rt))
            amortization = amortization_instantiations(
                ongoing.seconds, instantiate.seconds, clifford.seconds
            )
            ongoing_ms.append(ongoing.millis)
            instantiate_ms.append(instantiate.millis)
            amortizations.append(amortization)
            shown = "inf" if math.isinf(amortization) else f"{amortization:.2f}"
            result.add_row(
                f"  {size:>8} {ongoing!s:>14} {instantiate!s:>14} "
                f"{clifford!s:>14} {shown:>25}"
            )
        result.data[f"ongoing_ms[{label}]"] = ongoing_ms
        result.data[f"instantiate_ms[{label}]"] = instantiate_ms
        result.data[f"amortization[{label}]"] = amortizations
        # At the smallest sizes the margin (clifford - instantiate) is a
        # few milliseconds, so a single scheduler hiccup can blow the
        # ratio up; tolerate one outlier among the sizes.
        finite = [a for a in amortizations if math.isfinite(a)]
        within = sum(1 for a in finite if a <= 8)
        result.add_check(
            f"{label}: amortizes after a handful of instantiations "
            f"(≤ 8, at all but at most one size)",
            len(finite) == len(amortizations)
            and within >= len(amortizations) - 1,
        )
    return result
