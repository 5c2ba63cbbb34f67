"""Fig. 10 — scalability with the number of input tuples (Qσ_ovlp on D_sc).

Both approaches are evaluated at growing input sizes.  Paper shapes: the
ongoing approach scales **linearly**, like Clifford's, so the number of
re-evaluations after which the ongoing approach wins stays **constant** as
the input grows.
"""

from __future__ import annotations

import statistics
from typing import List

from repro.baselines.clifford import cliff_max_reference_time
from repro.bench.harness import (
    ExperimentResult,
    breakeven_reevaluations,
    measure,
)
from repro.datasets import SelectionWorkload, generate_dsc, last_tenth, synthetic_database
from repro.datasets import synthetic as synthetic_module

__all__ = ["run"]


def run(scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Fig. 10", title="Scalability with input size (Qσ_ovlp on D_sc)"
    )
    base = max(500, int(4_000 * scale))
    sizes = [base, 2 * base, 3 * base, 4 * base]
    argument = last_tenth(
        synthetic_module.HISTORY_START, synthetic_module.HISTORY_END
    )
    workload = SelectionWorkload("R", "overlaps", argument)

    ongoing_ms: List[float] = []
    clifford_ms: List[float] = []
    breakevens: List[int] = []
    result.add_row(f"{'tuples':>10} {'ongoing':>14} {'Cliff_max':>14} {'break-even':>11}")
    for size in sizes:
        relation = generate_dsc(size)
        database = synthetic_database(relation)
        rt = cliff_max_reference_time(relation)
        ongoing = measure(lambda: workload.run_ongoing(database))
        clifford = measure(lambda: workload.run_clifford(database, rt))
        breakeven = breakeven_reevaluations(ongoing.seconds, clifford.seconds)
        ongoing_ms.append(ongoing.millis)
        clifford_ms.append(clifford.millis)
        breakevens.append(breakeven)
        result.add_row(
            f"{size:>10} {ongoing!s:>14} {clifford!s:>14} {breakeven:>11}"
        )
    result.data["sizes"] = sizes
    result.data["ongoing_ms"] = ongoing_ms
    result.data["clifford_ms"] = clifford_ms
    result.data["breakevens"] = breakevens

    # Linearity: a least-squares line through all four medians; every size
    # must lie within 0.5x..2x of it.
    slope, intercept = statistics.linear_regression(sizes, ongoing_ms)
    fitted = [intercept + slope * size for size in sizes]
    ratios = [
        measured / line if line > 0 else float("inf")
        for measured, line in zip(ongoing_ms, fitted)
    ]
    result.add_row(f"fitted slope: {1_000 * slope:.3f} ms per 1k tuples")
    result.add_row(
        "largest relative residual: "
        f"{max(abs(ratio - 1) for ratio in ratios):.1%}"
    )
    result.add_check(
        "ongoing runtime grows linearly (every size 0.5x..2x of the fit)",
        all(0.5 <= ratio <= 2.0 for ratio in ratios),
    )
    result.add_check(
        "break-even stays constant as input grows (spread ≤ 2)",
        max(breakevens) - min(breakevens) <= 2,
    )
    return result
