"""The three ablations and the aggregation extension (Sections VIII and X).

Each function is a driver like a figure's: rows time the variants with
``measure``; the shape checks are on results only — the variants of one
ablation return the same answer.

* :func:`index` — the envelope interval index vs. a sequential scan for
  ``σ_ovlp`` on ``D_sc``: the index answers "which tuples can satisfy the
  predicate at any reference time?", the ongoing predicate then runs only
  on the candidates;
* :func:`planner` — the Section VIII predicate split and join selection
  vs. ``optimize=False`` (every conjunct on the generic ongoing path,
  nested-loop joins) for ``Qσ_ovlp(B)`` and ``QC⋈_ovlp`` on MozillaBugs;
* :func:`predicates` — the gap-based predicates vs. the literal Table II
  compositions (:data:`repro.core.allen.COMPOSED_REFERENCE`: four
  ``less_than`` calls and three sweep-line conjunctions for ``overlaps``);
* :func:`aggregation` — RT-aware aggregation over a ``Qσ_ovlp(B)`` result,
  as ``Aggregate`` plans through ``Database.query``: the accumulators'
  COUNT vs. the naive one-step-per-tuple fold, and GROUP BY.
"""

from __future__ import annotations

import random

from repro.bench.harness import ExperimentResult, measure
from repro.core import allen
from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.timepoint import NOW, fixed
from repro.datasets import (
    ComplexJoinWorkload,
    SelectionWorkload,
    generate_dsc,
    generate_mozilla,
    last_tenth,
)
from repro.datasets import mozilla as mozilla_module
from repro.datasets import synthetic as synthetic_module
from repro.engine.database import Database
from repro.engine.indexes import IntervalIndex
from repro.engine.plan import scan

__all__ = ["aggregation", "index", "planner", "predicates"]

_MOZILLA_WINDOW = last_tenth(mozilla_module.HISTORY_START, mozilla_module.HISTORY_END)


def index(scale: float = 1.0) -> ExperimentResult:
    """Interval index probe and build vs. a sequential scan."""
    result = ExperimentResult(
        experiment="Ablation: index",
        title="Envelope interval index vs. sequential scan (σ_ovlp on D_sc)",
    )
    window = last_tenth(synthetic_module.HISTORY_START, synthetic_module.HISTORY_END)
    query = fixed_interval(*window)
    relation = generate_dsc(max(500, int(6_000 * scale)))
    position = relation.schema.index_of("VT")
    tree = IntervalIndex(relation, "VT")

    def overlapping(candidates):
        return [
            item
            for item in candidates
            if not allen.overlaps(item.values[position], query).is_always_false()
        ]

    for label, work in (
        ("sequential scan", lambda: overlapping(relation)),
        ("index probe", lambda: overlapping(tree.overlapping(*window))),
        ("index build", lambda: IntervalIndex(relation, "VT")),
    ):
        result.add_row(f"  {label:<16} {measure(work)}")
    scanned = overlapping(relation)
    result.add_row(f"  {len(scanned)} of {len(relation)} tuples qualify")
    result.add_check(
        "the index probe returns exactly the scan's non-empty result",
        bool(scanned)
        and frozenset(overlapping(tree.overlapping(*window))) == frozenset(scanned),
    )
    result.add_check("the index holds every tuple", tree.size == len(relation))
    return result


def planner(scale: float = 1.0) -> ExperimentResult:
    """The optimized plan vs. the naive one, selection and complex join."""
    result = ExperimentResult(
        experiment="Ablation: planner",
        title="Predicate split and join selection vs. the naive plan (MozillaBugs)",
    )
    for label, plan, bugs in (
        (
            "selection Qσ_ovlp(B)",
            SelectionWorkload("B", "overlaps", _MOZILLA_WINDOW).plan(),
            max(200, int(2_000 * scale)),
        ),
        (
            "complex join QC⋈_ovlp(A,S,B)",
            ComplexJoinWorkload("overlaps").plan(),
            max(60, int(300 * scale)),
        ),
    ):
        database = generate_mozilla(bugs).as_database()
        optimized = measure(lambda: database.query(plan))
        naive = measure(lambda: database.query(plan, optimize=False))
        answer = database.query(plan)
        result.add_row(
            f"  {label} ({bugs} bugs): optimized {optimized}, naive {naive}, "
            f"{len(answer)} tuples"
        )
        result.add_check(
            f"{label}: optimized and naive plans return the same non-empty result",
            len(answer) > 0 and answer == database.query(plan, optimize=False),
        )
    return result


def _interval_pool(count: int):
    rng = random.Random(99)
    pool = []
    for _ in range(count):
        start = rng.randrange(0, 2_000)
        if rng.random() < 0.2:
            pool.append(until_now(start))
        elif rng.random() < 0.2:
            pool.append(OngoingInterval(NOW, fixed(start + rng.randrange(1, 500))))
        else:
            pool.append(fixed_interval(start, start + rng.randrange(1, 400)))
    return pool


def predicates(scale: float = 1.0) -> ExperimentResult:
    """Gap-based predicates vs. their Table II compositions."""
    result = ExperimentResult(
        experiment="Ablation: predicates",
        title="Gap-based predicates vs. Table II compositions",
    )
    pool = _interval_pool(max(100, int(400 * scale)))
    query = fixed_interval(900, 1_200)

    def sweep(predicate):
        return [predicate(item, query) for item in pool]

    for name in ("overlaps", "before"):
        optimized = getattr(allen, name)
        composed = allen.COMPOSED_REFERENCE[name]
        result.add_row(
            f"  {name:<9} optimized {measure(lambda: sweep(optimized))}, "
            f"composed {measure(lambda: sweep(composed))} ({len(pool)} intervals)"
        )
        answers = sweep(optimized)
        result.add_check(
            f"{name}: both implementations agree on every interval",
            answers == sweep(composed)
            and any(not answer.is_always_false() for answer in answers),
        )
    return result


def aggregation(scale: float = 1.0) -> ExperimentResult:
    """The accumulators' COUNT vs. the naive fold, and GROUP BY."""
    result = ExperimentResult(
        experiment="Extension: aggregation",
        title="RT-aware aggregation over Qσ_ovlp(B) (MozillaBugs)",
    )
    database = generate_mozilla(max(200, int(2_000 * scale))).as_database()
    restricted = SelectionWorkload("B", "overlaps", _MOZILLA_WINDOW).run_ongoing(
        database
    )
    results = Database("aggregation")
    results.register("Q", restricted)

    def count():
        (row,) = results.query(scan("Q").group_by((), "count")).tuples
        return row.values[0]

    def fold():
        total = OngoingInt.constant(0)
        for item in restricted:
            total = total + OngoingInt.step(item.rt)
        return total

    def grouping(*aggregate):
        return lambda: results.query(scan("Q").group_by(("Component",), *aggregate))

    groupings = {
        "GROUP BY count": grouping("count"),
        "GROUP BY sum_duration": grouping("sum_duration", "VT"),
    }
    for label, work in (
        ("COUNT, accumulators", count),
        ("COUNT, naive fold", fold),
        *groupings.items(),
    ):
        result.add_row(f"  {label:<22} {measure(work)}")
    result.add_row(f"  over {len(restricted)} tuples")
    result.add_check("the accumulators' COUNT equals the naive fold", count() == fold())
    result.add_check(
        "GROUP BY count and sum_duration return groups",
        all(len(group()) > 0 for group in groupings.values()),
    )
    return result
