"""Property tests: planning choices never change results.

The contract of the planning layer: predicate pushdown, the
interval-scan access path, and every indexed operator state (the merge
join's sides, each an interval index; the difference's left rows, keyed
by their fixed attributes) are
pure *performance* artifacts — for any plan and any typed modification
sequence, a fully tuned evaluator (rewrites on, indexes forced on by
patching ``INDEX_THRESHOLD`` to 1) maintains a result byte-identical,
step for step, to a baseline evaluator with rewrites off (which reads
no access path and plans no merge join).

Three invariants ride along:

* neither side ever falls back to full re-evaluation on these typed
  sequences (a fallback would mean the equivalence proves nothing);
* :meth:`~repro.engine.delta.DeltaEvaluator.check_index_integrity`
  returns no problems after every flush — every operator's state agrees
  with itself, by the operator's own check;
* the equivalence holds at every reference time, not just on the
  uninstantiated rows — and, for every plan without an aggregate, both
  instantiate like the paper's definition
  (:func:`repro.baselines.clifford.evaluate_fixed`).
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import fixed_interval, until_now
from repro.engine import indexes
from repro.engine.database import Database
from repro.engine.delta import DeltaEvaluator
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)
from repro.engine.plan import Aggregate, scan
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

from tests.conftest import assert_fixed_semantics


def _plans():
    """Plans chosen so every new planning artifact is on the hot path."""
    window = lit(fixed_interval(10, 20))
    return {
        # Temporal selection over a scan: the IntervalScan access path.
        "temporal-select": scan("R").where(col("VT").overlaps(window)),
        # Empty-escape orientation: `during` with the column on the left
        # must NOT be indexed (an empty instantiation is during any
        # non-empty literal) — the planner has to prove it stays out.
        "during-select": scan("R").where(col("VT").during(window)),
        # Selection above a temporal join: pushdown moves it below the
        # join, and the merge join probes through its interval registry.
        "pushdown-merge-join": scan("R")
        .join(
            scan("S"),
            on=col("R.VT").overlaps(col("S.VT")),
            left_name="R",
            right_name="S",
        )
        .where(col("R.K") == lit(1)),
        # One-sided conjuncts inside a join predicate (where a WHERE
        # conjunct merged into the join lands), one fixed and one ongoing: pushdown
        # turns both into selections below the join, so the hash join
        # caches only the S rows that can ever match.
        "pushdown-join-predicate": scan("R").join(
            scan("S"),
            on=(col("R.K") == col("S.K"))
            & col("R.VT").overlaps(col("S.VT"))
            & (col("S.K") <= lit(2))
            & col("S.VT").overlaps(window),
            left_name="R",
            right_name="S",
        ),
        # Difference: the fixed-prefix partition index on the left cache.
        "difference": scan("R").difference(scan("S")),
        # Selection above a difference: the Difference pushdown rewrite.
        "pushdown-difference": scan("R")
        .difference(scan("S"))
        .where(col("VT").overlaps(window)),
        # GROUP BY: the member-set partition index, groups appearing and
        # emptying as modifications move rows.
        "group-count": scan("R").group_by(("K",), "count", output_name="n"),
        # Selection above the aggregate on a grouping column: the
        # Aggregate pushdown rewrite.
        "pushdown-aggregate": scan("R")
        .group_by(("K",), "count", output_name="n")
        .where(col("K") == lit(1)),
    }


PLAN_KEYS = sorted(_plans())


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)

_KEYS = st.integers(min_value=0, max_value=3)
_TIMES = st.integers(min_value=0, max_value=30)


def _intervals():
    return st.one_of(
        st.tuples(_TIMES).map(lambda t: until_now(t[0])),
        st.tuples(_TIMES, _TIMES).map(
            lambda pair: fixed_interval(min(pair), max(pair) + 2)
        ),
    )


_MODIFICATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from("RS"), _KEYS, _intervals()),
        st.tuples(st.just("current_insert"), st.sampled_from("RS"), _KEYS, _TIMES),
        st.tuples(st.just("current_delete"), st.sampled_from("RS"), _KEYS, _TIMES),
        st.tuples(
            st.just("current_update"), st.sampled_from("RS"), _KEYS, _KEYS, _TIMES
        ),
    ),
    min_size=1,
    max_size=6,
)


def _fresh_database() -> Database:
    db = Database("planner-props")
    r = db.create_table("R", Schema.of("K", ("VT", "interval")))
    s = db.create_table("S", Schema.of("K", ("VT", "interval")))
    r.insert(0, until_now(5))
    r.insert(1, until_now(3))
    r.insert(1, fixed_interval(8, 18))
    r.insert(1, fixed_interval(8, 18))  # a genuine duplicate row
    r.insert(2, until_now(12))
    r.insert(3, until_now(7))
    s.insert(0, until_now(9))
    s.insert(1, until_now(2))
    s.insert(1, fixed_interval(11, 25))
    s.insert(2, until_now(6))
    s.insert(3, until_now(1))
    return db


def _apply(db: Database, modification) -> None:
    kind, table_name = modification[0], modification[1]
    table = db.table(table_name)
    if kind == "insert":
        table.insert(modification[2], modification[3])
    elif kind == "current_insert":
        current_insert(table, (modification[2],), at=modification[3])
    elif kind == "current_delete":
        key = modification[2]
        current_delete(table, lambda r: r.values[0] == key, at=modification[3])
    else:  # current_update
        key = modification[2]
        current_update(
            table,
            lambda r: r.values[0] == key,
            (modification[3],),
            at=modification[4],
        )


def _capture_deltas(db, captured):
    db.add_delta_listener(
        lambda name, version, delta: captured.update(
            {name: delta if name not in captured else captured[name].merge(delta)}
        )
    )


@given(st.sampled_from(PLAN_KEYS), _MODIFICATIONS)
@settings(max_examples=100, deadline=None)
def test_tuned_and_baseline_evaluators_agree_step_for_step(
    plan_key, modifications
):
    """Rewrites + forced indexes vs. no rewrites + no indexes: identical
    maintained results after every flush, clean indexes throughout."""
    plan = _plans()[plan_key]
    db = _fresh_database()
    with patch.object(indexes, "INDEX_THRESHOLD", 1):
        tuned = DeltaEvaluator(plan, db)
        baseline = DeltaEvaluator(plan, db, optimize=False)
        tuned.refresh_full()
        baseline.refresh_full()
        captured = {}
        _capture_deltas(db, captured)
        for step, modification in enumerate(modifications):
            captured.clear()
            _apply(db, modification)
            tuned.apply(dict(captured))
            baseline.apply(dict(captured))
            got = tuned.result
            want = baseline.result
            assert got.schema == want.schema
            assert frozenset(got.tuples) == frozenset(want.tuples), (
                f"{plan_key}: tuned plan diverged at step {step} "
                f"after {modification!r}"
            )
            problems = tuned.check_index_integrity()
            assert problems == [], (
                f"{plan_key}: index drifted at step {step}: {problems}"
            )
    # Typed modifications only — both sides must have stayed incremental.
    assert tuned.full_evaluations == 1
    assert baseline.full_evaluations == 1
    assert tuned.delta_applications == len(modifications)
    assert baseline.delta_applications == len(modifications)


@given(st.sampled_from(PLAN_KEYS), _MODIFICATIONS)
@settings(max_examples=40, deadline=None)
def test_tuned_plan_instantiates_like_a_fresh_query(plan_key, modifications):
    """The equivalence holds at every reference time: the tuned
    maintained result instantiates exactly like a from-scratch
    (unoptimized, unindexed) evaluation — and, below no aggregate, like
    ``evaluate_fixed`` at every critical point."""
    plan = _plans()[plan_key]
    db = _fresh_database()
    with patch.object(indexes, "INDEX_THRESHOLD", 1):
        tuned = DeltaEvaluator(plan, db)
        tuned.refresh_full()
        captured = {}
        _capture_deltas(db, captured)
        for modification in modifications:
            _apply(db, modification)
        tuned.apply(dict(captured))
    expected = db.query(plan, optimize=False)
    for rt in range(-2, 35):
        assert tuned.result.instantiate(rt) == expected.instantiate(rt)
    assert tuned.check_index_integrity() == []
    if not any(isinstance(node, Aggregate) for node in _nodes(plan)):
        assert_fixed_semantics(plan, db, tuned.result, expected)
