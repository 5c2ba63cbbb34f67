"""Property tests: delta-maintained aggregates are *exact*.

The aggregate extension of the delta-engine contract
(``tests/properties/test_delta_properties.py``).  A group is its
accumulators (:mod:`repro.engine.accumulators`): every changed row adds
or retracts its own boundary events and the touched groups' maps are
walked into their output rows.  For any GROUP BY plan and any sequence
of typed modifications that must produce — step for step — rows **equal
and hash-equal** to a from-scratch cold build, and instantiations equal,
at every critical point of every ongoing value in play, to the
aggregate's definition: :func:`repro.baselines.clifford.evaluate_pointwise`,
the fixed GROUP BY over the bag of the child's ongoing tuples present
at rt (``tests/engine/test_oracle_independence.py`` keeps it apart from
the engine).  The child itself is held to the paper's definition,
:func:`repro.baselines.clifford.evaluate_fixed`, which an aggregate does
not reduce to (it counts ongoing tuples, not bound rows).

The plans cover what the ledger's pool cannot reach: several specs in
one GROUP BY (``count + avg``), HAVING over an ongoing count, ``avg``
and ``sum_duration`` over an ongoing filter and over a join — members
whose RT is not universal — the scalar forms, and base rows whose RT has
several intervals.  The modification sequences (the PR-2 generator
shapes, with an extra fixed numeric column for MIN/MAX and plain row
deletions so groups can *empty*, not just terminate) drive
group-appears and group-empties transitions: keys enter with their first
member, leave with their last and come back under the same key, a batch
deletes and re-inserts an equal row, and the scalar plan must flip
between real counts and the constant-0 empty row.

Because every modification is typed, the incremental path must never fall
back to full re-evaluation — asserted, so the test cannot silently pass
by re-running everything — and ``check_index_integrity()`` (each output
row ≡ the row its group's accumulators walk to) stays clean.

**Mutation-checked.**  Each of these mutants of
``repro/engine/accumulators.py`` fails this file:

* *wrong sign at an interval's end boundary when retracting*
  (``add_segment`` always subtracting ``abs(intercept)`` at the end
  event, right for +1 and wrong for -1) — the first delete leaves a
  group's count off by two beyond the member's RT;
* *not pruning a zero event* (``add_event`` keeping ``[0, 0]``) — an
  emptied group's maps do not cancel, which is a
  ``NonIncrementalDelta``: ``full_refreshes`` leaves 0;
* *starting the walk at the first event instead of -inf* (``walk`` with
  ``cursor = min(events)``) — a group whose first member does not reach
  back to ``-inf`` yields segments that do not cover T.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.engine.database import Database
from repro.engine.delta import Delta
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)
from repro.engine.plan import Aggregate, scan
from repro.engine.planner import plan_query
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import assert_fixed_semantics, assert_reference_semantics

_WINDOW = lit(fixed_interval(10, 20))
_IN_WINDOW = col("VT").overlaps(_WINDOW)
_ON = (col("R.K") == col("S.K")) & col("R.VT").overlaps(col("S.VT"))
_COUNT_AVG = [("count", None, "n"), ("avg", "N", "mean")]
_OVER_JOIN = [("avg", "R.N", "mean"), ("sum_duration", "R.VT", "load")]
_MANY = col("n") > lit(1)


def _joined():
    return scan("R").join(scan("S"), on=_ON, left_name="R", right_name="S")


#: plan key → logical plan over R and S, one per aggregate delta shape.
_PLANS = {
    "scalar-count": scan("R").group_by((), "count"),
    "group-count": scan("R").group_by(("K",), "count", output_name="n"),
    "group-sum-duration": scan("R").group_by(("K",), "sum_duration", "VT"),
    "group-min": scan("R").group_by(("K",), "min", "N"),
    "group-max": scan("R").group_by(("K",), "max", "N"),
    # Aggregation over an ongoing filter: a current update can move
    # rows across the window, so whole groups appear and empty at the
    # aggregate even though their base rows remain.
    "filtered-group-count": scan("R").where(_IN_WINDOW).group_by(("K",), "count"),
    "scalar-filtered-count": scan("R").where(_IN_WINDOW).group_by((), "count"),
    # The ledger's G1 and G2 shapes: several specs over one coverage
    # map, and a selection over the ongoing count.
    "group-count-avg": scan("R").group_by(("K",), specs=_COUNT_AVG),
    "having-count": (
        scan("R").group_by(("K",), "count", output_name="n").where(_MANY)
    ),
    # Members whose RT is not universal: below a filter and below a join.
    "filtered-group-avg": scan("R").where(_IN_WINDOW).group_by(("K",), "avg", "N"),
    "filtered-group-sum-duration": (
        scan("R").where(_IN_WINDOW).group_by(("K",), "sum_duration", "VT")
    ),
    "joined-group-avg-sum-duration": _joined().group_by(("R.K",), specs=_OVER_JOIN),
    "scalar-count-avg": scan("R").group_by((), specs=_COUNT_AVG),
    "scalar-filtered-sum-duration": (
        scan("R").where(_IN_WINDOW).group_by((), "sum_duration", "VT")
    ),
    "scalar-joined-avg-sum-duration": _joined().group_by((), specs=_OVER_JOIN),
}


PLAN_KEYS = sorted(_PLANS)

_KEYS = st.integers(min_value=0, max_value=3)
_NUMS = st.integers(min_value=-5, max_value=5)
_TIMES = st.integers(min_value=0, max_value=30)


def _intervals():
    return st.one_of(
        st.tuples(_TIMES).map(lambda t: until_now(t[0])),
        st.tuples(_TIMES, _TIMES).map(
            lambda pair: fixed_interval(min(pair), max(pair) + 2)
        ),
    )


def _reference_times():
    """A non-universal RT of one to three intervals."""
    return st.lists(_TIMES, min_size=2, max_size=6, unique=True).map(
        lambda cuts: IntervalSet(
            pair for pair in zip(sorted(cuts)[::2], sorted(cuts)[1::2])
        )
    )


_INSERTS = (
    st.tuples(st.just("insert"), _KEYS, _NUMS, _intervals()),
    st.tuples(st.just("current_insert"), _KEYS, _NUMS, _TIMES),
    # A base row that is itself a query result: several RT intervals.
    st.tuples(
        st.just("insert_rt"), _KEYS, _NUMS, _intervals(), _reference_times()
    ),
)
_DELETES = (
    st.tuples(st.just("current_delete"), _KEYS, _TIMES),
    # A plain deletion removes the rows outright — the only way a
    # group's member set truly empties under Torp-style updates.
    st.tuples(st.just("delete_rows"), _KEYS),
    st.tuples(st.just("delete_nth"), st.integers(min_value=0, max_value=9)),
)
_REWRITES = (
    st.tuples(st.just("current_update"), _KEYS, _KEYS, _NUMS, _TIMES),
    # One batch deletes a row and inserts an equal one.
    st.tuples(st.just("reinsert_nth"), st.integers(min_value=0, max_value=9)),
    # One batch empties a group and founds it again under the same key.
    st.tuples(st.just("recreate"), _KEYS, _NUMS, _intervals()),
)

_MODIFICATIONS = st.lists(
    st.one_of(*_INSERTS, *_DELETES, *_REWRITES), min_size=1, max_size=6
)
_DELETE_HEAVY = st.lists(
    st.one_of(*_DELETES, *_DELETES, *_REWRITES, *_INSERTS),
    min_size=3,
    max_size=10,
)


def _fresh_database() -> Database:
    db = Database("aggregate-props")
    table = db.create_table("R", Schema.of("K", "N", ("VT", "interval")))
    table.insert(0, 2, until_now(5))
    table.insert(1, -1, until_now(3))
    table.insert(1, 4, fixed_interval(8, 18))
    table.insert(2, 0, until_now(12))
    other = db.create_table("S", Schema.of("K", ("VT", "interval")))
    other.insert(0, until_now(9))
    other.insert(1, fixed_interval(2, 11))
    other.insert(1, until_now(15))
    other.insert(3, fixed_interval(0, 40))
    return db


def _apply(db: Database, modification) -> None:
    kind = modification[0]
    table = db.table("R")
    if kind == "insert":
        table.insert(modification[1], modification[2], modification[3])
    elif kind == "insert_rt":
        table.insert_tuples(
            [OngoingTuple(modification[1:4], modification[4])]
        )
    elif kind == "current_insert":
        current_insert(
            table, (modification[1], modification[2]), at=modification[3]
        )
    elif kind == "current_delete":
        key = modification[1]
        current_delete(table, lambda r: r.values[0] == key, at=modification[2])
    elif kind == "current_update":
        key = modification[1]
        current_update(
            table,
            lambda r: r.values[0] == key,
            (modification[2], modification[3]),
            at=modification[4],
        )
    elif kind == "delete_rows":  # drop the key's rows (the group empties)
        key = modification[1]
        table.delete_where(lambda r: r.values[0] != key)
    elif kind == "recreate":
        key = modification[1]
        with table.batch():
            table.delete_where(lambda r: r.values[0] != key)
            table.insert(key, modification[2], modification[3])
    elif len(table):  # delete_nth / reinsert_nth: one present row
        rows = tuple(table.rows())
        row = rows[modification[1] % len(rows)]
        with table.batch():
            table.apply_delta(Delta.delete([row]))
            if kind == "reinsert_nth":
                table.insert_tuples([row])


def _hashed(relation):
    """``row → hash(row)``: equal only if rows are equal *and* hash-equal."""
    return {row: hash(row) for row in relation.tuples}


def _assert_matches_the_oracle(db, plan_key, result, context=""):
    """*result* instantiates like ``evaluate_pointwise`` over the cold
    build of the aggregate's child, held to ``evaluate_fixed`` first, at
    every critical point; and its rows are equal and hash-equal to a cold
    build.  A HAVING above the aggregate runs over the aggregate's cold
    build — itself held to ``evaluate_pointwise`` — as a table, and is
    held to ``evaluate_fixed`` there."""
    plan = _PLANS[plan_key]
    context = (plan_key, context)
    if isinstance(plan, Aggregate):
        assert_reference_semantics(plan, db, result, context=context)
    else:
        groups = Database("groups")
        aggregate = plan.child
        table = groups.register("G", db.query(aggregate))
        assert_reference_semantics(
            aggregate, db, table.as_relation(), context=context
        )
        having = scan("G").where(plan.predicate)
        assert_fixed_semantics(having, groups, result, context=context)
    expected = db.query(plan)
    assert result.schema.names == expected.schema.names
    assert _hashed(result) == _hashed(expected), context


def _assert_incremental_and_clean(session):
    assert session.stats()["repro_live_full_refreshes_total"] == 0
    for maintainer in session.shared_results():
        assert maintainer._evaluator.check_index_integrity() == []


@given(st.sampled_from(PLAN_KEYS), _MODIFICATIONS)
@settings(max_examples=120)
def test_delta_maintained_aggregates_equal_full_reevaluation(
    plan_key, modifications
):
    """After every modification, the delta-maintained aggregate result is
    byte-identical to a from-scratch evaluation — and no step fell back."""
    plan = _PLANS[plan_key]
    db = _fresh_database()
    session = LiveSession(db)
    sub = session.subscribe(plan)
    for step, modification in enumerate(modifications):
        _apply(db, modification)
        session.flush()
        expected = db.query(plan)
        assert sub.result == expected, (
            f"{plan_key}: delta-maintained aggregate diverged at step {step} "
            f"after {modification!r}"
        )
    assert session.stats()["repro_live_full_refreshes_total"] == 0


@given(st.sampled_from(PLAN_KEYS), _MODIFICATIONS)
@settings(max_examples=40)
def test_aggregate_instantiations_agree_at_all_reference_times(
    plan_key, modifications
):
    """Exactness through the bind operator: the maintained aggregate
    instantiates identically to a fresh evaluation at every rt."""
    plan = _PLANS[plan_key]
    db = _fresh_database()
    session = LiveSession(db)
    sub = session.subscribe(plan)
    for modification in modifications:
        _apply(db, modification)
    session.flush()
    expected = db.query(plan)
    for rt in range(-2, 35):
        assert sub.instantiate(rt) == expected.instantiate(rt)
    assert session.stats()["repro_live_full_refreshes_total"] == 0


@given(st.sampled_from(PLAN_KEYS), st.one_of(_MODIFICATIONS, _DELETE_HEAVY))
@settings(max_examples=400, deadline=None)
def test_accumulated_rows_are_the_oracles_rows_after_every_flush(
    plan_key, modifications
):
    """The contract: after every flush the maintained result is the
    aggregate's pointwise definition on the tables at every critical
    point, and a cold build's rows, equal and hash-equal — incrementally,
    with each
    output row still the row its group's accumulators walk to.  A fresh
    cold build (``db.query``) lands on the same rows."""
    plan = _PLANS[plan_key]
    db = _fresh_database()
    session = LiveSession(db)
    sub = session.subscribe(plan)
    _assert_matches_the_oracle(db, plan_key, sub.result, "cold")
    for step, modification in enumerate(modifications):
        _apply(db, modification)
        session.flush()
        _assert_matches_the_oracle(
            db, plan_key, sub.result, (step, modification)
        )
        _assert_incremental_and_clean(session)
    _assert_matches_the_oracle(db, plan_key, db.query(plan), "re-evaluated")


@pytest.mark.parametrize("plan_key", PLAN_KEYS)
def test_a_group_empties_and_returns_under_the_same_key(plan_key):
    """Delete-heavy by construction: every group loses its members one
    flush at a time until the table is empty (the scalar plans fall back
    to the constant row), every key is then founded again, a row is
    deleted and re-inserted in one batch, and a group is emptied and
    re-created inside one batch."""
    plan = _PLANS[plan_key]
    db = _fresh_database()
    table = db.table("R")
    table.insert_tuples(
        [OngoingTuple((2, 3, until_now(1)), IntervalSet([(4, 9), (14, 25)]))]
    )
    session = LiveSession(db)
    sub = session.subscribe(plan)
    founders = tuple(table.rows())
    stream = [("delete_nth", 0)] * len(founders)
    stream += [("insert_rt", *row.values, row.rt) for row in reversed(founders)]
    stream += [("reinsert_nth", 1), ("recreate", 1, 5, until_now(11))]
    stream += [("delete_rows", key) for key in (1, 0, 2)]
    for step, modification in enumerate(stream):
        _apply(db, modification)
        session.flush()
        _assert_matches_the_oracle(
            db, plan_key, sub.result, (step, modification)
        )
        _assert_incremental_and_clean(session)
    assert len(table) == 0


def test_a_delete_and_insert_of_an_equal_row_in_one_delta_is_silent():
    """Below a scan the pair nets out at the table; fed to the operator
    directly it folds -1 then +1 into the same events and emits nothing."""
    db = _fresh_database()
    operator = plan_query(scan("R").group_by(("K",), specs=_COUNT_AVG), db)
    state = operator.delta_state()
    rows = tuple(db.relation("R").tuples)
    operator.evaluate(state, (rows,))
    before = dict(state.counts)
    delta = operator.apply_delta(state, (Delta(rows[:2], rows[:2]),))
    assert delta.is_empty() and state.counts == before
