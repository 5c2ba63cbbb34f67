"""What a maintained aggregate costs, pinned where it was measured
(constructor counts and tracemalloc, no clock).

The sequel of ``test_state_memory_bounds.py`` for ``AggregateOp``: a
group is its accumulators, not its members.  One changed row in a large
group folds its own events and walks the group's maps — it builds a
handful of ongoing values and never revisits a member; the state of an
invertible aggregate is a few map entries per group however large the
input; and the membership test the member sets used to carry is replaced
by conservation checks that send an inconsistent delta to the automatic
full refresh.
"""

import gc
import tracemalloc

import pytest

from repro.core.integer import OngoingInt
from repro.core.interval import until_now
from repro.core.intervalset import IntervalSet
from repro.engine.database import Database
from repro.engine.delta import Delta, DeltaEvaluator
from repro.engine.plan import scan
from repro.engine.planner import plan_query
from repro.live import LiveSession
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

_SPECS = [("count", None, "n"), ("avg", "ID", "mean_id")]
_PLAN = scan("B").group_by(("Product",), specs=_SPECS)


def _database(rows: int, groups: int) -> Database:
    db = Database("aggregate-bounds")
    table = db.create_table("B", Schema.of("ID", "Product", ("VT", "interval")))
    table.insert_many(
        (index, f"product-{index % groups}", until_now(index % 300))
        for index in range(rows)
    )
    return db


def _allocated(block) -> int:
    """Bytes still allocated by *block* when it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep = block()  # noqa: F841 — alive until measured
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_one_changed_row_in_a_5000_member_group_builds_a_handful_of_values(
    monkeypatch,
):
    """COUNT + AVG over one 5 000-member group: replacing one row used to
    re-run both sweeps over every member (≥ 5 000 ``OngoingInt.step``
    alone); folding it builds no step at all and a constant number of
    ongoing values for the one output row."""
    db = _database(5_000, groups=1)
    evaluator = DeltaEvaluator(_PLAN, db)
    evaluator.refresh_full()
    built = {"OngoingInt": 0, "IntervalSet": 0}

    def counted(cls, constructor):
        original = getattr(cls, constructor)

        def count(*args, **kwargs):
            built[cls.__name__] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, constructor, count)

    counted(OngoingInt, "__init__")
    counted(IntervalSet, "__new__")  # a shared set is built by __new__ alone
    old = next(iter(db.table("B").rows()))
    new = OngoingTuple((5_000_000,) + old.values[1:], old.rt)
    delta = evaluator.apply({"B": Delta((new,), (old,))})
    assert len(delta.inserted) == len(delta.deleted) == 1
    assert built["OngoingInt"] <= 4 and built["IntervalSet"] <= 2, built
    monkeypatch.undo()
    db.table("B").apply_delta(Delta((new,), (old,)))
    assert evaluator.result == db.query(_PLAN)
    assert evaluator.full_evaluations == 1


def test_an_invertible_aggregate_holds_map_entries_not_members():
    """5 000 base rows in 12 groups: state *and* output rows fit in
    32 KiB (the member sets alone were ≈ 218 KiB — references to the
    table's rows, 40 B apiece, growing with the input), and four times
    the input costs the same."""

    def state_bytes(rows):
        db = _database(rows, groups=12)
        operator = plan_query(_PLAN, db)
        members = tuple(db.relation("B").tuples)

        def build():
            state = operator.delta_state()
            operator.evaluate(state, (members,))
            return state

        return _allocated(build)

    small = state_bytes(5_000)
    assert small <= 32 * 1024, small
    assert abs(state_bytes(20_000) - small) <= 1024


@pytest.mark.parametrize("overdrawn", ["count", "coverage"])
def test_an_overdrawn_group_answers_with_one_full_refresh(
    overdrawn, fallback_log
):
    """The operator cannot name an unknown row any more; what it can see
    is a group's books going below zero.  Short the accumulators the way
    a twice-applied delete would, then commit an honest delete: the
    refresh falls back once — charged to ``AggregateOp`` — and the
    result is the cold one."""
    db = _database(6, groups=2)
    table = db.table("B")
    session = LiveSession(db)
    sub = session.subscribe(_PLAN)
    (maintainer,) = session.shared_results()
    evaluator = maintainer._evaluator
    (state,) = [
        state
        for state in evaluator._states.values()
        if "accumulators" in state.extra
    ]
    key = ("product-0",)
    group = state.extra["accumulators"][key]
    members = [row for row in table.rows() if row.values[1] == key[0]]
    if overdrawn == "count":
        for row in members:
            group.fold(row, -1)
        expected_cause = "holds no member"
    else:
        # Same member count, but every trivial RT traded for [0, 5).
        for row in members:
            group.fold(row, -1)
            group.fold(row.with_rt(IntervalSet([(0, 5)])), +1)
        expected_cause = "coverage"
    doomed = members[-1]
    table.delete_where(lambda row: row != doomed)
    session.flush()
    stats = session.stats()
    assert stats["repro_live_full_refreshes_total"] == 1
    (fallback,) = fallback_log()
    assert "operator=AggregateOp" in fallback
    assert expected_cause in fallback
    assert sub.result == db.query(_PLAN)
    assert evaluator.check_index_integrity() == []
    # ... and the rebuilt books carry the next delta incrementally.
    table.insert(99, "product-0", until_now(7))
    session.flush()
    assert session.stats()["repro_live_full_refreshes_total"] == 1
    assert sub.result == db.query(_PLAN)
