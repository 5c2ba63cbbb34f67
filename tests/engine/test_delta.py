"""Unit tests for the delta-propagation engine (:mod:`repro.engine.delta`).

The property suite (``tests/properties/test_delta_properties.py``) checks
exactness over random plans and modification sequences; these tests pin
the deterministic contracts — the Delta type itself, typed deltas on the
table write paths, a fixed modification script per operator kind (so a
broken delta rule fails here by name), and the automatic fallback.
"""

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.delta import (
    Delta,
    DeltaEvaluator,
    EMPTY_DELTA,
    NonIncrementalDelta,
    OperatorState,
    commit_changes,
)
from repro.engine.maintenance import IncrementalMaintainer
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)
from repro.engine.plan import scan
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


def _maintainer(db):
    """A maintainer of ``scan("R")`` fed by *db*'s modification hooks."""
    maintainer = IncrementalMaintainer(scan("R"), db, label="delta-unit")
    db.add_delta_listener(
        lambda name, version, delta: maintainer.note_change(name, delta)
    )
    return maintainer


def _database():
    db = Database("delta-unit")
    r = db.create_table("R", Schema.of("K", ("VT", "interval")))
    s = db.create_table("S", Schema.of("K", ("VT", "interval")))
    r.insert(0, until_now(5))
    r.insert(1, until_now(3))
    r.insert(2, fixed_interval(8, 18))
    s.insert(0, until_now(9))
    s.insert(1, fixed_interval(11, 25))
    return db


class TestDeltaType:
    def test_empty(self):
        assert EMPTY_DELTA.is_empty()
        assert len(EMPTY_DELTA) == 0
        assert Delta.__slots__ == ("inserted", "deleted", "appeared", "vanished")

    def test_merge_concatenates_in_order(self):
        a = OngoingTuple((1,))
        b = OngoingTuple((2,))
        merged = Delta.insert((a,)).merge(Delta.delete((b,)))
        assert merged.inserted == (a,)
        assert merged.deleted == (b,)

    def test_merge_identities(self):
        typed = Delta.insert((OngoingTuple((1,)),))
        assert typed.merge(EMPTY_DELTA) is typed
        assert EMPTY_DELTA.merge(typed) is typed

    def test_commit_changes_emits_only_transitions(self):
        state = OperatorState()
        a, b = OngoingTuple((1,)), OngoingTuple((2,))
        delta = commit_changes(state, {a: 2, b: 1})
        assert set(delta.inserted) == {a, b}
        # interior move: 2 -> 1 is not a transition
        delta = commit_changes(state, {a: -1})
        assert delta.is_empty()
        delta = commit_changes(state, {a: -1, b: -1})
        assert set(delta.deleted) == {a, b}

    def test_commit_changes_rejects_negative_counts(self):
        state = OperatorState()
        with pytest.raises(NonIncrementalDelta, match="count"):
            commit_changes(state, {OngoingTuple((1,)): -1})

    def test_builder_coalesces_in_linear_time_order(self):
        from repro.engine.delta import DeltaBuilder

        rows = [OngoingTuple((i,)) for i in range(5)]
        builder = DeltaBuilder()
        for row in rows:
            builder.add(Delta.insert((row,)))
        builder.add(Delta.delete((rows[0],)))
        built = builder.build()
        assert built.inserted == tuple(rows)
        assert built.deleted == (rows[0],)
        assert DeltaBuilder().build() is EMPTY_DELTA


class TestTypedTableDeltas:
    def test_insert_reports_the_row(self):
        db = _database()
        captured = []
        db.add_delta_listener(
            lambda name, version, delta: captured.append((name, delta))
        )
        db.table("R").insert(7, until_now(1))
        ((name, delta),) = captured
        assert name == "R"
        assert len(delta.inserted) == 1 and not delta.deleted
        assert delta.inserted[0].values[0] == 7

    def test_current_update_is_one_delete_insert_pair(self):
        db = _database()
        captured = []
        db.add_delta_listener(
            lambda name, version, delta: captured.append(delta)
        )
        current_update(
            db.table("R"), lambda r: r.values[0] == 0, (0,), at=20
        )
        (delta,) = captured  # batch-coalesced: exactly one event
        assert len(delta.deleted) == 1
        assert len(delta.inserted) == 2  # terminated-row successor + new row

    def test_replace_all_commits_the_multiset_difference(self):
        db = _database()
        table = db.table("R")
        first, second, third = tuple(table.rows())
        table.insert(*first.values)  # first is now held twice
        captured = []
        db.add_delta_listener(
            lambda name, version, delta: captured.append(delta)
        )
        new = OngoingTuple((9, until_now(1)))
        version = table.version
        table.replace_all([first, second, new, new])
        (delta,) = captured
        assert delta.deleted == (first, third)  # one copy of first
        assert delta.inserted == (new, new)
        assert table.version == version + 1
        assert sorted(table.rows(), key=repr) == sorted(
            [first, second, new, new], key=repr
        )
        # An identical swap, in any order, is no write.
        table.replace_all(reversed(tuple(table.rows())))
        assert len(captured) == 1
        assert table.version == version + 1

    def test_drop_table_reports_none(self):
        db = _database()
        captured = []
        db.add_delta_listener(
            lambda name, version, delta: captured.append((name, delta))
        )
        db.drop_table("S")
        assert captured == [("S", None)]

    def test_noop_modification_emits_nothing(self):
        db = _database()
        captured = []
        db.add_delta_listener(
            lambda name, version, delta: captured.append(delta)
        )
        current_delete(db.table("R"), lambda r: False, at=10)
        assert captured == []


def _script(db):
    """A fixed modification script hitting inserts, deletes, and updates."""
    r, s = db.table("R"), db.table("S")
    yield r.insert(1, until_now(10))
    yield current_delete(r, lambda t: t.values[0] == 1, at=12)
    yield current_update(r, lambda t: t.values[0] == 0, (0,), at=15)
    yield current_insert(s, (2,), at=4)
    yield current_delete(s, lambda t: t.values[0] == 0, at=6)
    yield r.insert(2, fixed_interval(8, 18))   # duplicate of a seed row
    yield current_update(s, lambda t: t.values[0] == 1, (3,), at=14)


_WINDOW = lit(fixed_interval(10, 20))

_OPERATOR_PLANS = {
    "fixed-filter": lambda: scan("R").where(col("K") == lit(1)),
    "ongoing-filter": lambda: scan("R").where(col("VT").overlaps(_WINDOW)),
    "project": lambda: scan("R").select_columns("K"),
    "hash-join": lambda: scan("R").join(
        scan("S"),
        on=(col("R.K") == col("S.K")) & col("R.VT").overlaps(col("S.VT")),
        left_name="R",
        right_name="S",
    ),
    "merge-join": lambda: scan("R").join(
        scan("S"), on=col("R.VT").overlaps(col("S.VT")),
        left_name="R", right_name="S",
    ),
    "nested-loop-join": lambda: scan("R").join(
        scan("S"), on=col("R.VT").before(col("S.VT")),
        left_name="R", right_name="S",
    ),
    "union": lambda: scan("R")
    .where(col("K") == lit(1))
    .union(scan("R").where(col("VT").overlaps(_WINDOW))),
    "difference": lambda: scan("R").difference(scan("S")),
}


class TestOperatorDeltaRules:
    @pytest.mark.parametrize("kind", sorted(_OPERATOR_PLANS))
    def test_script_stays_exact_and_incremental(self, kind):
        plan = _OPERATOR_PLANS[kind]()
        db = _database()
        evaluator = DeltaEvaluator(plan, db)
        evaluator.refresh_full()
        pending = {}
        db.add_delta_listener(
            lambda name, version, delta: pending.update(
                {
                    name: delta
                    if name not in pending
                    else pending[name].merge(delta)
                }
            )
        )
        steps = 0
        for _ in _script(db):
            evaluator.apply(pending)
            pending.clear()
            expected = db.query(plan)
            assert frozenset(evaluator.result.tuples) == frozenset(
                expected.tuples
            ), f"{kind} diverged at step {steps}"
            steps += 1
        assert evaluator.full_evaluations == 1  # never fell back
        assert evaluator.delta_applications == steps


class TestDeltaStorage:
    def test_delta_bytes_cover_both_directions(self):
        from repro.engine.storage import sizeof_delta, sizeof_tuple

        old = OngoingTuple((1, until_now(3)))
        new = OngoingTuple((1, fixed_interval(3, 9)))
        delta = Delta.update((old,), (new,))
        assert sizeof_delta(delta) == sizeof_tuple(old) + sizeof_tuple(new)
        assert sizeof_delta(EMPTY_DELTA) == 0


class TestEvaluatorFallback:
    def test_cold_state_raises(self):
        db = _database()
        evaluator = DeltaEvaluator(scan("R"), db)
        with pytest.raises(NonIncrementalDelta, match="cold"):
            evaluator.apply({})

    def test_unrelated_table_delta_is_ignored(self):
        db = _database()
        evaluator = DeltaEvaluator(scan("R"), db)
        before = evaluator.refresh_full()
        delta = evaluator.apply(
            {"S": Delta.insert((OngoingTuple((5, until_now(1))),))}
        )
        assert delta.is_empty()
        assert evaluator.result is before

    def test_inconsistent_delta_invalidates_state(self):
        db = _database()
        evaluator = DeltaEvaluator(scan("R"), db)
        evaluator.refresh_full()
        ghost = OngoingTuple((99, until_now(1)))
        with pytest.raises(NonIncrementalDelta):
            evaluator.apply({"R": Delta.delete((ghost,))})
        assert not evaluator.warm  # half-applied state must not survive
        evaluator.refresh_full()
        assert evaluator.warm

    def test_failed_replan_invalidates_stale_state(self):
        """A full evaluation that fails at *planning* time (dropped table)
        must invalidate the old operator state — otherwise deltas after
        the table is re-created silently apply to pre-drop state."""
        db = _database()
        maintainer = _maintainer(db)
        maintainer.evaluate()
        rows_before = len(maintainer.result)
        db.drop_table("R")
        with pytest.raises(Exception):
            maintainer.evaluate()
        assert not maintainer.warm
        recreated = db.create_table("R", Schema.of("K", ("VT", "interval")))
        recreated.insert(99, until_now(1))
        outcome = maintainer.refresh()
        assert outcome.delta is None  # cold → full path
        result = maintainer.result
        assert [t.values[0] for t in result.tuples] == [99]
        assert len(result) != rows_before + 1  # no pre-drop leftovers

    def test_refresh_routes_and_falls_back(self, force_fallback):
        db = _database()
        maintainer = _maintainer(db)
        # cold: full path
        outcome = maintainer.refresh()
        assert outcome.delta is None and len(maintainer.result) == 3
        # warm + typed delta: incremental path
        db.table("R").insert(10, until_now(2))
        outcome = maintainer.refresh()
        assert outcome.delta is not None and len(outcome.delta.inserted) == 1
        assert 10 in [t.values[0] for t in maintainer.result.tuples]
        assert maintainer.delta_refreshes == 1
        # warm + a refused delta: logged fallback to full
        fallbacks = maintainer.delta_fallbacks
        db.table("R").replace_all([OngoingTuple((9, until_now(1)))])
        force_fallback(maintainer)
        outcome = maintainer.refresh()
        assert outcome.delta is None
        assert maintainer.delta_fallbacks == fallbacks + 1
        assert [t.values[0] for t in maintainer.result.tuples] == [9]

    def test_a_dropped_table_asks_for_one_rebuild(self, fallback_log):
        db = _database()
        maintainer = _maintainer(db)
        maintainer.evaluate()
        maintainer.note_change("R", None)  # what drop_table hands on
        assert maintainer.pending.rebuild
        maintainer.claim()
        db.table("R").insert(11, until_now(3))
        maintainer.claim()  # folds the first claim with the write
        outcome = maintainer.refresh()
        assert outcome.delta is None and outcome.events == 2
        (record,) = fallback_log()
        assert "delta=rebuild" in record
        assert maintainer.full_refreshes == maintainer.delta_fallbacks == 1
        # The bit left with the claim: the next write is a delta again.
        assert not maintainer.pending.rebuild
        db.table("R").insert(10, until_now(2))
        assert maintainer.refresh().delta is not None

    def test_refresh_full_after_modifications_matches_query(self):
        db = _database()
        evaluator = DeltaEvaluator(scan("R"), db)
        evaluator.refresh_full()
        db.table("R").replace_all([OngoingTuple((9, until_now(1)))])
        result = evaluator.refresh_full()
        assert frozenset(result.tuples) == frozenset(
            db.query(scan("R")).tuples
        )
