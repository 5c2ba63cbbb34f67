"""The Aggregate plan node: planning, execution, and per-group deltas."""

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.delta import Delta, DeltaEvaluator, NonIncrementalDelta
from repro.engine.modifications import current_delete, current_update
from repro.engine.plan import Aggregate, scan
from repro.errors import PredicateError, SchemaError
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import AttributeKind, Schema

from tests.conftest import assert_reference_semantics


def _database() -> Database:
    db = Database("agg-plan")
    table = db.create_table("E", Schema.of("ID", "G", "N", ("VT", "interval")))
    table.insert(1, "a", 5, until_now(5))
    table.insert(2, "a", 3, fixed_interval(3, 9))
    table.insert(3, "b", 7, until_now(7))
    return db


class TestPlanNode:
    def test_fluent_builder_and_children(self):
        plan = scan("E").group_by(("G",), "count", output_name="n")
        assert isinstance(plan, Aggregate)
        assert plan.children() == (plan.child,)
        assert plan.referenced_tables() == frozenset({"E"})

    def test_structurally_equal_plans_share_a_fingerprint(self):
        first = scan("E").group_by(("G",), "count", output_name="n")
        second = scan("E").group_by(("G",), "count", output_name="n")
        assert first.fingerprint() == second.fingerprint()

    def test_default_output_name_is_normalized(self):
        """output_name=None and the explicit default name the column would
        get anyway are the *same* plan — the sqlish path (which always
        passes a name) and the fluent path must share one fingerprint."""
        implicit = scan("E").group_by(("G",), "count")
        explicit = scan("E").group_by(("G",), "count", output_name="count")
        assert implicit.output_name == "count"
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_fingerprint_distinguishes_aggregate_shape(self):
        base = scan("E").group_by(("G",), "count")
        assert base.fingerprint() != scan("E").group_by((), "count").fingerprint()
        assert (
            base.fingerprint()
            != scan("E").group_by(("G",), "max", "N").fingerprint()
        )
        assert (
            base.fingerprint()
            != scan("E").group_by(("G",), "count", output_name="n").fingerprint()
        )


class TestPlanning:
    def test_output_schema_and_explain(self):
        db = _database()
        plan = scan("E").group_by(("G",), "sum_duration", "VT", output_name="load")
        result = db.query(plan)
        assert result.schema.names == ("G", "load")
        assert result.schema.attribute("load").kind is AttributeKind.ONGOING_INTEGER
        assert "Aggregate γ sum_duration(VT)" in db.explain(plan)

    def test_unknown_aggregate_fails_at_plan_time(self):
        db = _database()
        with pytest.raises(PredicateError, match="unknown aggregate"):
            db.query(scan("E").group_by(("G",), "median", "N"))

    def test_ongoing_group_column_rejected(self):
        db = _database()
        with pytest.raises(SchemaError, match="fixed"):
            db.query(scan("E").group_by(("VT",), "count"))

    def test_missing_argument_rejected(self):
        db = _database()
        with pytest.raises(PredicateError, match="requires"):
            db.query(scan("E").group_by(("G",), "min"))


class TestExecution:
    def test_pull_path_matches_relational_operator(self):
        db = _database()
        plan = scan("E").group_by(("G",), "count", output_name="n")
        assert_reference_semantics(plan, db, db.query(plan))

    def test_aggregate_over_filtered_child(self):
        db = _database()
        window = lit(fixed_interval(4, 6))
        plan = (
            scan("E").where(col("VT").overlaps(window)).group_by(("G",), "count")
        )
        assert_reference_semantics(plan, db, db.query(plan))

    def test_scalar_aggregate_over_empty_table(self):
        db = Database("empty")
        db.create_table("X", Schema.of("A", ("VT", "interval")))
        result = db.query(scan("X").group_by((), "count"))
        assert len(result) == 1
        assert result.instantiate(42) == frozenset({(0,)})


class _Maintained:
    """A DeltaEvaluator fed by the database's typed delta listeners."""

    def __init__(self, db: Database, plan):
        self.db = db
        self.plan = plan
        self.evaluator = DeltaEvaluator(plan, db)
        self.evaluator.refresh_full()
        self._captured = {}
        db.add_delta_listener(self._capture)

    def _capture(self, name, version, delta):
        held = self._captured.get(name)
        self._captured[name] = delta if held is None else held.merge(delta)

    def step(self) -> Delta:
        delta = self.evaluator.apply(self._captured)
        self._captured.clear()
        expected = self.db.query(self.plan)
        assert frozenset(self.evaluator.result.tuples) == frozenset(
            expected.tuples
        )
        return delta


class TestDeltaRule:
    def test_insert_into_existing_group_is_one_row_swap(self):
        db = _database()
        maintained = _Maintained(db, scan("E").group_by(("G",), "count"))
        db.table("E").insert(4, "a", 1, until_now(2))
        delta = maintained.step()
        # Only group "a" re-aggregated: its old row leaves, its new row
        # enters; group "b" is untouched.
        assert len(delta.inserted) == 1 and len(delta.deleted) == 1
        assert delta.inserted[0].values[0] == "a"
        assert delta.deleted[0].values[0] == "a"

    def test_group_appears_with_first_member(self):
        db = _database()
        maintained = _Maintained(db, scan("E").group_by(("G",), "count"))
        db.table("E").insert(9, "c", 2, until_now(1))
        delta = maintained.step()
        assert len(delta.inserted) == 1 and not delta.deleted
        assert delta.inserted[0].values[0] == "c"

    def test_group_empties_when_last_member_leaves(self):
        db = _database()
        maintained = _Maintained(db, scan("E").group_by(("G",), "count"))
        db.table("E").delete_where(lambda row: row.values[1] != "b")
        delta = maintained.step()
        assert len(delta.deleted) == 1 and not delta.inserted
        assert delta.deleted[0].values[0] == "b"

    def test_scalar_group_falls_back_to_the_empty_row(self):
        db = _database()
        maintained = _Maintained(db, scan("E").group_by((), "count"))
        db.table("E").delete_where(lambda row: False)
        delta = maintained.step()
        # The scalar row never vanishes: it swaps to the constant 0.
        assert len(delta.inserted) == 1 and len(delta.deleted) == 1
        assert delta.inserted[0].values[0].instantiate(100) == 0

    def test_current_update_preserving_the_aggregate_is_silent(self):
        """A current update splits ``[7, now)`` into ``[7, +20)`` plus
        ``[20, now)`` — the summed duration ramp is *identical*, and the
        per-group re-aggregation recognizes that: the propagated delta is
        empty, so subscribers are not even notified."""
        db = _database()
        maintained = _Maintained(
            db, scan("E").group_by(("G",), "sum_duration", "VT")
        )
        current_update(
            db.table("E"), lambda row: row.values[0] == 3, (3, "b", 7), at=20
        )
        delta = maintained.step()
        assert delta.is_empty()

    def test_cross_group_move_touches_only_the_two_groups(self):
        db = _database()
        maintained = _Maintained(db, scan("E").group_by(("G",), "count"))
        # Move row 3 from group "b" to a new group "c": the terminated old
        # row stays in "b" (count there is unchanged — suppressed), the
        # successor row founds "c".
        current_update(
            db.table("E"), lambda row: row.values[0] == 3, (3, "c", 7), at=20
        )
        delta = maintained.step()
        assert {row.values[0] for row in delta.inserted} == {"c"}
        assert not delta.deleted

    def test_min_max_maintained_through_terminations(self):
        db = _database()
        maintained = _Maintained(db, scan("E").group_by(("G",), "max", "N"))
        current_delete(db.table("E"), lambda row: row.values[0] == 1, at=4)
        maintained.step()
        db.table("E").insert(5, "a", 9, until_now(6))
        maintained.step()

    def test_delete_that_breaks_conservation_raises(self):
        """The operator keeps accumulators, not members, so it cannot name
        an unknown row — but a delete that overdraws what a group holds
        (its member count, its coverage, a MIN / MAX multiset) forces the
        logged full-refresh fallback."""
        from repro.core.intervalset import IntervalSet
        from repro.engine.planner import plan_query
        from repro.relational.tuples import OngoingTuple

        def warm(aggregate, argument=None):
            db = _database()
            operator = plan_query(
                scan("E").group_by(("G",), aggregate, argument), db
            )
            state = operator.delta_state()
            operator.evaluate(state, (tuple(db.relation("E").tuples),))
            return operator, state

        def ghost(group, rt=IntervalSet([(0, 1)])):
            return OngoingTuple((99, group, 0, until_now(1)), rt)

        operator, state = warm("count")
        with pytest.raises(NonIncrementalDelta, match="holds no member"):
            operator.apply_delta(state, (Delta.delete([ghost("zz")]),))
        operator, state = warm("count")
        with pytest.raises(NonIncrementalDelta, match="holds no member"):
            operator.apply_delta(state, (Delta.delete([ghost("b")] * 2),))
        # Group "b" covers [0, 1) once (its one member's trivial RT):
        # retracting a ghost's [0, 1) twice drives it to -1 there.
        operator, state = warm("count")
        elsewhere = [ghost("b", IntervalSet([(at, at + 1)])) for at in (5, 7)]
        operator.apply_delta(state, (Delta.insert(elsewhere),))
        with pytest.raises(NonIncrementalDelta, match="coverage"):
            operator.apply_delta(state, (Delta.delete([ghost("b")] * 2),))
        # The last member leaves, but what was retracted is not what it added.
        operator, state = warm("count")
        with pytest.raises(NonIncrementalDelta, match="do not cancel"):
            operator.apply_delta(state, (Delta.delete([ghost("b")]),))
        operator, state = warm("max", "N")
        with pytest.raises(NonIncrementalDelta, match="multiset"):
            operator.apply_delta(state, (Delta.delete([ghost("a")]),))


class TestLiveFallback:
    def test_refused_delta_falls_back_to_full_refresh(self, force_fallback):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(scan("E").group_by(("G",), "count"))
        db.table("E").insert(4, "b", 1, until_now(8))
        force_fallback(sub)
        session.flush()
        stats = session.stats()
        assert stats["repro_live_full_refreshes_total"] == 1
        assert frozenset(sub.result.tuples) == frozenset(
            db.query(scan("E").group_by(("G",), "count")).tuples
        )
