"""Distinct and SortLimit plan nodes: planning, maintenance, boundaries.

Covers the ordered-surface tentpole at the engine layer: the multi-spec
Aggregate back-compat contract (one-spec plans keep their historical
fingerprints), δ's multiplicity counting, and the top-k window's state
machine — including the boundary-churn paths where a delete inside the
window forces the logged full-refresh fallback.
"""

import pytest

from repro.core.integer import OngoingInt
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.engine.database import Database
from repro.engine.delta import DeltaEvaluator
from repro.engine.plan import Aggregate, Distinct, SortLimit, scan
from repro.errors import QueryError
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


def _database() -> Database:
    db = Database("ordered-plan")
    table = db.create_table("R", Schema.of("K", "N"))
    for k, n in [(1, 10), (2, 9), (3, 8), (4, 7)]:
        table.insert(k, n)
    return db


def _full_refreshes(session: LiveSession) -> int:
    return session.stats()["repro_live_full_refreshes_total"]


class TestAggregateBackCompat:
    def test_single_spec_signatures_share_one_fingerprint(self):
        """The pre-existing single-aggregate call shape and the new specs
        form are the *same* plan — cached state keyed by fingerprint must
        survive the refactor."""
        old_style = scan("R").group_by(("K",), "count", output_name="n")
        new_style = Aggregate(scan("R"), ("K",), specs=[("count", None, "n")])
        assert old_style.fingerprint() == new_style.fingerprint()
        assert old_style.canonical() == new_style.canonical()

    def test_single_spec_canonical_is_byte_frozen(self):
        """The exact historical canonical string: anything persisted under
        a pre-refactor fingerprint (plan caches, cost histories) must
        still resolve."""
        plan = scan("R").group_by(("K",), "count", output_name="n")
        assert plan.canonical() == (
            "Aggregate(Scan('R'), by=['K'], fn='count', arg=None, out='n')"
        )

    def test_multi_spec_changes_the_fingerprint(self):
        one = scan("R").group_by(("K",), "count", output_name="n")
        two = scan("R").group_by(
            ("K",), specs=[("count", None, "n"), ("avg", "N", "a")]
        )
        assert one.fingerprint() != two.fingerprint()
        assert [s[0] for s in two.specs] == ["count", "avg"]

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(QueryError, match="duplicate aggregate output"):
            scan("R").group_by(
                ("K",), specs=[("count", None, "n"), ("avg", "N", "n")]
            )


class TestDistinct:
    def test_distinct_collapses_duplicate_projections(self):
        db = _database()
        db.table("R").insert(5, 10)  # duplicate N value
        plan = scan("R").select_columns("N").distinct()
        values = sorted(row.values[0] for row in db.query(plan))
        assert values == [7, 8, 9, 10]

    def test_distinct_delta_surfaces_only_multiplicity_transitions(self):
        db = _database()
        table = db.table("R")
        plan = scan("R").select_columns("N").distinct()
        session = LiveSession(db)
        sub = session.subscribe(plan)
        session.flush()
        table.insert(5, 10)  # 10 now derived twice — no visible change
        session.flush()
        assert sub.result == db.query(plan)
        table.delete_where(lambda row: row.values != (5, 10))
        session.flush()  # back to one derivation of 10 — still no change
        assert sub.result == db.query(plan)


class TestSortLimitPlanning:
    def test_rejects_ongoing_temporal_sort_keys(self):
        db = Database()
        db.create_table("T", Schema.of("K", ("VT", "interval")))
        with pytest.raises(QueryError, match="no eventual order"):
            db.query(scan("T").order_by("VT"))

    def test_rejects_non_positive_limit(self):
        with pytest.raises(QueryError, match="positive"):
            scan("R").order_by("N", limit=0)

    def test_requires_keys_or_limit(self):
        with pytest.raises(QueryError, match="sort keys or a limit"):
            SortLimit(scan("R"), (), None)

    def test_limit_without_order_is_deterministic(self):
        db = _database()
        plan = scan("R").order_by(limit=2)
        first = db.query(plan)
        second = db.query(plan)
        assert first == second
        assert len(first) == 2


class TestEventualOrderOfMixedKeys:
    def test_ints_ongoing_ints_and_rationals_order_in_one_column(self):
        """Fixed ints embed as plain ``(0, value)``, ongoing ints as their
        final ``(slope, intercept)`` and ongoing rationals as fractions:
        one ORDER BY ranks all three, warm as well as cold."""
        constant = OngoingInt.constant
        growing = OngoingInt([(MINUS_INF, 0, 0, 0), (0, PLUS_INF, 0, 1)])
        values = {
            "int": 3,
            "ongoing-int": constant(4),
            "rational": OngoingRational(constant(7), constant(2)),  # 7/2
            "tie": OngoingRational(constant(6), constant(2)),  # 3, like "int"
            "grows": growing,  # rt for rt >= 0: beyond every constant
        }
        db = Database("mixed-keys")
        table = db.create_table("M", Schema.of(("V", "integer"), "Name"))
        for name in ("grows", "rational", "int", "tie"):
            table.insert(values[name], name)
        plan = scan("M").order_by("V", ("Name", True))
        session = LiveSession(db)
        sub = session.subscribe(plan)
        table.insert(values["ongoing-int"], "ongoing-int")
        session.flush()
        ranked = ["tie", "int", "rational", "ongoing-int", "grows"]
        cold = db.query(plan)
        assert [row.values[1] for row in cold.tuples] == ranked
        assert sub.result == cold
        assert _full_refreshes(session) == 0
        top = db.query(scan("M").order_by(("V", True), limit=2))
        assert {row.values[1] for row in top} == {"grows", "ongoing-int"}


class TestTieBreak:
    """Rows tied on every sort key are ordered by their ``repr`` — which
    is rendered for those rows only."""

    #: (K, N): K = 10, 9 and 2 all average 5/2; N = 1 is held twice.
    ROWS = [(10, 2), (10, 3), (9, 1), (9, 4), (2, 0), (2, 5), (1, 1), (3, 7)]
    #: The groups by AVG(N) DESC: 10 before 2 before 9 is ``repr`` order.
    BY_AVERAGE = [3, 10, 2, 9, 1]
    BY_N = [(2, 0), (1, 1), (9, 1), (10, 2), (10, 3), (9, 4), (2, 5), (3, 7)]

    def _database(self) -> Database:
        db = Database("tie-break")
        table = db.create_table("R", Schema.of("K", "N"))
        for row in self.ROWS:
            table.insert(*row)
        return db

    @staticmethod
    def _by_average(limit=None):
        return (
            scan("R")
            .group_by(("K",), specs=[("avg", "N", "a")])
            .order_by(("a", True), limit=limit)
        )

    def test_tied_rows_keep_the_repr_order(self):
        db = self._database()
        ranked = db.query(self._by_average()).tuples
        assert [row.values[0] for row in ranked] == self.BY_AVERAGE
        assert all(isinstance(row.values[1], OngoingRational) for row in ranked)
        assert repr(ranked[1].values[1]) == repr(ranked[3].values[1])  # a tie
        assert [
            row.values for row in db.query(scan("R").order_by("N")).tuples
        ] == self.BY_N
        top = db.query(self._by_average(limit=2))
        assert {row.values[0] for row in top} == {3, 10}

    def test_a_warm_window_keeps_the_order(self):
        db = self._database()
        session = LiveSession(db)
        sub = session.subscribe(self._by_average(limit=3))
        db.table("R").delete_where(lambda row: row.values != (10, 3))
        db.table("R").insert(10, 3)  # the group leaves and comes back
        session.flush()
        assert sub.result == db.query(self._by_average(limit=3))
        assert {row.values[0] for row in sub.result} == {3, 10, 2}

    def test_repr_is_rendered_for_ties_only(self, monkeypatch):
        db = self._database()
        rendered = []
        render = OngoingTuple.__repr__

        def spy(row):
            rendered.append(row.values[0])
            return render(row)

        monkeypatch.setattr(OngoingTuple, "__repr__", spy)
        DeltaEvaluator(self._by_average(), db).refresh_full()
        assert set(rendered) == {10, 9, 2}  # the three groups at 5/2
        rendered.clear()
        DeltaEvaluator(scan("R").order_by("N"), db).refresh_full()
        assert sorted(rendered) == [1, 9]  # the two rows at N = 1
        rendered.clear()
        DeltaEvaluator(scan("R").order_by("N", "K"), db).refresh_full()
        assert rendered == []  # no two rows tie on (N, K)


class TestTopKBoundaryChurn:
    """Rows oscillating across rank k: the window state machine."""

    def test_churn_matches_full_reevaluation(self):
        db = _database()
        table = db.table("R")
        plan = scan("R").order_by(("N", True), limit=2)
        session = LiveSession(db)
        sub = session.subscribe(plan)
        session.flush()
        assert sub.result == db.query(plan)
        baseline = _full_refreshes(session)

        # Insert into the window: evicts the old boundary row — delta path.
        table.insert(9, 11)
        session.flush()
        assert sub.result == db.query(plan)
        assert _full_refreshes(session) == baseline

        # Out-of-window insert and delete: overflow bookkeeping only.
        table.insert(10, 1)
        session.flush()
        table.delete_where(lambda row: row.values != (10, 1))
        session.flush()
        assert sub.result == db.query(plan)
        assert _full_refreshes(session) == baseline

        # Delete the row *inside* the window while overflow rows exist:
        # the next-best row is unknown — logged full-refresh fallback.
        table.delete_where(lambda row: row.values != (9, 11))
        session.flush()
        assert sub.result == db.query(plan)
        assert _full_refreshes(session) == baseline + 1

    def test_window_delete_without_overflow_is_incremental(self):
        db = Database()
        table = db.create_table("R", Schema.of("K", "N"))
        table.insert(1, 5)
        table.insert(2, 7)
        plan = scan("R").order_by(("N", True), limit=3)  # window never full
        session = LiveSession(db)
        sub = session.subscribe(plan)
        session.flush()
        baseline = _full_refreshes(session)
        table.delete_where(lambda row: row.values != (2, 7))
        session.flush()
        assert sub.result == db.query(plan)
        assert _full_refreshes(session) == baseline

    def test_pure_order_by_is_always_incremental(self):
        db = _database()
        table = db.table("R")
        plan = scan("R").order_by(("N", True))
        session = LiveSession(db)
        sub = session.subscribe(plan)
        session.flush()
        baseline = _full_refreshes(session)
        table.insert(9, 11)
        table.delete_where(lambda row: row.values != (2, 9))
        session.flush()
        assert sub.result == db.query(plan)
        assert _full_refreshes(session) == baseline


class TestPushdownRules:
    def test_select_sinks_through_distinct(self):
        from repro.engine.rewrite import push_down_selections

        db = _database()
        plan = scan("R").distinct().where(col("K") < lit(3))
        rewritten = push_down_selections(plan, db)
        assert rewritten.canonical().startswith("Distinct(Select(")
        assert db.query(plan) == db.query(rewritten)

    def test_select_sinks_through_order_by_without_limit(self):
        from repro.engine.rewrite import push_down_selections

        db = _database()
        plan = scan("R").order_by("N").where(col("K") < lit(3))
        rewritten = push_down_selections(plan, db)
        assert rewritten.canonical().startswith("SortLimit(Select(")
        assert db.query(plan) == db.query(rewritten)

    def test_select_stays_above_limit(self):
        """σ below LIMIT k changes *which* k rows survive — the rewrite
        must refuse even when the predicate touches only sort keys."""
        from repro.engine.rewrite import push_down_selections

        db = _database()
        plan = scan("R").order_by("N", limit=2).where(col("N") > lit(7))
        rewritten = push_down_selections(plan, db)
        assert rewritten.canonical().startswith("Select(SortLimit(")
        assert db.query(plan) == db.query(rewritten)
