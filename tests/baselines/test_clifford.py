"""Unit tests for the Clifford instantiate-when-accessed baseline, and
for ``evaluate_fixed``, the paper's definition run as an oracle."""

import pytest

from repro.baselines import clifford
from repro.core.interval import fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.timeline import MINUS_INF, mmdd
from repro.core.timepoint import NOW
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.relational.predicates import col, lit
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


def d(month, day):
    return mmdd(month, day)


_SCHEMA = Schema.of("BID", ("VT", "interval"))


def _bugs() -> OngoingRelation:
    return OngoingRelation.from_rows(
        _SCHEMA,
        [(500, until_now(d(1, 25))), (501, fixed_interval(d(3, 30), d(8, 21)))],
    )


class TestBindRelation:
    def test_instantiates_ongoing_attributes(self):
        rows = clifford.bind_relation(_bugs(), d(5, 14))
        assert (500, (d(1, 25), d(5, 14))) in rows

    def test_respects_reference_time_attribute(self):
        relation = OngoingRelation(
            _SCHEMA,
            [OngoingTuple((1, fixed_interval(0, 5)), IntervalSet([(0, 10)]))],
        )
        assert clifford.bind_relation(relation, 5) != []
        assert clifford.bind_relation(relation, 50) == []

    def test_returns_list_not_set(self):
        rows = clifford.bind_relation(_bugs(), d(5, 14))
        assert isinstance(rows, list)


class TestFixedExecutor:
    def test_selection(self):
        rows = clifford.bind_relation(_bugs(), d(5, 14))
        hits = clifford.selection(rows, 1, "before", (d(8, 15), d(8, 24)))
        assert [row[0] for row in hits] == [500]

    def test_hash_join_matches_nested_loop(self):
        left = [(1, "a"), (2, "b"), (1, "c")]
        right = [(1, "x"), (3, "y")]
        joined = clifford.hash_join(left, right, [0], [0])
        expected = [l + r for l in left for r in right if l[0] == r[0]]
        assert sorted(joined) == sorted(expected)

    def test_hash_join_residual(self):
        left = [(1, 5), (1, 9)]
        right = [(1, 6)]
        joined = clifford.hash_join(
            left, right, [0], [0], residual=lambda l, r: l[1] < r[1]
        )
        assert joined == [(1, 5, 1, 6)]

    def test_sweep_join_matches_nested_loop(self):
        import random

        rng = random.Random(3)
        rows = [
            (i, (s := rng.randrange(0, 100), s + rng.randrange(1, 20)))
            for i in range(60)
        ]
        swept = clifford.sweep_join(rows, rows, 1, 1, "overlaps")
        from repro.baselines.fixed_algebra import overlaps_f

        expected = [
            l + r for l in rows for r in rows if overlaps_f(l[1], r[1])
        ]
        assert sorted(swept) == sorted(expected)


class TestCliffMax:
    def test_exceeds_every_finite_end_point(self):
        rt = clifford.cliff_max_reference_time(_bugs())
        assert rt == d(8, 21) + 1

    def test_considers_multiple_relations(self):
        other = OngoingRelation.from_rows(
            _SCHEMA, [(900, fixed_interval(d(9, 1), d(9, 30)))]
        )
        rt = clifford.cliff_max_reference_time(_bugs(), other)
        assert rt == d(9, 30) + 1

    def test_rejects_purely_infinite_data(self):
        from repro.core.timepoint import NOW
        from repro.core.interval import OngoingInterval

        relation = OngoingRelation.from_rows(
            _SCHEMA, [(1, OngoingInterval(NOW, NOW))]
        )
        with pytest.raises(ValueError):
            clifford.cliff_max_reference_time(relation)


class TestInvalidation:
    def test_results_differ_across_reference_times(self):
        """The motivating defect: Clifford's answers go stale."""
        bugs = _bugs()
        early = clifford.selection(
            clifford.bind_relation(bugs, d(5, 14)), 1, "before", (d(8, 15), d(8, 24))
        )
        late = clifford.selection(
            clifford.bind_relation(bugs, d(8, 20)), 1, "before", (d(8, 15), d(8, 24))
        )
        assert {row[0] for row in early} != {row[0] for row in late}


_KVT = Schema.of("K", ("VT", "interval"))


def _database(**tables) -> Database:
    db = Database("fixed-semantics")
    for name, (schema, rows) in tables.items():
        db.create_table(name, schema).insert_tuples(rows)
    return db


class TestEvaluateFixed:
    def test_binds_then_runs_the_fixed_operators(self):
        db = _database(R=(_KVT, [OngoingTuple((1, until_now(5)))]))
        plan = (
            scan("R")
            .where(col("VT").overlaps(lit(fixed_interval(0, 7))))
            .select_columns("K", ("I", col("VT").intersect(lit(fixed_interval(6, 9)))))
        )
        assert clifford.evaluate_fixed(plan, db, 8) == {(1, (6, 8))}
        assert clifford.evaluate_fixed(plan, db, 5) == frozenset()  # [5, 5) is empty

    def test_comparisons_read_bound_time_points(self):
        db = _database(R=(Schema.of("K", ("T", "point")), [OngoingTuple((1, NOW))]))
        plan = scan("R").where(col("T") >= lit(10))
        assert clifford.evaluate_fixed(plan, db, 9) == frozenset()
        assert clifford.evaluate_fixed(plan, db, 10) == {(1, 10)}

    def test_critical_points_cover_values_reference_times_and_literals(self):
        db = _database(
            R=(_KVT, [OngoingTuple((1, until_now(5)), IntervalSet([(20, 30)]))])
        )
        plan = scan("R").where(col("VT").overlaps(lit(fixed_interval(40, 41))))
        points = clifford.critical_points(db, [plan])
        assert points[0] == MINUS_INF
        assert {4, 5, 6, 19, 20, 21, 29, 30, 31, 39, 40, 41, 42} <= set(points)

    def test_an_aggregate_is_refused(self):
        db = _database(R=(_KVT, []))
        with pytest.raises(clifford.NotSnapshotReducible, match="Aggregate"):
            clifford.evaluate_fixed(scan("R").group_by(("K",), "count"), db, 0)

    def test_a_limited_sort_is_refused_and_an_unlimited_one_is_the_set(self):
        db = _database(R=(_KVT, [OngoingTuple((1, until_now(5)))]))
        with pytest.raises(clifford.NotSnapshotReducible, match="SortLimit"):
            clifford.evaluate_fixed(scan("R").order_by("K", limit=1), db, 0)
        unlimited = clifford.evaluate_fixed(scan("R").order_by("K"), db, 7)
        assert unlimited == {(1, (5, 7))}


class TestNotSnapshotReducible:
    """The two shapes ``evaluate_fixed`` refuses: the engine's result is
    not ``Q(‖D‖rt)`` there, by design (see ``plan.Aggregate`` and
    ``plan.SortLimit``)."""

    def _twice(self) -> Database:
        """``(1, [0, now))`` twice, once with RT [0, 10) and once with
        RT [0, 20): at rt 3 both bind to one row."""
        return _database(
            R=(
                _KVT,
                [
                    OngoingTuple((1, until_now(0)), IntervalSet([(0, 10)])),
                    OngoingTuple((1, until_now(0)), IntervalSet([(0, 20)])),
                ],
            ),
            S=(_KVT, [OngoingTuple((1, until_now(0)), IntervalSet([(0, 5)]))]),
        )

    def test_count_counts_ongoing_tuples_not_bound_rows(self):
        db = self._twice()
        assert clifford.evaluate_fixed(scan("R"), db, 3) == {(1, (0, 3))}
        counted = db.query(scan("R").group_by(("K",), "count"))
        assert counted.instantiate(3) == {(1, 2)}

    def test_a_join_collapses_the_equal_pairs_its_count_then_reads(self):
        db = self._twice()
        joined = scan("R").join(
            scan("S"), on=col("R.K") == col("S.K"), left_name="R", right_name="S"
        )
        assert len(db.query(joined)) == 1
        counted = db.query(joined.group_by(("R.K",), "count"))
        assert counted.instantiate(3) == {(1, 1)}

    def test_limit_picks_ongoing_tuples_not_bound_rows(self):
        db = _database(
            R=(
                Schema.of("K", "G", ("VT", "interval")),
                [
                    OngoingTuple((0, 5, until_now(0))),
                    OngoingTuple((0, 1, fixed_interval(1, 2))),
                ],
            )
        )
        window = scan("R").where(col("VT").during(lit(fixed_interval(0, 10))))
        top = db.query(window.order_by(("G", True), limit=1))
        assert top.instantiate(20) == frozenset()
        # The fixed top-1 at rt 20: the one row bound there.
        assert clifford.evaluate_fixed(window, db, 20) == {(0, 1, (1, 2))}
