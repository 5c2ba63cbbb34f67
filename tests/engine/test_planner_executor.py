"""Unit tests for the planner (Section VIII) and the physical operators.

The key invariants:

* the predicate split never changes results (optimize=True == optimize=False);
* the three join algorithms produce identical relations;
* the split actually happens (fixed conjuncts -> FixedFilter / hash keys,
  ongoing conjuncts -> OngoingFilter / residuals).
"""

from unittest import mock

import pytest

from repro.core.integer import OngoingInt
from repro.core.interval import fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import mmdd
from repro.core.timepoint import NOW, fixed
from repro.engine.database import Database
from repro.engine.executor import (
    HashJoin,
    MergeIntervalJoin,
    NestedLoopJoin,
    value_equality,
)
from repro.engine import indexes
from repro.engine.indexes import INDEX_THRESHOLD
from repro.engine.plan import (
    Aggregate,
    Difference,
    Distinct,
    Join,
    Project,
    Scan,
    Select,
    SortLimit,
    Union,
    scan,
)
from repro.engine.planner import Planner
from repro.errors import QueryError, SchemaError
from repro.relational.predicates import TRUE_PREDICATE, col, lit
from repro.relational.schema import AttributeKind, Schema
from repro.relational.tuples import OngoingTuple
from tests.conftest import assert_fixed_semantics


def d(month, day):
    return mmdd(month, day)


def _database() -> Database:
    db = Database("planner-tests")
    bugs = db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
    bugs.insert(500, "Spam filter", until_now(d(1, 25)))
    bugs.insert(501, "Spam filter", fixed_interval(d(3, 30), d(8, 21)))
    bugs.insert(502, "Dashboard", until_now(d(7, 1)))
    patches = db.create_table("P", Schema.of("PID", "C", ("VT", "interval")))
    patches.insert(201, "Spam filter", fixed_interval(d(8, 15), d(8, 24)))
    patches.insert(202, "Dashboard", fixed_interval(d(8, 24), d(8, 27)))
    return db


class TestPredicateSplit:
    def test_fixed_conjunct_becomes_fixed_filter(self):
        db = _database()
        plan = scan("B").where(
            (col("C") == lit("Spam filter"))
            & col("VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1))))
        )
        text = db.explain(plan)
        assert "FixedFilter (1 conjuncts)" in text
        assert "OngoingFilter (1 conjuncts)" in text

    def test_unoptimized_puts_everything_on_ongoing_path(self):
        db = _database()
        plan = scan("B").where(col("C") == lit("Spam filter"))
        text = db.explain(plan, optimize=False)
        assert "FixedFilter" not in text
        assert "OngoingFilter" in text

    def test_split_does_not_change_results(self):
        db = _database()
        plan = scan("B").where(
            (col("C") == lit("Spam filter"))
            & col("VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1))))
        )
        assert db.query(plan) == db.query(plan, optimize=False)


class TestJoinSelection:
    def test_equi_conjunct_selects_hash_join(self):
        db = _database()
        plan = scan("B").join(
            scan("P"),
            on=(col("B.C") == col("P.C")) & col("B.VT").before(col("P.VT")),
            left_name="B",
            right_name="P",
        )
        physical = Planner().plan(plan, db)
        assert isinstance(physical, HashJoin)

    def test_overlaps_conjunct_selects_merge_join(self):
        db = _database()
        plan = scan("B").join(
            scan("P"),
            on=col("B.VT").overlaps(col("P.VT")),
            left_name="B",
            right_name="P",
        )
        physical = Planner().plan(plan, db)
        assert isinstance(physical, MergeIntervalJoin)

    def test_fallback_is_nested_loop(self):
        db = _database()
        plan = scan("B").join(
            scan("P"),
            on=col("B.VT").before(col("P.VT")),
            left_name="B",
            right_name="P",
        )
        physical = Planner().plan(plan, db)
        assert isinstance(physical, NestedLoopJoin)

    def test_unoptimized_join_is_nested_loop(self):
        db = _database()
        plan = scan("B").join(
            scan("P"),
            on=col("B.C") == col("P.C"),
            left_name="B",
            right_name="P",
        )
        physical = Planner(optimize=False).plan(plan, db)
        assert isinstance(physical, NestedLoopJoin)

    def test_all_join_algorithms_agree(self):
        db = _database()
        predicate = (col("B.C") == col("P.C")) & col("B.VT").overlaps(col("P.VT"))
        plan = scan("B").join(
            scan("P"), on=predicate, left_name="B", right_name="P"
        )
        optimized = db.query(plan)
        naive = db.query(plan, optimize=False)
        assert optimized == naive
        # Force the merge join by dropping the equi conjunct from planning:
        merge_plan = scan("B").join(
            scan("P"),
            on=col("B.VT").overlaps(col("P.VT")) & (col("B.C") == col("P.C")),
            left_name="B",
            right_name="P",
        )
        assert db.query(merge_plan) == optimized

    def test_join_clash_requires_qualification(self):
        db = _database()
        plan = Join(Scan("B"), Scan("P"), col("BID") == col("PID"))
        with pytest.raises(SchemaError, match="left_name/right_name"):
            db.query(plan)


class TestOtherOperators:
    def test_projection_plan(self):
        db = _database()
        result = db.query(scan("B").select_columns("BID"))
        assert sorted(result.column("BID")) == [500, 501, 502]

    def test_projection_declared_fixed_over_an_ongoing_column_is_refused(self):
        db = _database()
        plan = scan("B").select_columns(("VT", col("VT"), AttributeKind.FIXED))
        with pytest.raises(SchemaError, match="declared fixed"):
            db.query(plan)

    def test_union_plan(self):
        db = _database()
        result = db.query(Union(Scan("B"), Scan("B")))
        assert len(result) == 3

    def test_difference_plan(self):
        db = _database()
        filtered = Select(Scan("B"), col("C") == lit("Dashboard"))
        result = db.query(Difference(Scan("B"), filtered))
        assert sorted(result.column("BID")) == [500, 501]

    def test_explicit_kind_override(self):
        db = _database()
        plan = scan("B").select_columns(("N", lit(NOW), AttributeKind.ONGOING_POINT))
        result = db.query(plan)
        assert result.schema.attribute("N").kind is AttributeKind.ONGOING_POINT
        assert result.instantiate(d(8, 1)) == frozenset({(d(8, 1),)})

    def test_ongoing_number_literals_are_typed_ongoing_integer(self):
        db = _database()
        three = OngoingInt.constant(3)
        half = OngoingRational(three, OngoingInt.constant(6))
        for value in (three, half):
            result = db.query(scan("B").select_columns(("x", lit(value))))
            assert result.schema.attribute("x").kind is AttributeKind.ONGOING_INTEGER
        result = db.query(scan("B").select_columns(("three", lit(three))))
        assert result.instantiate(d(8, 1)) == frozenset({(3,)})

    def test_duplicates_merge_by_set_semantics(self):
        result = _database().query(scan("B").select_columns(("one", lit(1))))
        assert len(result) == 1

    def test_union_requires_compatible_schemas(self):
        db = _database()
        with pytest.raises(SchemaError):
            db.query(scan("B").union(scan("B").select_columns("BID")))

    def test_difference_on_ongoing_attributes_is_per_rt(self):
        """[01/25, now) and [01/25, 03/01) instantiate identically only at
        rt = 03/01 (where now binds to 03/01); the difference keeps every
        other rt."""
        db = Database("difference")
        schema = Schema.of(("VT", "interval"))
        db.create_table("L", schema).insert(until_now(d(1, 25)))
        db.create_table("R", schema).insert(fixed_interval(d(1, 25), d(3, 1)))
        (row,) = db.query(scan("L").difference(scan("R"))).tuples
        assert row.rt == IntervalSet.point(d(3, 1)).complement()

    def test_empty_projection_rejected(self):
        with pytest.raises(QueryError):
            Project(Scan("B"), ())

    def test_unknown_plan_node_rejected(self):
        class Strange:
            pass

        with pytest.raises(QueryError):
            Planner().plan(Strange(), _database())

    def test_scan_requires_table_name(self):
        with pytest.raises(QueryError):
            Scan("")

    def test_materialize_roundtrip(self):
        db = _database()
        assert db.query(scan("B")) == db.relation("B")

    def test_no_physical_operator_is_iterable(self):
        """A planned tree is read by building it (``Database.query``),
        never by iterating one of its operators."""
        db = _database()
        window = lit(fixed_interval(d(8, 1), d(9, 1)))
        plans = [
            scan("B").where(
                (col("C") == lit("Spam filter")) & col("VT").overlaps(window)
            ),
            scan("B").select_columns("BID"),
            scan("B").join(
                scan("P"), on=col("B.C") == col("P.C"), left_name="B", right_name="P"
            ),
            scan("B").join(
                scan("P"),
                on=col("B.VT").overlaps(col("P.VT")),
                left_name="B",
                right_name="P",
            ),
            scan("B").join(
                scan("P"),
                on=col("B.VT").before(col("P.VT")),
                left_name="B",
                right_name="P",
            ),
            Union(Scan("B"), Scan("B")),
            Difference(Scan("B"), Scan("B")),
            Aggregate(Scan("B"), ("C",), "count"),
            Distinct(Scan("B")),
            SortLimit(Scan("B"), (("BID", False),), 2),
        ]
        seen = {}
        with mock.patch.object(indexes, "INDEX_THRESHOLD", 0):
            for plan in plans:
                pending = [Planner().plan(plan, db)]
                while pending:
                    node = pending.pop()
                    seen[type(node).__name__] = node
                    pending.extend(node._children())
        assert set(seen) == {
            "SeqScan",
            "IntervalScan",
            "FixedFilter",
            "OngoingFilter",
            "ProjectOp",
            "HashJoin",
            "MergeIntervalJoin",
            "NestedLoopJoin",
            "UnionOp",
            "DifferenceOp",
            "AggregateOp",
            "DistinctOp",
            "SortLimitOp",
            "_Requalified",
        }
        for name, node in seen.items():
            with pytest.raises(TypeError):
                iter(node)

    def test_explain_is_indented_tree(self):
        db = _database()
        plan = scan("B").join(
            scan("P"),
            on=col("B.C") == col("P.C"),
            left_name="B",
            right_name="P",
        )
        lines = db.explain(plan).splitlines()
        assert lines[0].startswith("HashJoin")
        assert any(line.startswith("  ") for line in lines)


class TestIntervalScan:
    """The cost-gated index access path for cold temporal selections."""

    @staticmethod
    def _big_database(rows: int = 200) -> Database:
        import random

        rng = random.Random(23)
        db = Database("interval-scan-tests")
        events = db.create_table("E", Schema.of("ID", ("VT", "interval")))
        for i in range(rows):
            start = rng.randrange(1, 300)
            if rng.random() < 0.2:
                events.insert(i, until_now(start))
            else:
                events.insert(i, fixed_interval(start, start + rng.randrange(1, 40)))
        return db

    def test_big_table_overlap_select_uses_interval_scan(self):
        db = self._big_database()
        plan = scan("E").where(col("VT").overlaps(lit(fixed_interval(50, 60))))
        text = db.explain(plan)
        assert "IntervalScan" in text
        assert "SeqScan" not in text

    def test_small_table_keeps_seq_scan(self):
        db = _database()  # 3 rows, below the 32-row threshold
        plan = scan("B").where(
            col("VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1))))
        )
        assert "IntervalScan" not in db.explain(plan)

    def test_index_threshold_is_the_planner_cut(self):
        plan = scan("E").where(col("VT").overlaps(lit(fixed_interval(50, 60))))
        below = self._big_database(INDEX_THRESHOLD - 1).explain(plan)
        assert "IntervalScan" not in below and "SeqScan E" in below
        at = self._big_database(INDEX_THRESHOLD).explain(plan)
        assert "IntervalScan E" in at and "SeqScan" not in at

    def test_index_threshold_is_the_merge_join_probe_cut(self):
        """A merge join probes a cached side through its interval index
        from ``INDEX_THRESHOLD`` rows on, and scans it below."""
        plan = scan("E").join(
            scan("F"),
            on=col("E.VT").overlaps(col("F.VT")),
            left_name="E",
            right_name="F",
        )
        for rows, access in (
            (INDEX_THRESHOLD - 1, f"access=left=scan({INDEX_THRESHOLD - 1})"),
            (INDEX_THRESHOLD, f"access=left=index:interval({INDEX_THRESHOLD})"),
        ):
            db = self._big_database(rows)
            db.create_table("F", Schema.of("ID", ("VT", "interval"))).insert(
                0, fixed_interval(50, 60)
            )
            assert access in db.explain_analyze(plan)

    def test_disjoint_allen_relations_never_indexed(self):
        db = self._big_database()
        for plan in (
            scan("E").where(col("VT").before(lit(fixed_interval(50, 60)))),
            scan("E").where(col("VT").meets(lit(fixed_interval(50, 60)))),
        ):
            assert "IntervalScan" not in db.explain(plan)

    def test_lossless_across_allen_family(self):
        """Index candidates + exact filter == full scan + exact filter."""
        db = self._big_database()
        probe = lit(fixed_interval(100, 140))
        indexed = [
            col("VT").overlaps(probe),
            col("VT").contains(probe),
            col("VT").starts(probe),
            col("VT").finishes(probe),
            col("VT").interval_equals(probe),
            col("VT").overlaps(lit(until_now(120))),
        ]
        for predicate in indexed:
            plan = scan("E").where(predicate)
            assert "IntervalScan" in db.explain(plan), predicate
            assert db.query(plan) == db.query(plan, optimize=False), predicate

    def test_empty_escape_orientations_not_indexed(self):
        """``col during lit`` holds for *empty* column instantiations
        that share no point with the probe — the index would lose rows,
        so the planner must refuse it (and the symmetric ``contains``)."""
        from repro.relational.predicates import AllenPredicate

        db = self._big_database()
        probe = lit(fixed_interval(100, 140))
        unsound = [
            col("VT").during(probe),
            AllenPredicate("contains", probe, col("VT")),
            col("VT").interval_equals(lit(until_now(120))),  # ongoing probe
        ]
        for predicate in unsound:
            plan = scan("E").where(predicate)
            assert "IntervalScan" not in db.explain(plan), predicate
            assert db.query(plan) == db.query(plan, optimize=False), predicate

    def test_literal_on_left_side_also_indexed(self):
        db = self._big_database()
        from repro.relational.predicates import AllenPredicate

        plan = scan("E").where(
            AllenPredicate("during", lit(fixed_interval(100, 110)), col("VT"))
        )
        assert "IntervalScan" in db.explain(plan)
        assert db.query(plan) == db.query(plan, optimize=False)

    def test_index_cached_per_version(self):
        db = self._big_database()
        table = db.table("E")
        first = table.interval_index("VT")
        assert first is table.interval_index("VT")
        table.insert(9999, fixed_interval(1, 2))
        second = table.interval_index("VT")
        assert second is not first
        assert second.size == first.size + 1

    def test_non_indexable_attribute_returns_none(self):
        db = self._big_database()
        assert db.table("E").interval_index("ID") is None


class TestValueEquality:
    """The equality the difference's ``match_set`` quantifies over."""

    def test_fixed_attributes(self):
        schema = Schema.of("K")
        assert value_equality(schema, (1,), (1,)).is_always_true()
        assert value_equality(schema, (1,), (2,)).is_always_false()

    def test_ongoing_point_attribute(self):
        schema = Schema.of(("T", "point"))
        result = value_equality(schema, (fixed(d(10, 17)),), (NOW,))
        assert result.true_set == IntervalSet.point(d(10, 17))

    def test_ongoing_interval_attribute_uses_value_equality(self):
        schema = Schema.of(("VT", "interval"))
        left = (fixed_interval(d(3, 3), d(3, 3)),)   # always empty
        right = (fixed_interval(d(5, 5), d(5, 5)),)  # always empty, different
        # Allen equals would call these equal; value equality must not.
        assert value_equality(schema, left, right).is_always_false()


class TestOperatorReferenceTimes:
    """Each relational operator's result RTs, pinned on small cases and held
    to ``evaluate_fixed`` (the fixed query on the bound database) at every
    critical reference time."""

    def _held(self, db, plan):
        result = db.query(plan)
        assert_fixed_semantics(plan, db, result)
        return result

    def _with_rts(self, **tables) -> Database:
        db = Database("operator-rts")
        for name, (schema, rows) in tables.items():
            db.create_table(name, schema).insert_tuples(rows)
        return db

    def _pair(self) -> Database:
        db = Database("operator-pair")
        schema = Schema.of("K", ("VT", "interval"))
        db.create_table("L", schema).insert_many(
            [(1, until_now(d(1, 1))), (2, fixed_interval(d(1, 1), d(2, 1)))]
        )
        db.create_table("R", schema).insert(1, until_now(d(1, 1)))
        return db

    def test_fixed_predicate_keeps_or_drops(self):
        result = self._held(_database(), scan("B").where(col("C") == lit("Spam filter")))
        assert sorted(result.column("BID")) == [500, 501]
        assert all(item.rt.is_universal() for item in result)

    def test_tuples_with_empty_rt_are_dropped(self):
        window = lit(fixed_interval(d(1, 1), d(1, 10)))
        result = self._held(_database(), scan("B").where(col("VT").overlaps(window)))
        assert len(result) == 0

    def test_computed_intersection_column(self):
        window = lit(fixed_interval(d(1, 20), d(8, 18)))
        plan = scan("B").select_columns("BID", ("Resp", col("VT").intersect(window)))
        result = self._held(_database(), plan)
        assert result.schema.attribute("Resp").kind is AttributeKind.ONGOING_INTERVAL
        by_bid = {row.values[0]: row.values[1] for row in result}
        assert by_bid[500].format() == "[01/25, +08/18)"

    def test_rename_is_a_projection_item(self):
        plan = scan("B").select_columns(("ID", col("BID")), "C", "VT")
        result = self._held(_database(), plan)
        assert result.schema.names == ("ID", "C", "VT")
        assert len(result) == 3

    def test_product_intersects_rts(self):
        db = self._with_rts(
            A=(Schema.of("A"), [OngoingTuple((1,), IntervalSet([(0, 10)]))]),
            B=(Schema.of("B"), [OngoingTuple((2,), IntervalSet([(5, 20)]))]),
        )
        (row,) = self._held(db, scan("A").join(scan("B"), TRUE_PREDICATE)).tuples
        assert row.rt == IntervalSet([(5, 10)])

    def test_product_drops_disjoint_rts(self):
        db = self._with_rts(
            A=(Schema.of("A"), [OngoingTuple((1,), IntervalSet([(0, 5)]))]),
            B=(Schema.of("B"), [OngoingTuple((2,), IntervalSet([(8, 20)]))]),
        )
        assert len(self._held(db, scan("A").join(scan("B"), TRUE_PREDICATE))) == 0

    def test_join_is_selection_over_product(self):
        db = _database()
        predicate = (col("R.C") == col("S.C")) & col("R.VT").before(col("S.VT"))
        joined = scan("B").join(scan("B"), predicate, left_name="R", right_name="S")
        product = scan("B").join(
            scan("B"), TRUE_PREDICATE, left_name="R", right_name="S"
        )
        assert self._held(db, joined) == self._held(db, product.where(predicate))

    def test_union_is_set_union(self):
        result = self._held(self._pair(), scan("L").union(scan("R")))
        assert len(result) == 2

    def test_difference_removes_matching_rts(self):
        result = self._held(self._pair(), scan("L").difference(scan("R")))
        assert result.column("K") == [2]

    def test_difference_with_partial_rt_overlap(self):
        db = self._with_rts(
            L=(Schema.of("K"), [OngoingTuple((1,), IntervalSet([(0, 10)]))]),
            R=(Schema.of("K"), [OngoingTuple((1,), IntervalSet([(4, 6)]))]),
        )
        (row,) = self._held(db, scan("L").difference(scan("R"))).tuples
        assert row.rt == IntervalSet([(0, 4), (6, 10)])

    def test_intersection_is_the_double_difference(self):
        plan = scan("L").difference(scan("L").difference(scan("R")))
        result = self._held(self._pair(), plan)
        assert result.column("K") == [1]
