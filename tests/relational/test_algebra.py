"""Unit tests for the relational algebra on ongoing relations (Theorem 2)."""

import pytest

from repro.core.integer import OngoingInt
from repro.core.interval import fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import mmdd
from repro.core.timepoint import NOW, fixed
from repro.errors import SchemaError
from repro.relational import algebra
from repro.relational.predicates import col, lit
from repro.relational.relation import OngoingRelation
from repro.relational.schema import AttributeKind, Schema
from repro.relational.tuples import OngoingTuple


def d(month, day):
    return mmdd(month, day)


_BUGS = Schema.of("BID", "C", ("VT", "interval"))


def _bugs() -> OngoingRelation:
    return OngoingRelation.from_rows(
        _BUGS,
        [
            (500, "Spam filter", until_now(d(1, 25))),
            (501, "Spam filter", fixed_interval(d(3, 30), d(8, 21))),
            (502, "Dashboard", until_now(d(7, 1))),
        ],
    )


class TestSelection:
    def test_example3_of_the_paper(self):
        relation = OngoingRelation(
            _BUGS,
            [
                OngoingTuple(
                    (500, "Spam filter", until_now(d(1, 25))),
                    IntervalSet.below(d(8, 16)),
                )
            ],
        )
        window = lit(fixed_interval(d(1, 20), d(8, 18)))
        result = algebra.select(relation, col("VT").overlaps(window))
        (row,) = result.tuples
        assert row.rt == IntervalSet([(d(1, 26), d(8, 16))])

    def test_fixed_predicate_keeps_or_drops(self):
        result = algebra.select(_bugs(), col("C") == lit("Spam filter"))
        assert sorted(result.column("BID")) == [500, 501]
        assert all(item.rt.is_universal() for item in result)

    def test_tuples_with_empty_rt_are_dropped(self):
        window = lit(fixed_interval(d(1, 1), d(1, 10)))
        result = algebra.select(_bugs(), col("VT").overlaps(window))
        assert len(result) == 0


class TestProjection:
    def test_plain_columns(self):
        result = algebra.project(_bugs(), ["BID"])
        assert result.schema.names == ("BID",)
        assert sorted(result.column("BID")) == [500, 501, 502]

    def test_computed_intersection_column(self):
        window = fixed_interval(d(1, 20), d(8, 18))
        result = algebra.project(
            _bugs(), ["BID", ("Resp", col("VT").intersect(lit(window)))]
        )
        assert result.schema.attribute("Resp").kind is AttributeKind.ONGOING_INTERVAL
        by_bid = {row.values[0]: row.values[1] for row in result}
        assert by_bid[500].format() == "[01/25, +08/18)"

    def test_explicit_kind_override(self):
        result = algebra.project(
            _bugs(), [("N", lit(NOW), AttributeKind.ONGOING_POINT)]
        )
        assert result.schema.attribute("N").kind is AttributeKind.ONGOING_POINT

    def test_explicit_fixed_kind_on_an_ongoing_column_is_refused(self):
        with pytest.raises(SchemaError, match="fixed column"):
            algebra.project(_bugs(), [("VT", col("VT"), AttributeKind.FIXED)])

    def test_ongoing_number_literals_are_typed_ongoing_integer(self):
        three = OngoingInt.constant(3)
        half = OngoingRational(three, OngoingInt.constant(6))
        schema = Schema.of("K")
        for value in (three, half):
            kind = algebra.infer_kind(lit(value), schema)
            assert kind is AttributeKind.ONGOING_INTEGER
        result = algebra.project(_bugs(), [("three", lit(three))])
        assert result.schema.attribute("three").kind is AttributeKind.ONGOING_INTEGER
        assert result.instantiate(d(8, 1)) == frozenset({(3,)})

    def test_duplicates_merge_by_set_semantics(self):
        result = algebra.project(_bugs(), [("one", lit(1))])
        assert len(result) == 1


class TestProductAndJoin:
    def test_product_requires_qualification_on_clash(self):
        with pytest.raises(SchemaError, match="qualify"):
            algebra.product(_bugs(), _bugs())

    def test_product_intersects_rts(self):
        left = OngoingRelation(
            Schema.of("A"), [OngoingTuple((1,), IntervalSet([(0, 10)]))]
        )
        right = OngoingRelation(
            Schema.of("B"), [OngoingTuple((2,), IntervalSet([(5, 20)]))]
        )
        result = algebra.product(left, right)
        (row,) = result.tuples
        assert row.rt == IntervalSet([(5, 10)])

    def test_product_drops_disjoint_rts(self):
        left = OngoingRelation(
            Schema.of("A"), [OngoingTuple((1,), IntervalSet([(0, 5)]))]
        )
        right = OngoingRelation(
            Schema.of("B"), [OngoingTuple((2,), IntervalSet([(8, 20)]))]
        )
        assert len(algebra.product(left, right)) == 0

    def test_join_is_selection_over_product(self):
        bugs = _bugs()
        predicate = (col("R.C") == col("S.C")) & col("R.VT").before(col("S.VT"))
        joined = algebra.join(bugs, bugs, predicate, left_name="R", right_name="S")
        selected = algebra.select(
            algebra.product(bugs, bugs, left_name="R", right_name="S"), predicate
        )
        assert joined == selected


class TestUnionDifferenceIntersection:
    def _pair(self):
        schema = Schema.of("K", ("VT", "interval"))
        left = OngoingRelation.from_rows(
            schema, [(1, until_now(d(1, 1))), (2, fixed_interval(d(1, 1), d(2, 1)))]
        )
        right = OngoingRelation.from_rows(schema, [(1, until_now(d(1, 1)))])
        return left, right

    def test_union_is_set_union(self):
        left, right = self._pair()
        assert len(algebra.union(left, right)) == 2

    def test_union_requires_compatible_schemas(self):
        left, _ = self._pair()
        with pytest.raises(SchemaError):
            algebra.union(left, OngoingRelation.from_rows(Schema.of("K"), [(1,)]))

    def test_difference_removes_matching_rts(self):
        left, right = self._pair()
        result = algebra.difference(left, right)
        assert result.column("K") == [2]

    def test_difference_with_partial_rt_overlap(self):
        schema = Schema.of("K")
        left = OngoingRelation(
            schema, [OngoingTuple((1,), IntervalSet([(0, 10)]))]
        )
        right = OngoingRelation(
            schema, [OngoingTuple((1,), IntervalSet([(4, 6)]))]
        )
        result = algebra.difference(left, right)
        (row,) = result.tuples
        assert row.rt == IntervalSet([(0, 4), (6, 10)])

    def test_difference_on_ongoing_attributes_is_per_rt(self):
        # [01/25, now) and [01/25, 03/01) instantiate equally up to 03/01;
        # the difference keeps only the reference times where they differ.
        schema = Schema.of(("VT", "interval"))
        left = OngoingRelation.from_rows(schema, [(until_now(d(1, 25)),)])
        right = OngoingRelation.from_rows(
            schema, [(fixed_interval(d(1, 25), d(3, 1)),)]
        )
        result = algebra.difference(left, right)
        (row,) = result.tuples
        # The two intervals instantiate identically only at rt = 03/01
        # (where now binds to 03/01); the difference keeps every other rt.
        assert row.rt == IntervalSet.point(d(3, 1)).complement()

    def test_intersection_keeps_matching_rts(self):
        left, right = self._pair()
        result = algebra.intersection(left, right)
        assert result.column("K") == [1]


class TestRenameAndCoalesce:
    def test_rename(self):
        renamed = algebra.rename(_bugs(), {"BID": "ID"})
        assert renamed.schema.names == ("ID", "C", "VT")
        assert len(renamed) == 3

    def test_coalesce_merges_rts(self):
        schema = Schema.of("K")
        relation = OngoingRelation(
            schema,
            [
                OngoingTuple((1,), IntervalSet([(0, 5)])),
                OngoingTuple((1,), IntervalSet([(5, 9)])),
            ],
        )
        coalesced = algebra.coalesce(relation)
        (row,) = coalesced.tuples
        assert row.rt == IntervalSet([(0, 9)])


class TestValueEquality:
    def test_fixed_attributes(self):
        schema = Schema.of("K")
        assert algebra.value_equality(schema, (1,), (1,)).is_always_true()
        assert algebra.value_equality(schema, (1,), (2,)).is_always_false()

    def test_ongoing_point_attribute(self):
        schema = Schema.of(("T", "point"))
        result = algebra.value_equality(schema, (fixed(d(10, 17)),), (NOW,))
        assert result.true_set == IntervalSet.point(d(10, 17))

    def test_ongoing_interval_attribute_uses_value_equality(self):
        schema = Schema.of(("VT", "interval"))
        left = (fixed_interval(d(3, 3), d(3, 3)),)   # always empty
        right = (fixed_interval(d(5, 5), d(5, 5)),)  # always empty, different
        # Allen equals would call these equal; value equality must not.
        assert algebra.value_equality(schema, left, right).is_always_false()
