"""Unit tests for ongoing relations and the bind operator on relations."""

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.timeline import mmdd
from repro.errors import SchemaError
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

_SCHEMA = Schema.of("BID", ("VT", "interval"))


class TestConstruction:
    def test_from_rows_assigns_trivial_rt(self):
        relation = OngoingRelation.from_rows(_SCHEMA, [(1, until_now(0))])
        assert all(item.rt.is_universal() for item in relation)

    def test_duplicates_removed(self):
        row = OngoingTuple((1, until_now(0)))
        relation = OngoingRelation(_SCHEMA, [row, row])
        assert len(relation) == 1

    def test_same_values_different_rt_are_distinct(self):
        a = OngoingTuple((1, until_now(0)), IntervalSet([(0, 5)]))
        b = OngoingTuple((1, until_now(0)), IntervalSet([(5, 9)]))
        assert len(OngoingRelation(_SCHEMA, [a, b])) == 2

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="values"):
            OngoingRelation(_SCHEMA, [OngoingTuple((1,))])

    def test_from_rows_refuses_an_ongoing_value_in_a_fixed_column(self):
        # The bind operator copies fixed columns through: a wrong schema
        # would leave the interval unbound, so it fails where it is built.
        with pytest.raises(SchemaError, match="fixed column 1"):
            OngoingRelation.from_rows(Schema.of("BID", "VT"), [(1, until_now(0))])

    def test_insertion_order_is_stable(self):
        rows = [(i, until_now(i)) for i in range(5)]
        relation = OngoingRelation.from_rows(_SCHEMA, rows)
        assert relation.column("BID") == [0, 1, 2, 3, 4]


class TestBindOperator:
    def test_omits_tuples_outside_rt(self):
        inside = OngoingTuple((1, fixed_interval(0, 5)), IntervalSet([(0, 10)]))
        outside = OngoingTuple((2, fixed_interval(0, 5)), IntervalSet([(20, 30)]))
        relation = OngoingRelation(_SCHEMA, [inside, outside])
        assert relation.instantiate(5) == frozenset({(1, (0, 5))})

    def test_instantiates_ongoing_attributes(self):
        relation = OngoingRelation.from_rows(_SCHEMA, [(1, until_now(mmdd(1, 25)))])
        assert relation.instantiate(mmdd(2, 1)) == frozenset(
            {(1, (mmdd(1, 25), mmdd(2, 1)))}
        )

    def test_result_is_a_set(self):
        # Two tuples that instantiate identically at rt collapse to one.
        a = OngoingTuple((1, fixed_interval(0, 5)), IntervalSet([(0, 10)]))
        b = OngoingTuple((1, fixed_interval(0, 5)), IntervalSet([(5, 15)]))
        relation = OngoingRelation(_SCHEMA, [a, b])
        assert len(relation.instantiate(7)) == 1


class TestIntrospection:
    def test_rt_cardinalities(self):
        a = OngoingTuple((1, until_now(0)), IntervalSet([(0, 5), (7, 9)]))
        b = OngoingTuple((2, until_now(0)), IntervalSet([(0, 5)]))
        relation = OngoingRelation(_SCHEMA, [a, b])
        assert relation.rt_cardinalities() == [2, 1]

    def test_equality_is_set_like(self):
        a = OngoingTuple((1, until_now(0)))
        b = OngoingTuple((2, until_now(3)))
        assert OngoingRelation(_SCHEMA, [a, b]) == OngoingRelation(_SCHEMA, [b, a])

    def test_format_truncates(self):
        rows = [(i, until_now(i)) for i in range(30)]
        relation = OngoingRelation.from_rows(_SCHEMA, rows)
        text = relation.format(max_rows=3)
        assert "27 more" in text
