"""RT-aware aggregation (Section X future work), as ``Aggregate`` plans.

Every plan runs through ``Database.query`` — the cold build a
subscription starts from — over a table whose rows carry reference
times of their own, and each result is held to the aggregate's pointwise
definition (:func:`repro.baselines.clifford.evaluate_pointwise`) at every
critical reference time before the hand-picked values below are read.
"""

import time

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.errors import PredicateError, SchemaError
from repro.relational.relation import OngoingRelation
from repro.relational.schema import AttributeKind, Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import assert_reference_semantics


def d(month, day):
    return mmdd(month, day)


_SCHEMA = Schema.of("C", "Sev", ("VT", "interval"))


def _bugs() -> OngoingRelation:
    return OngoingRelation(
        _SCHEMA,
        [
            OngoingTuple(("spam", 3, until_now(d(1, 10))), IntervalSet([(0, 200)])),
            OngoingTuple(("spam", 5, until_now(d(2, 10))), IntervalSet([(50, 300)])),
            OngoingTuple(
                ("dash", 1, fixed_interval(d(1, 1), d(3, 1))),
                IntervalSet([(0, 100)]),
            ),
        ],
    )


def _database(tuples=None) -> Database:
    """Table B holding *tuples* (default: the three bugs)."""
    db = Database("aggregates")
    db.register("B", _bugs() if tuples is None else OngoingRelation(_SCHEMA, tuples))
    return db


def _aggregate(db, *args, **kwargs) -> OngoingRelation:
    """``scan("B").group_by(*args, **kwargs)`` through ``Database.query``,
    held to the pointwise definition."""
    plan = scan("B").group_by(*args, **kwargs)
    result = db.query(plan)
    assert_reference_semantics(plan, db, result)
    return result


def _scalar(db, aggregate, attr=None):
    """The one value of the scalar ``aggregate(attr)`` over B."""
    ((value,),) = (row.values for row in _aggregate(db, (), aggregate, attr))
    return value


def _rejected(db, *args):
    return db.query(scan("B").group_by(*args))


class TestCount:
    def test_count_follows_reference_times(self):
        count = _scalar(_database(), "count")
        assert count.instantiate(-10) == 0
        assert count.instantiate(10) == 2
        assert count.instantiate(60) == 3
        assert count.instantiate(150) == 2
        assert count.instantiate(250) == 1
        assert count.instantiate(500) == 0

    def test_count_matches_bag_semantics_everywhere(self):
        bugs = _bugs()
        count = _scalar(_database(), "count")
        for rt in range(-20, 350, 7):
            present = sum(1 for item in bugs if rt in item.rt)
            assert count.instantiate(rt) == present


class TestSumDurations:
    def test_sum_combines_ramps_inside_rts(self):
        total = _scalar(_database(), "sum_duration", "VT")
        for rt in range(-20, 350, 7):
            expected = 0
            for item in _bugs():
                if rt in item.rt:
                    start, end = item.values[2].instantiate(rt)
                    expected += max(0, end - start)
            assert total.instantiate(rt) == expected, rt

    def test_requires_interval_attribute(self):
        with pytest.raises(PredicateError, match="interval"):
            _rejected(_database(), (), "sum_duration", "Sev")


class TestExtrema:
    def test_min_and_max_over_present_tuples(self):
        db = _database()
        result = _aggregate(db, (), specs=[("min", "Sev", "low"), ("max", "Sev", "high")])
        assert result.instantiate(10) == {(1, 3)}
        assert result.instantiate(60) == {(1, 5)}
        assert result.instantiate(150) == {(3, 5)}
        assert result.instantiate(500) == frozenset()  # no bug is present

    def test_requires_fixed_numeric_attribute(self):
        with pytest.raises(PredicateError):
            _rejected(_database(), (), "min", "VT")
        with pytest.raises(PredicateError):
            _rejected(_database(), (), "min", "C")


class TestGroupBy:
    def test_group_count(self):
        result = _aggregate(_database(), ("C",), "count")
        assert result.schema.names == ("C", "count")
        assert result.schema.attribute("count").kind is AttributeKind.ONGOING_INTEGER
        by_component = {row.values[0]: row for row in result}
        spam_count = by_component["spam"].values[1]
        assert spam_count.instantiate(10) == 1
        assert spam_count.instantiate(60) == 2
        assert by_component["dash"].values[1].instantiate(10) == 1

    def test_group_rt_is_member_union(self):
        result = _aggregate(_database(), ("C",), "count")
        by_component = {row.values[0]: row for row in result}
        assert by_component["spam"].rt == IntervalSet([(0, 300)])
        assert by_component["dash"].rt == IntervalSet([(0, 100)])

    def test_group_sum_duration(self):
        result = _aggregate(_database(), ("C",), "sum_duration", "VT")
        by_component = {row.values[0]: row for row in result}
        rt = 80
        expected = 0
        for item in _bugs():
            if item.values[0] == "spam" and rt in item.rt:
                start, end = item.values[2].instantiate(rt)
                expected += max(0, end - start)
        assert by_component["spam"].values[1].instantiate(rt) == expected

    def test_group_min_max(self):
        result = _aggregate(_database(), ("C",), "max", "Sev", output_name="worst")
        by_component = {row.values[0]: row for row in result}
        assert by_component["spam"].values[1].instantiate(60) == 5

    def test_instantiation_through_the_relation(self):
        """Group tuples instantiate like any other ongoing tuple."""
        result = _aggregate(_database(), ("C",), "count")
        rows = result.instantiate(60)
        assert ("spam", 2) in rows

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(PredicateError, match="unknown aggregate"):
            _rejected(_database(), ("C",), "median", "Sev")

    def test_grouping_by_ongoing_attribute_rejected(self):
        with pytest.raises(SchemaError, match="fixed"):
            _rejected(_database(), ("VT",), "count")

    def test_aggregates_requiring_attributes_reject_none(self):
        with pytest.raises(PredicateError):
            _rejected(_database(), ("C",), "sum_duration")
        with pytest.raises(PredicateError):
            _rejected(_database(), ("C",), "min")

    def test_attribute_kinds_checked_even_on_empty_relations(self):
        """Validation is eager: an empty input does not hide a schema
        error (there is no group to trip over it)."""
        empty = _database([])
        with pytest.raises(PredicateError):
            _rejected(empty, ("C",), "sum_duration", "Sev")
        with pytest.raises(PredicateError):
            _rejected(empty, ("C",), "min", "VT")


class TestScalarAggregates:
    """SQL semantics: a scalar aggregate yields one row even over nothing."""

    def test_scalar_count_over_empty_relation_is_constant_zero(self):
        result = _aggregate(_database([]), (), "count")
        assert len(result) == 1
        (row,) = result.tuples
        for rt in (-100, 0, 60, 10_000):
            assert row.values[0].instantiate(rt) == 0
        assert rt in row.rt  # the constant is valid at every reference time

    def test_scalar_sum_and_extrema_over_empty_relation(self):
        for aggregate, attr in (
            ("sum_duration", "VT"),
            ("min", "Sev"),
            ("max", "Sev"),
        ):
            # MIN/MAX over nothing yield 0, like SUM_DURATION.
            assert _scalar(_database([]), aggregate, attr).instantiate(123) == 0

    def test_scalar_aggregate_over_nonempty_relation_unchanged(self):
        assert _scalar(_database(), "count").instantiate(60) == 3

    def test_grouped_aggregate_over_empty_relation_stays_empty(self):
        """Only the *scalar* form materializes a row from nothing — a
        GROUP BY over an empty relation has no groups to show."""
        assert len(_aggregate(_database([]), ("C",), "count")) == 0

    def test_scalar_row_only_over_a_child_with_no_tuples(self):
        """A child with no tuples at all yields the constant row at every
        rt; a child that is only empty *at* rt yields no row there."""
        specs = [("count", None, "n"), ("avg", "Sev", "mean")]
        nothing = _aggregate(_database([]), (), specs=specs)
        assert nothing.instantiate(500) == {(0, 0)}
        later = [OngoingTuple(("spam", 4, until_now(0)), IntervalSet([(200, 300)]))]
        absent = _aggregate(_database(later), (), specs=specs)
        assert absent.instantiate(100) == frozenset()
        assert absent.instantiate(250) == {(1, 4)}
        assert absent.instantiate(500) == frozenset()


class TestSweepEquivalence:
    """The accumulators are insensitive to member order — what lets the
    delta engine fold a maintained group's changes in any order."""

    def test_results_do_not_depend_on_tuple_order(self):
        reordered = _database(_bugs().tuples[::-1])
        for aggregate, attr in (
            ("count", None),
            ("sum_duration", "VT"),
            ("min", "Sev"),
            ("max", "Sev"),
        ):
            assert _scalar(_database(), aggregate, attr) == _scalar(
                reordered, aggregate, attr
            )

    def test_sum_durations_matches_pairwise_addition(self):
        """The accumulated sum equals the pairwise OngoingInt sum."""
        from repro.core.duration import duration
        from repro.core.integer import OngoingInt

        bugs = _bugs()
        position = bugs.schema.index_of("VT")
        total = OngoingInt.constant(0)
        for item in bugs:
            contribution = duration(item.values[position])
            if not item.rt.is_universal():
                contribution = contribution.mask(item.rt)
            total = total + contribution
        assert _scalar(_database(), "sum_duration", "VT") == total


def _wide_relation(n: int) -> OngoingRelation:
    """n members with distinct RT boundaries — the sweeps' worst case."""
    return OngoingRelation(
        _SCHEMA,
        [
            OngoingTuple(
                ("c", i % 97, fixed_interval(i, i + 10)),
                IntervalSet([(i, i + n)]),
            )
            for i in range(n)
        ],
    )


class TestLinearityGuard:
    """Micro-benchmark guard: the engine's cold build of an aggregate
    must stay near-linear in its members.

    Re-scanning all members per RT segment (O(boundaries × members)) or
    re-aligning a partial sum per member would take tens of seconds at
    this size, so a generous wall-clock bound pins the complexity
    without being flaky on slow CI runners.  The clock covers
    ``Database.query`` only: planning, the scan and the aggregate.
    """

    _MEMBERS = 4_000
    _BUDGET_SECONDS = 2.0

    def test_extrema_and_sum_duration_sweep_in_linear_time(self):
        db = Database("wide")
        db.register("B", _wide_relation(self._MEMBERS))
        plan = scan("B").group_by(
            (),
            specs=[("min", "Sev", "low"), ("max", "Sev", "high"), ("sum_duration", "VT", "load")],
        )
        started = time.perf_counter()
        result = db.query(plan)
        elapsed = time.perf_counter() - started
        assert elapsed < self._BUDGET_SECONDS, (
            f"aggregate cold build took {elapsed:.2f}s for {self._MEMBERS} "
            f"members — quadratic regression?"
        )
        # Sanity anchors so the guard cannot pass on broken results.
        ((low, high, load),) = (row.values for row in result)
        midpoint = self._MEMBERS
        assert low.instantiate(midpoint) == 0
        assert high.instantiate(midpoint) == 96
        assert load.instantiate(-1) == 0

    def test_group_support_union_is_one_sweep(self):
        """The group RT must merge all member intervals in one walk — a
        pairwise IntervalSet.union over members with *disjoint* reference
        times is quadratic."""
        disjoint = [
            OngoingTuple(
                ("c", 1, fixed_interval(0, 1)),
                IntervalSet([(3 * i, 3 * i + 1)]),
            )
            for i in range(self._MEMBERS)
        ]
        db = _database(disjoint)
        started = time.perf_counter()
        grouped = db.query(scan("B").group_by(("C",), "count"))
        elapsed = time.perf_counter() - started
        assert elapsed < self._BUDGET_SECONDS, (
            f"group support union took {elapsed:.2f}s for "
            f"{self._MEMBERS} disjoint members — quadratic regression?"
        )
        (row,) = grouped.tuples
        assert row.rt == IntervalSet(pair for item in disjoint for pair in item.rt)
        assert row.rt.cardinality == self._MEMBERS
