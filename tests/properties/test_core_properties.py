"""Property tests for the core operations — Definition 4 as an executable law.

Every ongoing operation must satisfy, at **every** reference time::

    ‖op(x, y)‖rt  ==  opF(‖x‖rt, ‖y‖rt)

Truth values can only change at component values of the operands, so the
assertions sweep the complete set of critical reference times rather than a
random sample — within each drawn example the check is exhaustive.
"""

import copy
import pickle
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import intervalset
from repro.core.boolean import OngoingBoolean
from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.intervalset import EMPTY_SET, UNIVERSAL_SET, IntervalSet
from repro.core.operations import (
    equal,
    greater_equal,
    greater_than,
    less_equal,
    less_than,
    not_equal,
    ongoing_max,
    ongoing_min,
)

from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.core.timepoint import NOW, OngoingTimePoint, fixed, growing, limited
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.engine.storage import (
    pack_rt,
    pack_tagged_tuple,
    unpack_rt,
    unpack_tagged_tuple,
)
from repro.errors import TimeDomainError
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import (
    critical_points,
    empty_intern_table,
    empty_rt_table,
    finite_points,
    interval_sets,
    ongoing_points,
)


class TestComparisonLaws:
    @given(ongoing_points(), ongoing_points())
    def test_less_than_matches_fixed(self, t1, t2):
        result = less_than(t1, t2)
        for rt in critical_points(t1, t2):
            assert result.instantiate(rt) == (
                t1.instantiate(rt) < t2.instantiate(rt)
            ), rt

    @given(ongoing_points(), ongoing_points())
    def test_less_equal_matches_fixed(self, t1, t2):
        result = less_equal(t1, t2)
        for rt in critical_points(t1, t2):
            assert result.instantiate(rt) == (
                t1.instantiate(rt) <= t2.instantiate(rt)
            )

    @given(ongoing_points(), ongoing_points())
    def test_equal_matches_fixed(self, t1, t2):
        result = equal(t1, t2)
        for rt in critical_points(t1, t2):
            assert result.instantiate(rt) == (
                t1.instantiate(rt) == t2.instantiate(rt)
            )

    @given(ongoing_points(), ongoing_points())
    def test_not_equal_matches_fixed(self, t1, t2):
        result = not_equal(t1, t2)
        for rt in critical_points(t1, t2):
            assert result.instantiate(rt) == (
                t1.instantiate(rt) != t2.instantiate(rt)
            )

    @given(ongoing_points(), ongoing_points())
    def test_greater_comparisons_match_fixed(self, t1, t2):
        gt = greater_than(t1, t2)
        ge = greater_equal(t1, t2)
        for rt in critical_points(t1, t2):
            assert gt.instantiate(rt) == (t1.instantiate(rt) > t2.instantiate(rt))
            assert ge.instantiate(rt) == (t1.instantiate(rt) >= t2.instantiate(rt))

    @given(ongoing_points(), ongoing_points())
    def test_trichotomy(self, t1, t2):
        """Exactly one of <, =, > holds at every reference time."""
        lt = less_than(t1, t2)
        eq = equal(t1, t2)
        gt = greater_than(t1, t2)
        for rt in critical_points(t1, t2):
            truths = [lt.instantiate(rt), eq.instantiate(rt), gt.instantiate(rt)]
            assert sum(truths) == 1


class TestMinMaxLaws:
    @given(ongoing_points(), ongoing_points())
    def test_min_matches_fixed(self, t1, t2):
        result = ongoing_min(t1, t2)
        for rt in critical_points(t1, t2):
            assert result.instantiate(rt) == min(
                t1.instantiate(rt), t2.instantiate(rt)
            )

    @given(ongoing_points(), ongoing_points())
    def test_max_matches_fixed(self, t1, t2):
        result = ongoing_max(t1, t2)
        for rt in critical_points(t1, t2):
            assert result.instantiate(rt) == max(
                t1.instantiate(rt), t2.instantiate(rt)
            )

    @given(ongoing_points(), ongoing_points())
    def test_closure(self, t1, t2):
        """Theorem 1: Ω is closed — results satisfy the a <= b invariant."""
        assert ongoing_min(t1, t2).a <= ongoing_min(t1, t2).b
        assert ongoing_max(t1, t2).a <= ongoing_max(t1, t2).b

    @given(ongoing_points(), ongoing_points(), ongoing_points())
    def test_min_max_distribute(self, x, y, z):
        """min and max distribute over each other (used in the Thm 1 proof)."""
        left = ongoing_min(ongoing_max(x, z), ongoing_max(y, z))
        right = ongoing_max(ongoing_min(x, y), z)
        assert left == right


class TestConnectiveLaws:
    @given(interval_sets(), interval_sets())
    def test_conjunction_matches_fixed(self, s1, s2):
        b1, b2 = OngoingBoolean(s1), OngoingBoolean(s2)
        result = b1 & b2
        for rt in critical_points(s1, s2):
            assert result.instantiate(rt) == (
                b1.instantiate(rt) and b2.instantiate(rt)
            )

    @given(interval_sets(), interval_sets())
    def test_disjunction_matches_fixed(self, s1, s2):
        b1, b2 = OngoingBoolean(s1), OngoingBoolean(s2)
        result = b1 | b2
        for rt in critical_points(s1, s2):
            assert result.instantiate(rt) == (
                b1.instantiate(rt) or b2.instantiate(rt)
            )

    @given(interval_sets())
    def test_negation_matches_fixed(self, s1):
        b1 = OngoingBoolean(s1)
        result = ~b1
        for rt in critical_points(s1):
            assert result.instantiate(rt) == (not b1.instantiate(rt))

    @given(interval_sets(), interval_sets())
    def test_de_morgan(self, s1, s2):
        b1, b2 = OngoingBoolean(s1), OngoingBoolean(s2)
        assert ~(b1 & b2) == (~b1 | ~b2)
        assert ~(b1 | b2) == (~b1 & ~b2)

    @given(interval_sets(), interval_sets())
    def test_cardinality_bounds(self, s1, s2):
        """Section IX-D: |b1 ∧ b2| and |b1 ∨ b2| are at most |b1| + |b2|."""
        b1, b2 = OngoingBoolean(s1), OngoingBoolean(s2)
        bound = s1.cardinality + s2.cardinality
        assert (b1 & b2).true_set.cardinality <= bound
        assert (b1 | b2).true_set.cardinality <= bound

    @given(interval_sets())
    def test_negation_cardinality_bound(self, s1):
        """Section IX-D: |b1| - 1 <= |¬b1| <= |b1| + 1."""
        negated = OngoingBoolean(s1).negation().true_set.cardinality
        assert s1.cardinality - 1 <= negated <= s1.cardinality + 1


class TestIntervalSetInvariants:
    @given(interval_sets(), interval_sets())
    def test_operations_preserve_normalization(self, s1, s2):
        """Results stay maximal, non-overlapping, ascending (Section VIII)."""
        for result in (s1 & s2, s1 | s2, s1 - s2, ~s1):
            pairs = result.intervals
            for start, end in pairs:
                assert start < end
            for (_, previous_end), (next_start, _) in zip(pairs, pairs[1:]):
                # strictly separated: adjacency would violate maximality
                assert previous_end < next_start

    @given(interval_sets(), interval_sets())
    def test_membership_agrees_with_operations(self, s1, s2):
        intersection = s1 & s2
        union = s1 | s2
        difference = s1 - s2
        for rt in critical_points(s1, s2):
            assert (rt in intersection) == ((rt in s1) and (rt in s2))
            assert (rt in union) == ((rt in s1) or (rt in s2))
            assert (rt in difference) == ((rt in s1) and (rt not in s2))

    @given(interval_sets())
    def test_complement_is_involution(self, s1):
        assert ~~s1 == s1

    @given(interval_sets(), interval_sets())
    def test_overlaps_iff_nonempty_intersection(self, s1, s2):
        assert s1.overlaps(s2) == (not (s1 & s2).is_empty())


class _Tick(int):
    """A well-behaved int subclass: a valid component, never interned."""


class _Backwards(int):
    """An int subclass equal and hash-equal to its int, ordered backwards:
    every point of it fails Definition 1's ``a <= b``."""

    __hash__ = int.__hash__

    def __gt__(self, other):
        return True


class _Point(OngoingTimePoint):
    __slots__ = ()


class TestInternedPoints:
    """One object per value of Ω; identity is memory, never semantics."""

    @given(ongoing_points())
    def test_an_equal_valid_point_is_the_same_object(self, point):
        a, b = point.components()
        assert OngoingTimePoint(a, b) is point
        assert fixed(a) is OngoingTimePoint(a, a)
        assert growing(a) is OngoingTimePoint(a, PLUS_INF)
        assert limited(b) is OngoingTimePoint(MINUS_INF, b)
        assert fixed_interval(a, b).start is fixed(a)
        assert until_now(b).end is NOW

    @given(ongoing_points())
    def test_invalid_components_raise_while_an_equal_point_is_cached(self, point):
        a, b = point.components()
        assert OngoingTimePoint(a, b) is point
        cached = {(0, 1): OngoingTimePoint(0, 1), (1, 1): OngoingTimePoint(1, 1)}
        for bad in ((True, True), (False, True), (0, True), (True, 1)):
            assert bad in cached  # a bool tuple is an equal key
            with pytest.raises(TimeDomainError):
                OngoingTimePoint(*bad)
        with pytest.raises(TimeDomainError):
            fixed(True)
        with pytest.raises(TimeDomainError, match="a <= b"):
            OngoingTimePoint(_Backwards(a), _Backwards(b))
        with pytest.raises(TimeDomainError):
            OngoingTimePoint(a, PLUS_INF + 1)
        if a < b:
            with pytest.raises(TimeDomainError, match="a <= b"):
                OngoingTimePoint(b, a)
        assert OngoingTimePoint(a, b) is point
        assert all(OngoingTimePoint(*key) is cached[key] for key in cached)

    @given(ongoing_points())
    def test_subclasses_and_int_subclasses_are_not_interned(self, point):
        a, b = point.components()
        derived = _Point(a, b)
        assert type(derived) is _Point and derived is not _Point(a, b)
        assert derived == point and hash(derived) == hash(point)
        ticked = OngoingTimePoint(_Tick(a), _Tick(b))
        assert ticked is not point
        assert ticked is not OngoingTimePoint(_Tick(a), _Tick(b))
        assert ticked == point and hash(ticked) == hash(point)
        assert OngoingTimePoint(a, b) is point

    @given(ongoing_points())
    def test_a_cleared_table_keeps_values_and_now(self, point):
        a, b = point.components()
        empty_intern_table()
        again = OngoingTimePoint(a, b)
        assert again == point and hash(again) == hash(point)
        assert OngoingTimePoint(a, b) is again
        assert OngoingTimePoint(MINUS_INF, PLUS_INF) is NOW
        assert NOW.is_now and NOW.components() == (MINUS_INF, PLUS_INF)

    @given(ongoing_points())
    def test_pickle_and_copies_return_the_interned_point(self, point):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(point, protocol)) is point
        assert copy.copy(point) is point
        assert copy.deepcopy(point) is point
        interval = pickle.loads(pickle.dumps(OngoingInterval(point, NOW)))
        assert interval.start is point and interval.end is NOW
        derived = copy.deepcopy(_Point(*point.components()))
        assert type(derived) is _Point and derived == point


def _singletons_intact() -> None:
    """EMPTY_SET and UNIVERSAL_SET hold their values and are still the
    objects every path returns for them."""
    assert EMPTY_SET.intervals == () and not EMPTY_SET
    assert UNIVERSAL_SET.intervals == ((MINUS_INF, PLUS_INF),)
    assert UNIVERSAL_SET.is_universal() and 0 in UNIVERSAL_SET
    assert IntervalSet() is EMPTY_SET and IntervalSet.empty() is EMPTY_SET
    assert IntervalSet([(MINUS_INF, PLUS_INF)]) is UNIVERSAL_SET
    assert IntervalSet.universal() is UNIVERSAL_SET
    assert intervalset._INTERNED[()] is EMPTY_SET
    assert intervalset._INTERNED[(MINUS_INF, PLUS_INF),] is UNIVERSAL_SET


def _scrambled(s: IntervalSet) -> list:
    """The pairs of *s* in reverse, each split in two touching halves and
    repeated whole over them: unsorted, adjacent and overlapping input."""
    pairs = []
    for start, end in reversed(s.intervals):
        middle = start + 1
        if middle < end:
            pairs += [(middle, end), (start, middle)]
        pairs.append((start, end))
    return pairs


class TestSharedReferenceTimes:
    """One object per RT value through every path; identity is memory,
    never semantics."""

    @given(interval_sets())
    def test_the_constructor_returns_the_shared_set(self, s1):
        assert IntervalSet(_scrambled(s1)) is s1
        assert IntervalSet(s1.intervals) is s1
        assert IntervalSet(iter(s1)) is s1
        _singletons_intact()

    @given(interval_sets(), interval_sets())
    def test_the_connectives_return_the_shared_set(self, s1, s2):
        for result in (s1 & s2, s1 | s2, s1 - s2, ~s1):
            assert IntervalSet(result.intervals) is result
        assert s1 - s2 is s1 & ~s2
        assert s1 & s2 is s2 & s1 and s1 | s2 is s2 | s1
        assert ~~s1 is s1 and s1 & s1 is s1 and s1 | s1 is s1
        assert s1 - s1 is EMPTY_SET
        assert s1 | ~s1 is UNIVERSAL_SET
        _singletons_intact()

    @given(finite_points)
    def test_the_single_interval_constructors_return_the_shared_set(self, rt):
        assert IntervalSet.at_least(rt) is IntervalSet([(rt, PLUS_INF)])
        assert IntervalSet.below(rt) is IntervalSet([(MINUS_INF, rt)])
        assert IntervalSet.point(rt) is IntervalSet([(rt, rt + 1)])
        assert ~IntervalSet.below(rt) is IntervalSet.at_least(rt)
        assert IntervalSet.at_least(MINUS_INF) is UNIVERSAL_SET
        assert IntervalSet.below(PLUS_INF) is UNIVERSAL_SET
        assert IntervalSet.at_least(PLUS_INF) is EMPTY_SET
        assert IntervalSet.below(MINUS_INF) is EMPTY_SET
        _singletons_intact()

    @given(interval_sets())
    def test_the_decoders_return_the_shared_set(self, s1):
        assert unpack_rt(pack_rt(s1))[0] is s1
        row = OngoingTuple((1, "bug", until_now(5)), s1)
        assert unpack_tagged_tuple(pack_tagged_tuple(row))[0].rt is s1
        _singletons_intact()

    @given(interval_sets())
    def test_a_group_support_is_the_shared_set(self, s1):
        """Group 0 holds three point members and one member per interval
        of *s1*; group 1 only the latter."""
        members = [OngoingTuple((0, index), IntervalSet.point(index)) for index in range(3)]
        for group in (0, 1):
            members += [
                OngoingTuple((group, 10 + index), IntervalSet([pair]))
                for index, pair in enumerate(s1.intervals)
            ]
        db = Database("group-support")
        db.create_table("E", Schema.of("G", "V")).insert_tuples(members)
        rows = {
            row.values[0]: row.rt
            for row in db.query(scan("E").group_by(("G",), "count"))
        }
        assert rows[0] is s1 | IntervalSet([(0, 3)])
        assert rows.get(1, EMPTY_SET) is s1
        _singletons_intact()

    def test_an_aggregate_group_row_carries_the_shared_set(self):
        db = Database("shared-rt")
        table = db.create_table("E", Schema.of("ID", "G", ("VT", "interval")))
        for key in range(12):
            table.insert(key, key % 3, until_now(key * 3))
        plan = scan("E").where(col("VT").overlaps(lit(fixed_interval(20, 30))))
        members = db.query(plan)
        groups = db.query(plan.group_by(("G",), "count", output_name="n"))
        assert len(groups) == 3
        for row in groups:
            support = IntervalSet(
                pair
                for member in members
                if member.values[1] == row.values[0]
                for pair in member.rt
            )
            assert row.rt is support and row.rt is IntervalSet(row.rt.intervals)
        _singletons_intact()

    @given(interval_sets())
    def test_pickle_and_copies_return_the_shared_set(self, s1):
        for value in (s1, EMPTY_SET, UNIVERSAL_SET):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(value, protocol)) is value
            assert copy.copy(value) is value
            assert copy.deepcopy(value) is value
        row = pickle.loads(pickle.dumps(OngoingTuple((1,), s1)))
        assert row.rt is s1
        _singletons_intact()

    @given(interval_sets())
    def test_an_emptying_keeps_values_and_both_singletons(self, s1):
        pairs = s1.intervals
        empty_rt_table()
        _singletons_intact()
        assert len(intervalset._INTERNED) == 3
        again = IntervalSet(pairs)
        assert again == s1 and hash(again) == hash(s1)
        assert again is not s1 or s1 in (EMPTY_SET, UNIVERSAL_SET)
        assert IntervalSet(pairs) is again
        assert IntervalSet.at_least(MINUS_INF) is UNIVERSAL_SET
        _singletons_intact()

    def test_the_table_never_exceeds_its_bound(self):
        empty_rt_table()
        with mock.patch.object(intervalset, "_INTERN_LIMIT", 8):
            sizes = []
            for rt in range(40):
                IntervalSet.point(rt)
                sizes.append(len(intervalset._INTERNED))
                _singletons_intact()
        assert max(sizes) == 8 and min(sizes) == 3
