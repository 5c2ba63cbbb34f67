"""Unit tests for IntervalSet — the representation behind RT and St."""

import pickle

import pytest

from repro.core.intervalset import EMPTY_SET, UNIVERSAL_SET, IntervalSet
from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.errors import IntervalError, TimeDomainError

# IntervalSet([(20190117, 20190301)]) pickled before sets were shared
# (copyreg's __newobj__ form: an argument-less __new__, then the slots).
_OLD_SET_PICKLE = (
    b"\x80\x04\x95a\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.core.intervalset"
    b"\x94\x8c\x0bIntervalSet\x94\x93\x94)\x81\x94N}\x94(\x8c\n_intervals\x94J"
    b"\xa5\x134\x01J]\x144\x01\x86\x94\x85\x94\x8c\x07_starts\x94J\xa5\x134\x01"
    b"\x85\x94u\x86\x94b."
)


class TestNormalization:
    def test_unsorted_input_is_sorted(self):
        assert IntervalSet([(5, 7), (1, 3)]).intervals == ((1, 3), (5, 7))

    def test_overlapping_intervals_merge(self):
        assert IntervalSet([(1, 5), (3, 8)]).intervals == ((1, 8),)

    def test_adjacent_intervals_merge_to_maximal(self):
        assert IntervalSet([(1, 3), (3, 5)]).intervals == ((1, 5),)

    def test_contained_interval_is_absorbed(self):
        assert IntervalSet([(1, 10), (3, 5)]).intervals == ((1, 10),)

    def test_empty_interval_rejected(self):
        with pytest.raises(IntervalError, match="empty or inverted"):
            IntervalSet([(3, 3)])

    def test_inverted_interval_rejected(self):
        with pytest.raises(IntervalError):
            IntervalSet([(5, 3)])

    def test_non_time_point_rejected(self):
        with pytest.raises(Exception):
            IntervalSet([("a", "b")])


class TestConstructors:
    def test_empty_and_universal_are_shared(self):
        assert IntervalSet.empty() is EMPTY_SET
        assert IntervalSet.universal() is UNIVERSAL_SET

    def test_point(self):
        assert IntervalSet.point(4).intervals == ((4, 5),)

    def test_point_rejects_plus_inf(self):
        with pytest.raises(IntervalError):
            IntervalSet.point(PLUS_INF)

    def test_at_least(self):
        assert IntervalSet.at_least(4).intervals == ((4, PLUS_INF),)
        assert IntervalSet.at_least(PLUS_INF).is_empty()

    def test_below(self):
        assert IntervalSet.below(4).intervals == ((MINUS_INF, 4),)
        assert IntervalSet.below(MINUS_INF).is_empty()

    @pytest.mark.parametrize(
        "bound",
        [MINUS_INF - 5, MINUS_INF - 1, PLUS_INF + 1, PLUS_INF + 3, True, 1.5],
        ids=["minus_inf-5", "minus_inf-1", "plus_inf+1", "plus_inf+3", "bool", "float"],
    )
    def test_at_least_and_below_check_the_domain(self, bound):
        # As the constructor and point do: out of T is refused, never a set
        # that covers every reference time without being the universal one.
        with pytest.raises(TimeDomainError):
            IntervalSet.at_least(bound)
        with pytest.raises(TimeDomainError):
            IntervalSet.below(bound)
        with pytest.raises(TimeDomainError):
            IntervalSet([(MINUS_INF - 5, 0)])

    def test_the_domain_limits_give_the_shared_universal_and_empty_sets(self):
        assert IntervalSet.at_least(MINUS_INF) is UNIVERSAL_SET
        assert IntervalSet.below(PLUS_INF) is UNIVERSAL_SET
        assert IntervalSet.at_least(PLUS_INF) is EMPTY_SET
        assert IntervalSet.below(MINUS_INF) is EMPTY_SET


class TestOldPickles:
    def test_a_set_pickled_in_the_slots_form_is_refused(self):
        # Loading it would fill the slots of EMPTY_SET, which the
        # argument-less constructor returns.
        with pytest.raises(TypeError, match="EMPTY_SET"):
            pickle.loads(_OLD_SET_PICKLE)
        assert EMPTY_SET.intervals == () and IntervalSet() is EMPTY_SET
        assert 20190117 not in EMPTY_SET


class TestMembership:
    def test_contains_inside(self):
        s = IntervalSet([(1, 4), (10, 12)])
        assert 1 in s and 3 in s and 10 in s and 11 in s

    def test_end_points_are_exclusive(self):
        s = IntervalSet([(1, 4)])
        assert 4 not in s

    def test_outside(self):
        s = IntervalSet([(1, 4), (10, 12)])
        assert 0 not in s and 5 not in s and 20 not in s

    def test_universal_contains_everything_below_plus_inf(self):
        assert 0 in UNIVERSAL_SET
        assert MINUS_INF in UNIVERSAL_SET

    def test_empty_contains_nothing(self):
        assert 0 not in EMPTY_SET


class TestSetOperations:
    def test_intersection_basic(self):
        left = IntervalSet([(1, 6)])
        right = IntervalSet([(4, 9)])
        assert (left & right).intervals == ((4, 6),)

    def test_intersection_disjoint(self):
        assert (IntervalSet([(1, 3)]) & IntervalSet([(5, 8)])).is_empty()

    def test_intersection_multi_piece(self):
        left = IntervalSet([(0, 10)])
        right = IntervalSet([(1, 3), (5, 7), (9, 12)])
        assert (left & right).intervals == ((1, 3), (5, 7), (9, 10))

    def test_intersection_with_universal_is_identity(self):
        s = IntervalSet([(2, 4)])
        assert (s & UNIVERSAL_SET) == s
        assert (UNIVERSAL_SET & s) == s

    def test_union_merges(self):
        assert (IntervalSet([(1, 3)]) | IntervalSet([(2, 6)])).intervals == ((1, 6),)

    def test_union_keeps_gaps(self):
        assert (IntervalSet([(1, 3)]) | IntervalSet([(5, 6)])).intervals == (
            (1, 3),
            (5, 6),
        )

    def test_union_with_empty_is_identity(self):
        s = IntervalSet([(2, 4)])
        assert (s | EMPTY_SET) == s
        assert (EMPTY_SET | s) == s

    def test_complement_of_bounded_set(self):
        s = IntervalSet([(1, 3), (5, 8)])
        assert (~s).intervals == ((MINUS_INF, 1), (3, 5), (8, PLUS_INF))

    def test_complement_of_universal_is_empty(self):
        assert (~UNIVERSAL_SET).is_empty()
        assert (~EMPTY_SET).is_universal()

    def test_difference(self):
        assert (IntervalSet([(1, 10)]) - IntervalSet([(3, 5)])).intervals == (
            (1, 3),
            (5, 10),
        )

    def test_overlaps_predicate(self):
        assert IntervalSet([(1, 5)]).overlaps(IntervalSet([(4, 9)]))
        assert not IntervalSet([(1, 4)]).overlaps(IntervalSet([(4, 9)]))
        assert not EMPTY_SET.overlaps(UNIVERSAL_SET)


class TestIntrospection:
    def test_cardinality(self):
        assert IntervalSet([(1, 3), (5, 8)]).cardinality == 2
        assert EMPTY_SET.cardinality == 0

    def test_earliest_latest(self):
        s = IntervalSet([(1, 3), (5, 8)])
        assert s.earliest() == 1
        assert s.latest_end() == 8

    def test_earliest_on_empty_raises(self):
        with pytest.raises(IntervalError):
            EMPTY_SET.earliest()
        with pytest.raises(IntervalError):
            EMPTY_SET.latest_end()

    def test_bool_len_iter(self):
        s = IntervalSet([(1, 3), (5, 8)])
        assert bool(s) and not bool(EMPTY_SET)
        assert len(s) == 2
        assert list(s) == [(1, 3), (5, 8)]

    def test_format(self):
        assert EMPTY_SET.format() == "{}"
        assert UNIVERSAL_SET.format() == "{(-inf, inf)}"

    def test_hash_and_equality(self):
        assert IntervalSet([(1, 3)]) == IntervalSet([(1, 2), (2, 3)])
        assert len({IntervalSet([(1, 3)]), IntervalSet([(1, 3)])}) == 1
        assert IntervalSet([(1, 3)]) != "not a set"
