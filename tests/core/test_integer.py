"""Unit and property tests for ongoing integers (Section X future work)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.duration import duration, point_value
from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.timeline import MINUS_INF, PLUS_INF, mmdd
from repro.core.timepoint import NOW, OngoingTimePoint, fixed, growing, limited
from repro.errors import TimeDomainError

from tests.conftest import critical_points, interval_sets, ongoing_intervals, ongoing_points


class TestConstruction:
    def test_constant(self):
        value = OngoingInt.constant(7)
        assert value.instantiate(-100) == 7
        assert value.instantiate(100) == 7
        assert value.is_constant()

    def test_step(self):
        value = OngoingInt.step(IntervalSet([(3, 8)]), inside=5, outside=1)
        assert value.instantiate(2) == 1
        assert value.instantiate(3) == 5
        assert value.instantiate(8) == 1

    def test_segments_must_cover_domain(self):
        with pytest.raises(TimeDomainError, match="cover"):
            OngoingInt([(0, PLUS_INF, 0, 0)])

    def test_segments_must_be_contiguous(self):
        with pytest.raises(TimeDomainError, match="contiguous"):
            OngoingInt(
                [(MINUS_INF, 0, 0, 0), (5, PLUS_INF, 0, 0)]
            )

    def test_adjacent_equal_segments_merge(self):
        value = OngoingInt(
            [(MINUS_INF, 0, 3, 0), (0, PLUS_INF, 3, 0)]
        )
        assert len(value.segments) == 1


class TestArithmetic:
    @given(interval_sets(), interval_sets())
    def test_addition_matches_pointwise(self, s1, s2):
        f = OngoingInt.step(s1, inside=2)
        g = OngoingInt.step(s2, inside=3)
        total = f + g
        for rt in critical_points(s1, s2):
            assert total.instantiate(rt) == f.instantiate(rt) + g.instantiate(rt)

    @given(ongoing_points(), ongoing_points())
    def test_point_value_difference(self, p1, p2):
        delta = point_value(p1) - point_value(p2)
        for rt in critical_points(p1, p2):
            assert delta.instantiate(rt) == p1.instantiate(rt) - p2.instantiate(rt)

    def test_negation_and_scaling(self):
        ramp = point_value(NOW)  # the identity function rt -> rt
        assert (-ramp).instantiate(7) == -7
        assert ramp.scaled(3).instantiate(7) == 21

    @given(ongoing_points(), ongoing_points())
    def test_min_max_match_pointwise(self, p1, p2):
        f, g = point_value(p1), point_value(p2)
        low, high = f.minimum(g), f.maximum(g)
        for rt in critical_points(p1, p2):
            assert low.instantiate(rt) == min(f.instantiate(rt), g.instantiate(rt))
            assert high.instantiate(rt) == max(f.instantiate(rt), g.instantiate(rt))

    def test_mask(self):
        ramp = point_value(NOW)
        masked = ramp.mask(IntervalSet([(3, 8)]), outside=-1)
        assert masked.instantiate(5) == 5
        assert masked.instantiate(2) == -1
        assert masked.instantiate(9) == -1

    def test_int_coercion(self):
        assert (OngoingInt.constant(3) + 4).instantiate(0) == 7
        with pytest.raises(TimeDomainError):
            OngoingInt.constant(3) + "four"


class TestComparisons:
    @given(ongoing_points(), ongoing_points())
    def test_comparisons_match_pointwise(self, p1, p2):
        f, g = point_value(p1), point_value(p2)
        lt, le = f.less_than(g), f.less_equal(g)
        eq, ne = f.equal(g), f.not_equal(g)
        gt, ge = f.greater_than(g), f.greater_equal(g)
        for rt in critical_points(p1, p2):
            x, y = f.instantiate(rt), g.instantiate(rt)
            assert lt.instantiate(rt) == (x < y), rt
            assert le.instantiate(rt) == (x <= y), rt
            assert eq.instantiate(rt) == (x == y), rt
            assert ne.instantiate(rt) == (x != y), rt
            assert gt.instantiate(rt) == (x > y), rt
            assert ge.instantiate(rt) == (x >= y), rt

    def test_threshold_query(self):
        """'When does the count exceed 2?' — an ongoing boolean."""
        count = sum(
            (
                OngoingInt.step(IntervalSet([span]))
                for span in ((0, 10), (2, 8), (4, 6))
            ),
            OngoingInt.constant(0),
        )
        exceeded = count.greater_than(2)
        assert exceeded.true_set == IntervalSet([(4, 6)])


class TestDuration:
    def test_expanding_interval_ramp(self):
        """duration([a, now)) = 0 before a, rt - a afterwards."""
        value = duration(until_now(mmdd(1, 25)))
        assert value.instantiate(mmdd(1, 20)) == 0
        assert value.instantiate(mmdd(1, 25)) == 0
        assert value.instantiate(mmdd(2, 25)) == 31

    def test_fixed_interval_constant(self):
        value = duration(fixed_interval(mmdd(1, 1), mmdd(1, 11)))
        assert value.is_constant()
        assert value.instantiate(0) == 10

    def test_shrinking_interval(self):
        value = duration(OngoingInterval(NOW, fixed(mmdd(1, 11))))
        assert value.instantiate(mmdd(1, 1)) == 10
        assert value.instantiate(mmdd(1, 8)) == 3
        assert value.instantiate(mmdd(2, 1)) == 0

    @given(ongoing_intervals())
    def test_duration_matches_pointwise(self, interval):
        value = duration(interval)
        for rt in critical_points(interval):
            start, end = interval.instantiate(rt)
            assert value.instantiate(rt) == max(0, end - start), rt

    @given(ongoing_points())
    def test_point_value_matches_definition_two(self, point):
        value = point_value(point)
        for rt in critical_points(point):
            assert value.instantiate(rt) == point.instantiate(rt), rt


class TestValueSemantics:
    def test_equality_with_int(self):
        assert OngoingInt.constant(5) == 5
        assert OngoingInt.constant(5) != 6

    def test_format(self):
        ramp = duration(until_now(5))
        text = ramp.format()
        assert "rt" in text
