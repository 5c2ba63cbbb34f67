"""Unit tests for the interval predicates of Table II (and their inverses).

Every worked example of Table II appears here as a golden test; the
optimized implementations are additionally cross-checked against the
definitional compositions (COMPOSED_REFERENCE) on a mixed pool of shapes.
"""

import pytest

from repro.core import allen
from repro.core.boolean import O_FALSE, O_TRUE, OngoingBoolean
from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.timeline import MINUS_INF, PLUS_INF, mmdd
from repro.core.timepoint import NOW, OngoingTimePoint, fixed, growing, limited


def d(month, day):
    return mmdd(month, day)


class TestTableTwoExamples:
    """The example rows of Table II, verbatim."""

    def test_before(self):
        result = allen.before(
            until_now(d(10, 17)), fixed_interval(d(10, 20), d(10, 25))
        )
        assert result.true_set == IntervalSet([(d(10, 18), d(10, 21))])

    def test_meets(self):
        result = allen.meets(
            until_now(d(10, 17)), fixed_interval(d(10, 20), d(10, 25))
        )
        assert result.true_set == IntervalSet([(d(10, 20), d(10, 21))])

    def test_overlaps(self):
        result = allen.overlaps(
            until_now(d(10, 17)), fixed_interval(d(10, 14), d(10, 20))
        )
        assert result.true_set == IntervalSet.at_least(d(10, 18))

    def test_starts(self):
        result = allen.starts(
            until_now(d(10, 17)), fixed_interval(d(10, 17), d(10, 20))
        )
        assert result.true_set == IntervalSet.at_least(d(10, 18))

    def test_finishes(self):
        result = allen.finishes(
            until_now(d(10, 17)), fixed_interval(d(10, 20), d(10, 25))
        )
        assert result.true_set == IntervalSet.point(d(10, 25))

    def test_during(self):
        result = allen.during(
            fixed_interval(d(10, 20), d(10, 25)), until_now(d(10, 17))
        )
        assert result.true_set == IntervalSet.at_least(d(10, 25))

    def test_equals(self):
        result = allen.interval_equals(
            until_now(d(10, 17)), fixed_interval(d(10, 17), d(10, 20))
        )
        assert result.true_set == IntervalSet.point(d(10, 20))

    def test_intersection(self):
        result = allen.intersect(
            until_now(d(10, 17)), fixed_interval(d(10, 14), d(10, 20))
        )
        assert result == OngoingInterval(fixed(d(10, 17)), limited(d(10, 20)))


class TestNonEmptinessSemantics:
    """Example 2: emptiness must be checked per reference time."""

    def test_overlaps_false_while_one_side_empty(self):
        result = allen.overlaps(
            until_now(d(10, 17)), fixed_interval(d(10, 14), d(10, 20))
        )
        assert result.instantiate(d(10, 16)) is False  # [10/17, now) empty
        assert result.instantiate(d(10, 18)) is True

    def test_always_empty_interval_never_before_anything(self):
        empty = fixed_interval(d(10, 20), d(10, 10))
        target = fixed_interval(d(11, 1), d(11, 5))
        assert allen.before(empty, target).is_always_false()

    def test_empty_interval_is_during_non_empty(self):
        empty = fixed_interval(d(10, 20), d(10, 10))
        target = fixed_interval(d(11, 1), d(11, 5))
        assert allen.during(empty, target).is_always_true()

    def test_two_empty_intervals_are_equal(self):
        left = fixed_interval(d(10, 20), d(10, 10))
        right = fixed_interval(d(3, 3), d(3, 3))
        assert allen.interval_equals(left, right).is_always_true()

    def test_value_equality_differs_from_equals_on_empty(self):
        left = fixed_interval(d(10, 20), d(10, 10))
        right = fixed_interval(d(3, 3), d(3, 3))
        assert allen.interval_value_equals(left, right).is_always_false()


class TestInverseRelations:
    def test_after_is_swapped_before(self):
        i = until_now(d(10, 17))
        j = fixed_interval(d(10, 20), d(10, 25))
        assert allen.after(j, i) == allen.before(i, j)

    def test_met_by(self):
        i = until_now(d(10, 17))
        j = fixed_interval(d(10, 20), d(10, 25))
        assert allen.met_by(j, i) == allen.meets(i, j)

    def test_overlapped_by_is_symmetric_overlap(self):
        i = until_now(d(10, 17))
        j = fixed_interval(d(10, 14), d(10, 20))
        assert allen.overlapped_by(i, j) == allen.overlaps(i, j)

    def test_started_by_and_finished_by(self):
        i = until_now(d(10, 17))
        j = fixed_interval(d(10, 17), d(10, 20))
        assert allen.started_by(j, i) == allen.starts(i, j)
        assert allen.finished_by(j, i) == allen.finishes(i, j)

    def test_contains_is_swapped_during(self):
        i = fixed_interval(d(10, 20), d(10, 25))
        j = until_now(d(10, 17))
        assert allen.contains(j, i) == allen.during(i, j)


class TestContainsPoint:
    def test_point_in_expanding_interval(self):
        result = allen.contains_point(until_now(d(10, 17)), fixed(d(10, 20)))
        # 10/20 is inside [10/17, rt) exactly when rt > 10/20.
        assert result.true_set == IntervalSet.at_least(d(10, 21))

    def test_now_in_fixed_interval(self):
        result = allen.contains_point(fixed_interval(d(10, 17), d(10, 20)), NOW)
        assert result.true_set == IntervalSet([(d(10, 17), d(10, 20))])


class TestOptimizedMatchesComposed:
    """The gap-based fast paths must equal the Table II compositions."""

    POOL = [
        fixed_interval(0, 5),
        fixed_interval(5, 5),       # always empty
        fixed_interval(8, 3),       # always empty, inverted
        until_now(3),
        OngoingInterval(NOW, fixed(6)),
        OngoingInterval(growing(2), fixed(7)),
        OngoingInterval(fixed(1), limited(9)),
        OngoingInterval(OngoingTimePoint(0, 4), OngoingTimePoint(3, 8)),
        OngoingInterval(NOW, NOW),  # always empty
    ]

    @pytest.mark.parametrize(
        "name", ["before", "meets", "overlaps", "starts", "finishes"]
    )
    def test_pool_cross_validation(self, name):
        fast = getattr(allen, name)
        composed = allen.COMPOSED_REFERENCE[name]
        for i in self.POOL:
            for j in self.POOL:
                assert fast(i, j) == composed(i, j), (name, i, j)


class TestFixedOverlaps:
    """Four fixed endpoints decide ``overlaps`` by four fixed comparisons.
    Each row names the mutant of that shortcut it kills; every row also
    matches the composed definition."""

    ROWS = [
        # [0, 5) and [5, 9) touch: kills ``t̃s < te`` -> ``t̃s <= te``.
        (fixed_interval(0, 5), fixed_interval(5, 9), O_FALSE),
        # The same pair swapped: kills ``ts < t̃e`` -> ``ts <= t̃e``.
        (fixed_interval(5, 9), fixed_interval(0, 5), O_FALSE),
        # An empty [5, 5) inside [0, 9): kills dropping ``ts < te``.
        (fixed_interval(5, 5), fixed_interval(0, 9), O_FALSE),
        # Swapped: kills dropping ``t̃s < t̃e``.
        (fixed_interval(0, 9), fixed_interval(5, 5), O_FALSE),
        # Endpoints at the domain limits overlap like any other: kills a
        # shortcut that takes a sentinel for an ongoing endpoint.
        (fixed_interval(MINUS_INF, 5), fixed_interval(3, PLUS_INF), O_TRUE),
        (fixed_interval(MINUS_INF, 3), fixed_interval(3, PLUS_INF), O_FALSE),
        (fixed_interval(MINUS_INF, PLUS_INF), fixed_interval(7, 8), O_TRUE),
    ]

    @pytest.mark.parametrize("i, j, expected", ROWS)
    def test_row(self, i, j, expected):
        assert allen.overlaps(i, j) is expected
        assert allen.COMPOSED_REFERENCE["overlaps"](i, j) == expected


def _from(rt):
    """True from *rt* on, for ever."""
    return OngoingBoolean(IntervalSet([(rt, PLUS_INF)]))


class TestUntilNowOverlaps:
    """A fixed period against ``[a, now)`` is decided without the gap
    machinery (``_combine`` is never reached): ``[max(a, s) + 1, +inf)``
    when ``a < e`` and ``s < e``, else never.  Each row names the mutant
    of that shortcut it kills; every row also matches the composed
    definition."""

    ROWS = [
        # a == e: [9, now) starts as [5, 9) ends: kills ``a < e`` ->
        # ``a <= e``.
        (until_now(9), fixed_interval(5, 9), O_FALSE),
        # a == s: true once now > 5, not at 5 itself (where [5, now) is
        # empty): kills ``max(a, s) + 1`` -> ``max(a, s)``.
        (until_now(5), fixed_interval(5, 9), _from(6)),
        # a < s: true once the period has started: kills ``max`` ->
        # ``min`` (and reading the start from ``a`` alone).
        (until_now(2), fixed_interval(5, 9), _from(6)),
        # a > s: true once [a, now) is non-empty: kills reading the
        # start from ``s`` alone.
        (until_now(7), fixed_interval(5, 9), _from(8)),
        # An empty period [5, 5), and an inverted one: kills dropping
        # ``s < e``.
        (until_now(2), fixed_interval(5, 5), O_FALSE),
        (until_now(2), fixed_interval(8, 3), O_FALSE),
        # The period as the left operand: kills a swap that is skipped or
        # partial (the pair would reach ``_combine``) or that reads ``e``
        # from the ``[a, now)`` side.
        (fixed_interval(5, 9), until_now(7), _from(8)),
        (fixed_interval(5, 9), until_now(9), O_FALSE),
    ]

    @pytest.mark.parametrize("i, j, expected", ROWS)
    def test_row(self, i, j, expected, monkeypatch):
        assert allen.COMPOSED_REFERENCE["overlaps"](i, j) == expected
        monkeypatch.setattr(allen, "_combine", None)
        assert allen.overlaps(i, j) == expected
