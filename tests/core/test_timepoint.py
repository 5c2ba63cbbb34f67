"""Unit tests for ongoing time points (Definitions 1-2, Fig. 3)."""

import sys
import threading
from unittest import mock

import pytest

from repro.core import timepoint
from repro.core.timeline import MINUS_INF, PLUS_INF, mmdd
from repro.core.timepoint import NOW, OngoingTimePoint, fixed, growing, limited
from repro.errors import TimeDomainError


class TestConstruction:
    def test_requires_a_not_greater_than_b(self):
        with pytest.raises(TimeDomainError, match="a <= b"):
            OngoingTimePoint(5, 3)

    def test_rejects_non_time_points(self):
        with pytest.raises(TimeDomainError):
            OngoingTimePoint("early", 3)

    def test_components(self):
        point = OngoingTimePoint(2, 7)
        assert point.components() == (2, 7)
        assert point.a == 2
        assert point.b == 7


class TestDefinitionTwo:
    """‖a+b‖rt = a if rt <= a; rt if a < rt < b; b otherwise."""

    def test_instantiates_to_a_before_a(self):
        point = OngoingTimePoint(mmdd(10, 17), mmdd(10, 19))
        assert point.instantiate(mmdd(10, 10)) == mmdd(10, 17)
        assert point.instantiate(mmdd(10, 17)) == mmdd(10, 17)

    def test_instantiates_to_rt_between(self):
        point = OngoingTimePoint(mmdd(10, 17), mmdd(10, 19))
        assert point.instantiate(mmdd(10, 18)) == mmdd(10, 18)

    def test_instantiates_to_b_after_b(self):
        point = OngoingTimePoint(mmdd(10, 17), mmdd(10, 19))
        assert point.instantiate(mmdd(10, 19)) == mmdd(10, 19)
        assert point.instantiate(mmdd(10, 25)) == mmdd(10, 19)

    def test_instantiation_is_monotone_in_rt(self):
        point = OngoingTimePoint(3, 11)
        values = [point.instantiate(rt) for rt in range(-5, 20)]
        assert values == sorted(values)

    def test_now_instantiates_to_the_reference_time(self):
        for rt in (mmdd(1, 1), mmdd(8, 15), -400):
            assert NOW.instantiate(rt) == rt


class TestKinds:
    """The taxonomy of Fig. 3."""

    def test_fixed(self):
        point = fixed(mmdd(10, 17))
        assert point.is_fixed and point.kind == "fixed"
        assert point.format() == "10/17"

    def test_now(self):
        assert NOW.is_now and NOW.kind == "now"
        assert NOW.components() == (MINUS_INF, PLUS_INF)
        assert NOW.format() == "now"

    def test_growing(self):
        point = growing(mmdd(10, 17))
        assert point.is_growing and point.kind == "growing"
        assert point.format() == "10/17+"
        # not earlier than 10/17, possibly later
        assert point.instantiate(mmdd(10, 10)) == mmdd(10, 17)
        assert point.instantiate(mmdd(10, 20)) == mmdd(10, 20)

    def test_limited(self):
        point = limited(mmdd(10, 17))
        assert point.is_limited and point.kind == "limited"
        assert point.format() == "+10/17"
        # possibly earlier, but not later than 10/17
        assert point.instantiate(mmdd(10, 10)) == mmdd(10, 10)
        assert point.instantiate(mmdd(10, 20)) == mmdd(10, 17)

    def test_general(self):
        point = OngoingTimePoint(mmdd(10, 17), mmdd(10, 19))
        assert point.kind == "general"
        assert point.format() == "10/17+10/19"

    def test_fixed_point_is_not_now(self):
        assert not fixed(3).is_now
        assert not fixed(3).is_growing
        assert not fixed(3).is_limited


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert OngoingTimePoint(1, 5) == OngoingTimePoint(1, 5)
        assert OngoingTimePoint(1, 5) != OngoingTimePoint(1, 6)
        assert len({OngoingTimePoint(1, 5), OngoingTimePoint(1, 5)}) == 1

    def test_equality_against_other_types(self):
        assert OngoingTimePoint(1, 1) != 1

    def test_repr_is_reconstructible(self):
        point = OngoingTimePoint(1, 5)
        assert eval(repr(point)) == point


class TestInterning:
    """The laws of the intern table are properties in
    tests/properties/test_core_properties.py; here: the constructor's
    arity and threads."""

    def test_a_point_needs_its_two_components(self):
        # No argument-less form: an old slots-form pickle is refused, as
        # it is for IntervalSet.
        with pytest.raises(TypeError):
            OngoingTimePoint()

    def test_contending_threads_get_their_values_and_now_stays(self):
        # A lost race costs at most one duplicate object, never a wrong
        # value or the now entry: the table is emptied every few misses
        # while eight threads build overlapping values.
        errors = []

        def build(seed):
            try:
                for step in range(4000):
                    a = (seed * 7 + step) % 50
                    point = OngoingTimePoint(a, a + step % 3)
                    if point.components() != (a, a + step % 3):
                        errors.append(point)
                    if OngoingTimePoint(MINUS_INF, PLUS_INF) != NOW:
                        errors.append("now")
            except Exception as error:  # reported below, with its thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(timepoint, "INTERN_LIMIT", 8):
                threads = [
                    threading.Thread(target=build, args=(seed,)) for seed in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert OngoingTimePoint(MINUS_INF, PLUS_INF) is NOW
        assert OngoingTimePoint(5, 6) is OngoingTimePoint(5, 6)
