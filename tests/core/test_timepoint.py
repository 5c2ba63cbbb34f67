"""Unit tests for ongoing time points (Definitions 1-2, Fig. 3)."""

import pickle
import re
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

from repro.core import timepoint
from repro.core.interval import until_now
from repro.core.timeline import MINUS_INF, PLUS_INF, mmdd
from repro.core.timepoint import NOW, OngoingTimePoint, fixed, growing, limited
from repro.errors import TimeDomainError

from tests.conftest import empty_intern_table

# Pickled before points were interned (copyreg's __newobj__ form: an
# argument-less __new__, then the slots as state), as a checkpoint's
# ``plan_pickle`` stores the literals of a statement-less subscription:
# growing(20190117), and until_now(737000).
_OLD_POINT_PICKLE = (
    b"\x80\x04\x95Q\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.core.timepoint\x94"
    b"\x8c\x10OngoingTimePoint\x94\x93\x94)\x81\x94N}\x94(\x8c\x02_a\x94J\xa5\x134"
    b"\x01\x8c\x02_b\x94\x8a\x08\x00\x00\x00\x00\x00\x00\x00\x10u\x86\x94b."
)
_OLD_INTERVAL_PICKLE = (
    b"\x80\x04\x95\xb6\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.core.interval\x94"
    b"\x8c\x0fOngoingInterval\x94\x93\x94)\x81\x94N}\x94(\x8c\x06_start\x94\x8c\x14"
    b"repro.core.timepoint\x94\x8c\x10OngoingTimePoint\x94\x93\x94)\x81\x94N}\x94("
    b"\x8c\x02_a\x94J\xe8>\x0b\x00\x8c\x02_b\x94J\xe8>\x0b\x00u\x86\x94b\x8c\x04_end"
    b"\x94h\x08)\x81\x94N}\x94(h\x0b\x8a\x08\x00\x00\x00\x00\x00\x00\x00\xf0h\x0c"
    b"\x8a\x08\x00\x00\x00\x00\x00\x00\x00\x10u\x86\x94bu\x86\x94b."
)


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
    tests/properties/test_core_properties.py; here: old pickles and
    threads."""

    def test_a_point_pickled_before_interning_loads_as_the_interned_point(self):
        empty_intern_table()  # neither value below has an object now
        loaded = pickle.loads(_OLD_POINT_PICKLE)
        original = growing(20190117)
        assert loaded == original and hash(loaded) == hash(original)
        assert loaded is original
        interval = pickle.loads(_OLD_INTERVAL_PICKLE)
        assert interval == until_now(737000)
        assert interval.start is fixed(737000)
        # now had its object already: the old form gives an equal second one.
        assert interval.end == NOW and interval.end.is_now

    def test_a_point_pickled_before_interning_is_still_checked(self):
        blank = OngoingTimePoint.__new__(OngoingTimePoint)  # what such a load does
        with pytest.raises(TimeDomainError, match="a <= b"):
            blank.__setstate__((None, {"_a": 5, "_b": 3}))
        with pytest.raises(TimeDomainError):
            blank.__setstate__((None, {"_a": True, "_b": 3}))

    def test_the_argument_less_form_is_only_for_old_pickles(self):
        # It returns a blank object, which the table never holds.
        table = dict(timepoint._INTERNED)
        blank = OngoingTimePoint()
        assert not hasattr(blank, "_a") and not hasattr(blank, "_b")
        assert all(point is not blank for point in timepoint._INTERNED.values())
        assert timepoint._INTERNED == table
        # And no code of the package calls it.
        package = Path(timepoint.__file__).parents[1]
        callers = [
            f"{path.relative_to(package)}:{number}"
            for path in package.rglob("*.py")
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"OngoingTimePoint(\.__new__)?\(\s*(OngoingTimePoint\s*)?\)", line)
        ]
        assert callers == []

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
