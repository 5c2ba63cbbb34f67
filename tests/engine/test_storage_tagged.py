"""The tagged (self-describing) tuple codec behind the write-ahead log.

Unlike the schema-directed layout (``pack_tuple``), the tagged layout
must decode with no catalog at hand — recovery reads WAL records before
any schema exists.  Whatever a table can hold must round-trip
bit-identically, including the int32 edge values that the sentinel-coded
date layout cannot represent.
"""

import struct

import pytest
from hypothesis import given, settings

from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.core.timepoint import OngoingTimePoint
from repro.engine import storage
from repro.engine.storage import (
    RT_HEADER_BYTES,
    pack_rt,
    pack_tagged_tuple,
    pack_tagged_value,
    unpack_tagged_tuple,
    unpack_tagged_value,
)
from repro.errors import StorageError
from repro.relational.tuples import OngoingTuple

from tests.conftest import storable_rows


def _roundtrip_value(value):
    buffer = pack_tagged_value(value)
    decoded, offset = unpack_tagged_value(buffer, 0)
    assert offset == len(buffer)
    return decoded


class TestScalarRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**31 - 1,
            -(2**31),  # must NOT be sentinel-mapped to MINUS_INF
            2**31,
            -(2**31) - 1,
            2**63 - 1,
            -(2**63),
            "",
            "spam filter",
            "ünïcode — 日本語",
        ],
    )
    def test_value_roundtrips_identically(self, value):
        decoded = _roundtrip_value(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_int_beyond_64_bits_rejected(self):
        with pytest.raises(StorageError):
            pack_tagged_value(2**63)

    def test_bool_is_not_confused_with_int(self):
        assert _roundtrip_value(True) is True
        assert _roundtrip_value(1) == 1
        assert _roundtrip_value(1) is not True


class TestOngoingRoundTrip:
    def test_ongoing_time_point(self):
        point = OngoingTimePoint(5, 20)
        assert _roundtrip_value(point) == point

    def test_ongoing_interval(self):
        interval = until_now(7)
        assert _roundtrip_value(interval) == interval

    def test_fixed_interval(self):
        interval = fixed_interval(3, 9)
        assert _roundtrip_value(interval) == interval

    def test_interval_with_infinite_bounds(self):
        interval = OngoingInterval(
            OngoingTimePoint(MINUS_INF, MINUS_INF),
            OngoingTimePoint(PLUS_INF, PLUS_INF),
        )
        assert _roundtrip_value(interval) == interval


class TestTupleRoundTrip:
    def test_plain_tuple(self):
        item = OngoingTuple((1, "bug", until_now(5)))
        decoded, offset = unpack_tagged_tuple(pack_tagged_tuple(item))
        assert decoded == item
        assert decoded.rt == item.rt

    def test_tuple_with_bounded_rt(self):
        item = OngoingTuple(
            (42, None, fixed_interval(1, 4)),
            IntervalSet([(2, 10), (20, PLUS_INF)]),
        )
        decoded, _ = unpack_tagged_tuple(pack_tagged_tuple(item))
        assert decoded == item
        assert list(decoded.rt) == list(item.rt)

    def test_consecutive_tuples_in_one_buffer(self):
        first = OngoingTuple((1, until_now(2)))
        second = OngoingTuple(("two", False))
        buffer = pack_tagged_tuple(first) + pack_tagged_tuple(second)
        decoded_first, offset = unpack_tagged_tuple(buffer, 0)
        decoded_second, end = unpack_tagged_tuple(buffer, offset)
        assert (decoded_first, decoded_second) == (first, second)
        assert end == len(buffer)

    def test_empty_tuple(self):
        item = OngoingTuple(())
        decoded, _ = unpack_tagged_tuple(pack_tagged_tuple(item))
        assert decoded == item

    @pytest.mark.parametrize(
        "pairs, offset",
        [
            ([(20, 30), (1, 5)], 12),
            ([(1, 10), (5, 20)], 12),
            ([(1, 5), (5, 9)], 12),
            ([(3, 8), (9, 9)], 12),
            ([(9, 3)], 4),
        ],
        ids=["swapped", "overlapping", "adjacent", "empty", "inverted"],
    )
    def test_a_non_normalized_rt_is_refused_not_repaired(self, pairs, offset):
        # No values, then the counted RT: its pairs start at offset 4.
        buffer = struct.pack("<HH", 0, len(pairs)) + b"".join(
            struct.pack("<ii", start, end) for start, end in pairs
        )
        with pytest.raises(StorageError, match=f"at offset {offset} "):
            unpack_tagged_tuple(buffer)


# ----------------------------------------------------------------------
# The tuple codec handles the common kinds in line: it must write the
# bytes the value codec defines, and read them back the same way.
# ----------------------------------------------------------------------


def _by_definition(row: OngoingTuple) -> bytes:
    """A tuple's bytes as the layout defines them: the value count, every
    value through ``pack_tagged_value``, the counted RT."""
    values = b"".join(pack_tagged_value(value) for value in row.values)
    intervals = pack_rt(row.rt)[RT_HEADER_BYTES:]  # 8 B each, ±inf as sentinels
    return (
        struct.pack("<H", len(row.values))
        + values
        + struct.pack("<H", len(row.rt.intervals))
        + intervals
    )


class TestInlinePathMatchesTheDefinition:
    @given(storable_rows())
    @settings(max_examples=300)
    def test_same_bytes_and_round_trip(self, row):
        """``pack_tagged_tuple`` equals the composition it abbreviates, for
        every value kind — ``bool`` / ``None`` / 64-bit ints / ongoing
        integers and rationals / subclasses take the general path, text,
        32-bit ints (edges included), intervals and points the in-line
        one — and reads back equal with and without a memo."""
        buffer = pack_tagged_tuple(row)
        assert buffer == _by_definition(row)
        for memo in (None, {}):
            decoded, offset = unpack_tagged_tuple(b"\x00" + buffer, 1, memo)
            assert offset == 1 + len(buffer)
            assert decoded == row and decoded.rt == row.rt
            assert hash(decoded) == hash(row)
            for value, original in zip(decoded.values, row.values):
                # Subclasses are stored as, and read back as, the base kind.
                assert type(value) in type(original).__mro__
        if row.rt is UNIVERSAL_SET:
            assert decoded.rt is UNIVERSAL_SET

    @pytest.mark.parametrize(
        "row",
        [
            OngoingTuple((OngoingTimePoint(2**31, 2**40),)),
            OngoingTuple((1, "text", fixed_interval(0, 2**31))),
            OngoingTuple((until_now(-(2**31) - 1),)),
            OngoingTuple((1,), IntervalSet([(0, 2**35)])),
        ],
    )
    def test_an_end_point_beyond_four_bytes_is_refused(self, row):
        """The in-line path keeps ``_pack_date``'s range check: a time point
        that does not fit a 4-byte date is a ``StorageError``, not a
        ``struct.error`` (and never a silently wrapped date)."""
        with pytest.raises(StorageError, match="4-byte date"):
            pack_tagged_tuple(row)

    def test_the_common_row_never_reaches_the_value_codec(self, monkeypatch):
        """An ``(int, str, str, str, str, interval)`` row — MozillaBugs' B —
        is packed without one ``pack_tagged_value`` call (six at the
        parent); a kind the in-line path does not know still gets there."""
        calls = []
        general = storage.pack_tagged_value

        def counted(value):
            calls.append(value)
            return general(value)

        monkeypatch.setattr(storage, "pack_tagged_value", counted)
        pack_tagged_tuple(OngoingTuple((7, "core", "dom", "linux", "lorem", until_now(3))))
        assert calls == []
        pack_tagged_tuple(OngoingTuple((True, 2**40, None, "text")))
        assert calls == [True, 2**40, None]

    @given(storable_rows())
    @settings(max_examples=100)
    def test_a_buffer_ending_inside_a_row_is_a_struct_error(self, row):
        """Cut anywhere, a row either raises ``struct.error`` /
        ``UnicodeDecodeError`` or reports an end past the buffer — the two
        signals a chunked reader (``snapshot._read_heap``) reads more on;
        never an ``IndexError``, never a row that claims to fit."""
        buffer = pack_tagged_tuple(row)
        for cut in range(len(buffer)):
            try:
                _, end = unpack_tagged_tuple(buffer[:cut], 0, {})
            except (struct.error, UnicodeDecodeError):
                continue
            assert end > cut
