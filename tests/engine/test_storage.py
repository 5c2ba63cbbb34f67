"""Unit tests for the byte-accurate storage layout (Section VIII, Table V)."""

import struct

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.intervalset import IntervalSet, UNIVERSAL_SET
from repro.core.timeline import MINUS_INF, PLUS_INF, mmdd
from repro.core.timepoint import NOW, fixed
from repro.engine import storage
from repro.errors import StorageError
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


class TestValuePacking:
    def test_int_is_four_bytes(self):
        assert len(storage.pack_value(42)) == 4

    def test_large_int_is_eight_bytes(self):
        assert len(storage.pack_value(2**40)) == 8

    def test_bool_is_one_byte(self):
        assert len(storage.pack_value(True)) == 1

    def test_text_is_header_plus_utf8(self):
        assert len(storage.pack_value("spam")) == 4 + 4
        assert len(storage.pack_value("")) == 4

    def test_ongoing_point_is_two_dates(self):
        assert len(storage.pack_value(NOW)) == 8
        assert len(storage.pack_value(fixed(3))) == 8

    def test_ongoing_point_fixed_layout_halves(self):
        assert len(storage.pack_value(NOW, layout="fixed")) == 4

    def test_ongoing_interval_sizes(self):
        interval = until_now(mmdd(1, 25))
        ongoing = len(storage.pack_value(interval))
        fixed_size = len(storage.pack_value(interval, layout="fixed"))
        # "+8 bytes" over the fixed daterange (Section IX-D).
        assert ongoing - fixed_size == 8

    def test_sentinels_map_to_int32_extremes(self):
        packed = storage.pack_value(NOW)
        assert packed[:4] == (-(2**31)).to_bytes(4, "little", signed=True)

    def test_unserializable_value_raises(self):
        with pytest.raises(StorageError):
            storage.pack_value(object())


class TestReferenceTimePacking:
    def test_single_interval_rt_is_29_bytes(self):
        """The headline Table V constant."""
        assert len(storage.pack_rt(UNIVERSAL_SET)) == 29

    def test_rt_grows_8_bytes_per_interval(self):
        two = IntervalSet([(0, 5), (9, 12)])
        assert len(storage.pack_rt(two)) == 29 + 8

    def test_empty_rt_is_header_only(self):
        assert len(storage.pack_rt(IntervalSet.empty())) == 21

    def test_decoding_returns_the_shared_set(self):
        for rt in (IntervalSet([(0, 5), (9, PLUS_INF)]), UNIVERSAL_SET, IntervalSet.empty()):
            assert storage.unpack_rt(storage.pack_rt(rt))[0] is rt

    @pytest.mark.parametrize(
        "pairs, offset",
        [
            ([(20, 30), (1, 5)], 29),
            ([(1, 10), (5, 20)], 29),
            ([(1, 5), (5, 9)], 29),
            ([(7, 7)], 21),
            ([(9, 3)], 21),
        ],
        ids=["swapped", "overlapping", "adjacent", "empty", "inverted"],
    )
    def test_a_non_normalized_rt_is_refused_not_repaired(self, pairs, offset):
        buffer = bytes(storage.RT_HEADER_BYTES) + b"".join(
            struct.pack("<ii", start, end) for start, end in pairs
        )
        with pytest.raises(StorageError, match=f"at offset {offset} "):
            storage.unpack_rt(buffer)


class TestTuplePacking:
    _SCHEMA = Schema.of("BID", "C", ("VT", "interval"))

    def test_layout_difference_is_rt_plus_interval_growth(self):
        item = OngoingTuple((500, "Spam", until_now(mmdd(1, 25))))
        ongoing = storage.sizeof_tuple(item, layout="ongoing")
        fixed_size = storage.sizeof_tuple(item, layout="fixed")
        assert ongoing - fixed_size == 29 + 8

    def test_unknown_layout_rejected(self):
        item = OngoingTuple((1,))
        with pytest.raises(StorageError, match="layout"):
            storage.pack_tuple(item, layout="columnar")

    def test_header_toggle(self):
        item = OngoingTuple((1,))
        with_header = len(storage.pack_tuple(item))
        without = len(storage.pack_tuple(item, include_header=False))
        assert with_header - without == storage.TUPLE_HEADER_BYTES


class TestRelationReport:
    def test_empty_relation(self):
        report = storage.relation_storage(
            OngoingRelation(Schema.of("A"), [])
        )
        assert report.tuple_count == 0
        assert report.ongoing_vs_fixed == 1.0

    def test_report_fields(self):
        schema = Schema.of("BID", ("VT", "interval"))
        relation = OngoingRelation.from_rows(
            schema,
            [(1, until_now(0)), (2, fixed_interval(0, 5))],
        )
        report = storage.relation_storage(relation)
        assert report.tuple_count == 2
        assert report.avg_rt_bytes == 29.0
        assert report.avg_rt_cardinality == 1.0
        assert report.max_rt_cardinality == 1
        assert report.ongoing_vs_fixed > 1.0
        assert 0 < report.rt_share < 1
        assert "29B" in report.format()
