"""Unit tests for the segmented write-ahead log."""

import os
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import until_now
from repro.datasets import generate_mozilla
from repro.durable import faults
from repro.durable.wal import (
    KIND_BATCH,
    KIND_CREATE,
    KIND_DROP,
    KIND_SNAPSHOT,
    SEGMENT_MAGIC,
    WalPosition,
    WalRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
)
from repro.engine.database import Database
from repro.errors import DurabilityError
from repro.relational.tuples import OngoingTuple

from tests.conftest import storable_rows


@pytest.fixture(autouse=True)
def _clean_crashpoints():
    faults.reset()
    yield
    faults.reset()


def _row(key: int) -> OngoingTuple:
    return OngoingTuple((key, until_now(key + 10)))


def _batch(tick: int, inserted=(), deleted=()) -> WalRecord:
    return WalRecord(
        KIND_BATCH, "R", tick, float(tick), inserted=inserted, deleted=deleted
    )


class TestRecordCodec:
    def test_batch_roundtrip(self):
        record = _batch(7, inserted=(_row(1), _row(2)), deleted=(_row(3),))
        decoded = decode_record(encode_record(record))
        assert decoded == record

    def test_snapshot_roundtrip(self):
        record = WalRecord(
            KIND_SNAPSHOT, "R", 9, 1.5, rows=(_row(1), _row(2), _row(3))
        )
        assert decode_record(encode_record(record)) == record

    def test_create_roundtrip(self):
        record = WalRecord(
            KIND_CREATE,
            "bugs",
            0,
            0.0,
            schema_spec=(("BID", "fixed"), ("VT", "interval")),
        )
        assert decode_record(encode_record(record)) == record

    def test_drop_roundtrip(self):
        record = WalRecord(KIND_DROP, "R", 4, 2.0)
        assert decode_record(encode_record(record)) == record

    def test_unknown_kind_rejected(self):
        with pytest.raises(DurabilityError, match="kind"):
            encode_record(WalRecord(99, "R", 1, 0.0))


class TestAppendScan:
    def test_appended_records_scan_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        records = [_batch(tick, inserted=(_row(tick),)) for tick in range(1, 6)]
        for record in records:
            wal.append(record)
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync="off")
        assert [r for _, r in reopened.records()] == records
        reopened.close()

    def test_scan_from_position(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(_batch(1))
        start = wal.position()
        wal.append(_batch(2))
        wal.append(_batch(3))
        suffix = [r.tick for _, r in wal.records(start)]
        assert suffix == [2, 3]
        wal.close()

    def test_rotation_at_segment_boundary(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=256)
        for tick in range(1, 30):
            wal.append(_batch(tick, inserted=(_row(tick),)))
        assert len(wal.segments()) > 1
        assert [r.tick for _, r in wal.records()] == list(range(1, 30))
        wal.close()

    def test_prune_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=256)
        for tick in range(1, 30):
            wal.append(_batch(tick, inserted=(_row(tick),)))
        current = wal.position().segment
        removed = wal.prune_segments(current)
        assert removed > 0
        assert wal.segments()[0] == current
        wal.close()

    def test_alien_file_rejected(self, tmp_path):
        (tmp_path / "wal-junk.log").write_bytes(b"nope")
        with pytest.raises(DurabilityError, match="alien"):
            WriteAheadLog(tmp_path)

    def test_closed_append_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.close()
        with pytest.raises(DurabilityError, match="closed"):
            wal.append(_batch(1))


class TestFsyncPolicies:
    def test_policy_validated(self, tmp_path):
        with pytest.raises(DurabilityError, match="fsync policy"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_always_fsyncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        for tick in range(1, 4):
            wal.append(_batch(tick))
        assert wal.fsyncs >= 3
        assert wal.lag_records() == 0
        wal.close()

    def test_batch_fsyncs_every_sync_every(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch", sync_every=4)
        for tick in range(1, 4):
            wal.append(_batch(tick))
        assert wal.fsyncs == 0
        assert wal.lag_records() == 3
        wal.append(_batch(4))
        assert wal.fsyncs == 1
        assert wal.lag_records() == 0
        wal.close()

    def test_off_never_fsyncs_automatically(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", sync_every=1)
        for tick in range(1, 10):
            wal.append(_batch(tick))
        assert wal.fsyncs == 0
        wal.sync()  # explicit sync works regardless of policy
        assert wal.fsyncs == 1
        wal.close()

    def test_every_new_segment_is_named_on_disk_before_it_is_used(self, tmp_path):
        """A segment created (at open or by rotation) is followed by an
        fsync of the WAL directory that already lists it: without it a
        power loss can drop the file whose frames were synced."""
        listed = []  # the segments each fsync of the directory saw
        real_fsync = os.fsync
        directory = tmp_path / "wal"

        def fsync(fd):
            if os.path.samestat(os.fstat(fd), os.stat(directory)):
                listed.append(sorted(path.name for path in directory.glob("wal-*.log")))
            real_fsync(fd)

        with mock.patch("os.fsync", fsync):
            wal = WriteAheadLog(directory, fsync="batch", segment_bytes=256)
            assert listed == [["wal-00000001.log"]]
            for tick in range(1, 30):
                wal.append(_batch(tick, inserted=(_row(tick),)))
            wal.close()
        names = [f"wal-{seq:08d}.log" for seq in wal.segments()]
        assert len(names) > 1
        assert listed == [names[: count + 1] for count in range(len(names))]

    def test_stats_shape(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch")
        wal.append(_batch(1))
        stats = wal.stats()
        assert stats["appends"] == 1
        assert stats["fsync"] == "batch"
        assert stats["segments"] == 1
        assert stats["bytes_written"] > 0
        wal.close()


class TestTornTails:
    def _segment(self, tmp_path):
        return tmp_path / "wal-00000001.log"

    def test_mid_frame_tear_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(_batch(1, inserted=(_row(1),)))
        wal.append(_batch(2, inserted=(_row(2),)))
        wal.close()
        path = self._segment(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # tear the final frame
        reopened = WriteAheadLog(tmp_path, fsync="off")
        assert [r.tick for _, r in reopened.records()] == [1]
        assert reopened.truncated_bytes > 0
        # The torn bytes are gone from disk, not just skipped.
        assert os.path.getsize(path) < len(data)
        reopened.close()

    def test_partial_frame_header_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(_batch(1))
        end = wal.position().offset
        wal.close()
        path = self._segment(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x07\x00")  # 2 bytes of a frame header
        reopened = WriteAheadLog(tmp_path, fsync="off")
        assert [r.tick for _, r in reopened.records()] == [1]
        assert os.path.getsize(path) == end
        reopened.close()

    def test_corrupt_crc_truncates_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(_batch(1))
        tail = wal.position().offset
        wal.append(_batch(2))
        wal.close()
        path = self._segment(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last frame
        path.write_bytes(bytes(data))
        reopened = WriteAheadLog(tmp_path, fsync="off")
        assert [r.tick for _, r in reopened.records()] == [1]
        assert os.path.getsize(path) == tail
        reopened.close()

    def test_segment_shorter_than_magic_reset(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.close()
        path = self._segment(tmp_path)
        path.write_bytes(SEGMENT_MAGIC[:3])  # crash before magic completed
        reopened = WriteAheadLog(tmp_path, fsync="off")
        assert list(reopened.records()) == []
        reopened.append(_batch(1))
        assert [r.tick for _, r in reopened.records()] == [1]
        reopened.close()

    def test_bad_magic_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.close()
        path = self._segment(tmp_path)
        path.write_bytes(b"XXXXXXXX" + b"junk")
        with pytest.raises(DurabilityError, match="magic"):
            WriteAheadLog(tmp_path, fsync="off")

    def test_corruption_in_non_final_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off", segment_bytes=256)
        for tick in range(1, 30):
            wal.append(_batch(tick, inserted=(_row(tick),)))
        first = wal.segments()[0]
        wal.close()
        path = tmp_path / f"wal-{first:08d}.log"
        data = bytearray(path.read_bytes())
        data[len(SEGMENT_MAGIC) + 10] ^= 0xFF
        path.write_bytes(bytes(data))
        reopened = WriteAheadLog(tmp_path, fsync="off")
        with pytest.raises(DurabilityError, match="non-final"):
            list(reopened.records())
        reopened.close()


class TestCrashpoints:
    def test_pre_append_crash_leaves_no_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(_batch(1))
        with faults.armed("wal.pre_append"):
            with pytest.raises(faults.InjectedCrash):
                wal.append(_batch(2))
        assert [r.tick for _, r in wal.records()] == [1]
        wal.close()

    def test_post_append_crash_keeps_the_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        with faults.armed("wal.post_append"):
            with pytest.raises(faults.InjectedCrash):
                wal.append(_batch(1))
        assert [r.tick for _, r in wal.records()] == [1]
        wal.close()

    def test_pre_fsync_crash_with_always_keeps_the_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        with faults.armed("wal.pre_fsync"):
            with pytest.raises(faults.InjectedCrash):
                wal.append(_batch(1))
        # The write itself landed (single write() before the fsync); a
        # reopen sees the intact frame.
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync="always")
        assert [r.tick for _, r in reopened.records()] == [1]
        reopened.close()


# ----------------------------------------------------------------------
# The v2 frame: a record's body is stored deflated behind its raw stamp
# ----------------------------------------------------------------------

_FLAG = 0x80000000
_STAMP_BYTES = 17  # <B kind> <Q tick> <d at>
_V1_MAGIC = b"RWAL\x01\x00\x00\n"


def _frames(path):
    """``(offset, deflated, stored bytes)`` of every frame in a segment."""
    data = path.read_bytes()
    offset = len(SEGMENT_MAGIC)
    found = []
    while offset < len(data):
        length, _crc = struct.unpack_from("<II", data, offset)
        stored = data[offset + 8 : offset + 8 + (length & ~_FLAG)]
        found.append((offset, bool(length & _FLAG), stored))
        offset += 8 + len(stored)
    return found


def _hand_frame(stored: bytes, *, deflated: bool) -> bytes:
    """A frame around *stored* whose CRC holds, whatever *stored* is."""
    length = len(stored) | (_FLAG if deflated else 0)
    return struct.pack("<II", length, zlib.crc32(stored)) + stored


def _raw_deflate(data: bytes) -> bytes:
    deflater = zlib.compressobj(1, zlib.DEFLATED, -15)
    return deflater.compress(data) + deflater.flush()


def _wide_row(key: int) -> OngoingTuple:
    """A row whose before- and after-image make a batch well worth deflating."""
    return OngoingTuple((key, "lorem ipsum dolor sit amet " * 30, until_now(key)))


def _wide_batch(tick: int) -> WalRecord:
    return _batch(tick, inserted=(_wide_row(tick),), deleted=(_wide_row(tick + 1),))


_LOGGED_ROWS = st.lists(
    storable_rows(
        st.one_of(
            st.text(max_size=24),
            # Free text on both sides of the 64 KiB ceiling, cheap to draw.
            st.sampled_from([700, 40_000, 70_000]).map(lambda n: "lorem ipsum " * (n // 12)),
        )
    ),
    max_size=4,
).map(tuple)  # fmt: skip
_NAMES = st.text(min_size=1, max_size=12)
_STAMPS = st.tuples(
    st.integers(min_value=0, max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
)
_RECORDS = st.one_of(
    st.builds(
        lambda name, stamp, inserted, deleted: WalRecord(
            KIND_BATCH, name, *stamp, inserted=inserted, deleted=deleted
        ),
        _NAMES, _STAMPS, _LOGGED_ROWS, _LOGGED_ROWS,
    ),
    st.builds(
        lambda name, stamp, rows: WalRecord(KIND_SNAPSHOT, name, *stamp, rows=rows),
        _NAMES, _STAMPS, _LOGGED_ROWS,
    ),
    st.builds(
        lambda name, spec: WalRecord(KIND_CREATE, name, 0, 0.0, schema_spec=spec),
        _NAMES,
        st.lists(st.tuples(_NAMES, st.sampled_from(["fixed", "interval"])), max_size=8).map(tuple),
    ),
    st.builds(lambda name, stamp: WalRecord(KIND_DROP, name, *stamp), _NAMES, _STAMPS),
)  # fmt: skip


class TestDeflatedFrames:
    @given(st.lists(_RECORDS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_any_record_survives_the_frame(self, records):
        """``append`` → reopen → ``records()`` is the identity for all four
        kinds, every value kind and payloads on both sides of 48 B and
        64 KiB, and every returned position is a usable ``start``.  Fails
        when ``records()`` takes a flagged length at face value, or hands
        ``decode_record`` the deflated bytes."""
        with tempfile.TemporaryDirectory() as root:
            log = WriteAheadLog(root, fsync="off", segment_bytes=1 << 17)
            positions = [log.append(record) for record in records]
            log.close()
            reopened = WriteAheadLog(root, fsync="off", segment_bytes=1 << 17)
            assert reopened.truncated_bytes == 0
            assert list(reopened.records()) == list(zip(positions, records))
            for index, position in enumerate(positions):
                assert [r for _, r in reopened.records(position)] == records[index:]
            # The one rule: deflated iff inside the window *and* smaller.
            stored = [
                frame
                for seq in reopened.segments()
                for frame in _frames(Path(root) / f"wal-{seq:08d}.log")
            ]
            reopened.close()
            assert len(stored) == len(records)
            for record, (_, deflated, body) in zip(records, stored):
                payload = encode_record(record)
                assert body[:_STAMP_BYTES] == payload[:_STAMP_BYTES]
                if deflated:
                    assert 48 <= len(payload) < 1 << 16
                    assert len(body) < len(payload)
                else:
                    assert body == payload

    def test_a_torn_deflated_tail_costs_only_itself(self, tmp_path):
        """Tearing a *deflated* final frame at every byte offset truncates
        to the frame before it and loses nothing earlier.  Mutant: the flag
        bit not masked in ``_recover_tail``'s frame walk — every deflated
        frame then "runs past the file" and the whole log is cut away."""
        log = WriteAheadLog(tmp_path, fsync="off")
        for tick in (1, 2, 3):
            log.append(_wide_batch(tick))
        log.close()
        path = tmp_path / "wal-00000001.log"
        whole = path.read_bytes()
        frames = _frames(path)
        assert [deflated for _, deflated, _ in frames] == [True, True, True]
        last = frames[-1][0]
        for cut in range(last + 1, len(whole)):
            path.write_bytes(whole[:cut])
            reopened = WriteAheadLog(tmp_path, fsync="off")
            assert [r for _, r in reopened.records()] == [_wide_batch(1), _wide_batch(2)]
            assert reopened.truncated_bytes == cut - last
            reopened.close()
            assert path.stat().st_size == last

    @pytest.mark.parametrize("where", ["stamp", "body"])
    def test_a_flipped_byte_in_a_deflated_interior_frame_raises(self, tmp_path, where):
        """Corruption inside a deflated frame of a non-final segment is an
        error, in the raw stamp as much as in the deflated body.  Mutant:
        the CRC taken over the deflated body only — a flipped tick then
        replays as a different commit."""
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=512)
        for tick in range(1, 6):
            log.append(_wide_batch(tick))
        assert len(log.segments()) > 1
        log.close()
        path = tmp_path / "wal-00000001.log"
        offset, deflated, stored = _frames(path)[0]
        assert deflated
        data = bytearray(path.read_bytes())
        data[offset + 8 + (3 if where == "stamp" else len(stored) - 2)] ^= 0x10
        path.write_bytes(bytes(data))
        reopened = WriteAheadLog(tmp_path, fsync="off", segment_bytes=512)
        with pytest.raises(DurabilityError, match="non-final"):
            list(reopened.records())
        reopened.close()

    def test_a_sound_crc_over_bytes_that_do_not_inflate_is_corruption(self, tmp_path):
        """A frame whose CRC holds was written that way: if its body does
        not inflate it is corruption even at the very end of the final
        segment — ``DurabilityError``, and nothing is truncated.  Mutant:
        the CRC computed over the inflated instead of the stored bytes (the
        reader must then inflate first and takes the failure for a torn
        tail, which it cuts off)."""
        log = WriteAheadLog(tmp_path, fsync="off")
        log.append(_wide_batch(1))
        log.close()
        path = tmp_path / "wal-00000001.log"
        stamp = encode_record(_wide_batch(2))[:_STAMP_BYTES]
        for body in (b"\xff" * 40, _raw_deflate(b"x" * 500)[:-3]):
            intact = path.read_bytes()
            with open(path, "ab") as handle:
                handle.write(_hand_frame(stamp + body, deflated=True))
            size = path.stat().st_size
            reopened = WriteAheadLog(tmp_path, fsync="off")
            assert reopened.truncated_bytes == 0
            with pytest.raises(DurabilityError, match="inflate"):
                list(reopened.records())
            reopened.close()
            assert path.stat().st_size == size
            path.write_bytes(intact)

    def test_a_frame_cannot_inflate_past_the_ceiling(self, tmp_path):
        """8 KB of stored bytes that inflate to 8 MiB are refused, having
        allocated less than 256 KiB.  Mutant: an unbounded ``decompress``
        (a ``len()`` check after the fact still raises, but only once the
        8 MiB exist)."""
        log = WriteAheadLog(tmp_path, fsync="off")
        log.close()
        path = tmp_path / "wal-00000001.log"
        stamp = encode_record(_batch(1))[:_STAMP_BYTES]
        bomb = _raw_deflate(bytes(8 << 20))
        assert len(bomb) < 1 << 16
        with open(path, "ab") as handle:
            handle.write(_hand_frame(stamp + bomb, deflated=True))
        reopened = WriteAheadLog(tmp_path, fsync="off")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(DurabilityError, match="inflate"):
                list(reopened.records())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reopened.close()
        assert peak - before < 256 * 1024

    def test_a_v1_segment_reads_back_and_is_never_appended_to(self, tmp_path):
        """A hand-written v1 segment (old magic, raw frames) reads through
        the one decoder; the next ``append`` lands in a fresh v2 segment.
        Mutant: appending behind a v1 magic — a v1 reader would take the
        flagged length for a frame running past the file and truncate it."""
        old = [_wide_batch(1), _batch(2, inserted=(_row(2),))]
        segment = _V1_MAGIC + b"".join(
            _hand_frame(encode_record(record), deflated=False) for record in old
        )
        path = tmp_path / "wal-00000001.log"
        path.write_bytes(segment)
        log = WriteAheadLog(tmp_path, fsync="off")
        assert [r for _, r in log.records()] == old
        position = log.append(_wide_batch(3))
        log.close()
        assert position.segment == 2
        assert path.read_bytes() == segment
        fresh = tmp_path / "wal-00000002.log"
        assert fresh.read_bytes().startswith(SEGMENT_MAGIC)
        assert [deflated for _, deflated, _ in _frames(fresh)] == [True]
        reopened = WriteAheadLog(tmp_path, fsync="off")
        assert [r for _, r in reopened.records()] == [*old, _wide_batch(3)]
        assert reopened.position().segment == 2  # the v2 tail is appended to
        reopened.close()

    def test_stored_size_does_not_depend_on_the_wall_clock(self, tmp_path):
        """The same rows committed at different ``at`` values store the same
        number of bytes, so ``wal_bytes_per_commit`` is exact per seed.
        Mutant: the stamp inside the deflated body (its eight wall-clock
        bytes then cost a different number of bits from commit to commit)."""
        log = WriteAheadLog(tmp_path, fsync="off")
        sizes = set()
        for step in range(64):
            before = log.bytes_written
            record = _wide_batch(1)._replace(at=1_759_500_000.0 + step * 0.37)
            log.append(record)
            sizes.add(log.bytes_written - before)
        log.close()
        assert len(sizes) == 1
        assert all(deflated for _, deflated, _ in _frames(tmp_path / "wal-00000001.log"))

    def test_set_up_logs_its_bulk_records_raw(self, tmp_path):
        """What bypasses the mechanism is record size: the three ``register``
        records of a 5 000-bug set-up are over the ceiling and stored as
        they were; only the three small ``CREATE`` records shrink, so the
        set-up's log is within 64 B of its uncompressed size."""
        dataset = generate_mozilla(5000, seed=1)
        db = Database.open(tmp_path, fsync="off")
        db.register("B", dataset.bug_info)
        db.register("A", dataset.bug_assignment)
        db.register("S", dataset.bug_severity)
        db.close()
        log = WriteAheadLog(tmp_path / "wal", fsync="off")
        records = [record for _, record in log.records()]
        segments = [tmp_path / "wal" / f"wal-{seq:08d}.log" for seq in log.segments()]
        log.close()
        frames = [frame for path in segments for frame in _frames(path)]
        assert [r.kind for r in records] == [KIND_CREATE, KIND_BATCH] * 3
        saved = 0
        for record, (_, deflated, stored) in zip(records, frames):
            payload = encode_record(record)
            if record.kind == KIND_BATCH:
                assert len(payload) > 1 << 16 and not deflated
                assert stored == payload
            saved += len(payload) - len(stored)
        assert 0 < saved <= 64
