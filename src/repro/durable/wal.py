"""Segmented, CRC-framed write-ahead log of modification batches.

Every committed modification of a durable :class:`~repro.engine.database.
Database` appends exactly one record here *before* the commit returns to
the caller (the durability hook runs as a delta listener inside the
table's write lock).  A record carries the table name, the
:class:`~repro.engine.database.CommitStamp`, and the typed
:class:`~repro.engine.delta.Delta` serialized with the tagged layout of
:mod:`repro.engine.storage` — recovery decodes records without any
catalog and replays them as ordinary deltas.  Every modification names
its rows, so the writer emits ``BATCH``, ``CREATE`` and ``DROP`` only;
``SNAPSHOT`` (a table's whole post-state, once written for swaps that
named no rows) is still read and replayed, because older logs hold it.

Layout
------

Segments are files ``wal-<seq:08d>.log`` inside the log directory, each
starting with an 8-byte magic.  A record is framed as::

    <I stored_length | 0x80000000 if deflated> <I crc32(stored bytes)>
    <B kind> <Q tick> <d at>  body

The 17-byte stamp ``kind, tick, at`` is always stored as it is; the rest
of :func:`encode_record`'s payload — the table name and the
kind-specific body — follows either raw or, with the top bit of the
length set, raw-deflated (``wbits=-15``, level 1: the frame already has
a checksum, a zlib header and trailer would be six wasted bytes).  The
CRC covers the bytes *as stored*, so a frame is vouched for before
anything is inflated.  Compression is framing only: ``encode_record`` /
``decode_record`` and the positions handed out by :meth:`append` know
nothing of it, and each frame inflates on its own (replay may start at
any frame a checkpoint names).

One rule decides, with two constants and no option: a record is
deflated iff ``_DEFLATE_MIN <= len(payload) < _DEFLATE_MAX`` and the
result is smaller.  Below 48 bytes (a ``DROP``, an empty batch) deflate
cannot win back its own block header.  The 64 KiB ceiling keeps bulk
``register`` / ``replace_all`` batches — encoded on the caller's thread
and superseded by the next checkpoint — stored as they were, and it is
the bound the reader inflates under: no frame can make it allocate
more.  A temporal modification rewrites one end point of a row and logs
the row's before- and after-image, so a typical commit deflates to a
little over half its size.  The stamp stays outside the deflated body
so that no wall-clock byte reaches the compressor: a record's stored
size is a function of its rows alone.

Frames are written with a *single* unbuffered ``write()`` — a crash can
tear only the very last frame, never interleave two, and everything
written before a ``kill -9`` has already reached the OS page cache
(``fsync`` only matters for power loss, not process death).

Segments written before frames could deflate carry the magic
``RWAL\x01``; such a segment is a current one that never sets the flag,
so the one reader below reads both.  The writer never appends behind the
old magic (a reader of that version would take a flagged length for a
frame running past the file and truncate it as a torn tail): a log whose
final segment is old rotates to a fresh segment when it is opened.

Fsync policy
------------

``always`` fsyncs after every append (a commit acknowledged to the
caller is on disk), ``batch`` fsyncs every ``sync_every`` appends and on
rotation/checkpoint/close, ``off`` never fsyncs automatically.  Unless
the policy is ``off``, a new segment is followed by an fsync of the WAL
directory, so the entry naming it survives power loss.  Explicit
:meth:`WriteAheadLog.sync` always reaches the disk regardless of policy
— checkpoints depend on that.

Torn tails
----------

On open, the *final* segment is scanned and truncated at the first
incomplete or CRC-failing frame (the torn remains of an interrupted
append).  A bad frame in any non-final segment has no such excuse and
raises :class:`~repro.errors.DurabilityError`.  So does, in *any*
segment, a frame whose CRC holds but whose body does not inflate to a
whole record within the bound: the bytes are what was written, so they
were never a torn write, and they are not truncated away.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.durable import faults
from repro.engine.storage import pack_tagged_tuple, unpack_tagged_tuple
from repro.errors import DurabilityError

__all__ = [
    "KIND_BATCH",
    "KIND_SNAPSHOT",
    "KIND_CREATE",
    "KIND_DROP",
    "WalRecord",
    "WalPosition",
    "WriteAheadLog",
    "encode_record",
    "decode_record",
]

SEGMENT_MAGIC = b"RWAL\x02\x00\x00\n"
#: Segments of this magic hold raw frames only; read, never appended to.
_RAW_SEGMENT_MAGIC = b"RWAL\x01\x00\x00\n"
_FRAME = struct.Struct("<II")  # stored length | _DEFLATED, crc32(stored bytes)
_HEADER = struct.Struct("<BQd")  # kind, commit tick, commit wall offset
_DEFLATED = 0x80000000  # top bit of a frame's length: the body is deflated
#: Below this a payload is a stamp and a name: deflate's own block header
#: costs more than it can save.
_DEFLATE_MIN = 48
#: Bulk records stay raw (deflating megabytes on the caller's thread buys
#: nothing the next checkpoint keeps), so no frame inflates past this.
_DEFLATE_MAX = 1 << 16

#: A typed delta committed against one table.
KIND_BATCH = 1
#: The full post-state of one table.  No longer written (every delta
#: names its rows); read and replayed through ``replace_all`` because
#: older logs hold it.
KIND_SNAPSHOT = 2
#: DDL: a table was created (schema travels in the record).
KIND_CREATE = 3
#: DDL: a table was dropped.
KIND_DROP = 4

_KINDS = (KIND_BATCH, KIND_SNAPSHOT, KIND_CREATE, KIND_DROP)


class WalRecord(NamedTuple):
    """One decoded log record."""

    kind: int
    table: str
    tick: int
    at: float
    inserted: Tuple = ()  # BATCH: inserted OngoingTuples
    deleted: Tuple = ()  # BATCH: deleted OngoingTuples
    rows: Tuple = ()  # SNAPSHOT: full post-state rows
    schema_spec: Tuple = ()  # CREATE: ((attr_name, kind_value), ...)


class WalPosition(NamedTuple):
    """A byte-accurate position in the log: (segment seq, byte offset)."""

    segment: int
    offset: int


def _pack_str(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return struct.pack("<H", len(encoded)) + encoded


def _unpack_str(buffer: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from("<H", buffer, offset)
    offset += 2
    return str(buffer[offset : offset + length], "utf-8"), offset + length


def _pack_rows(payload: bytearray, rows) -> None:
    """Append *rows* to *payload* one row at a time: a bulk record is
    encoded once, into the buffer that is written."""
    payload += struct.pack("<I", len(rows))
    for row in rows:
        payload += pack_tagged_tuple(row)


def _unpack_rows(buffer: bytes, offset: int, memo: dict) -> Tuple[Tuple, int]:
    (count,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    rows = []
    for _ in range(count):
        row, offset = unpack_tagged_tuple(buffer, offset, memo)
        rows.append(row)
    return tuple(rows), offset


def _encode_into(payload: bytearray, record: WalRecord) -> None:
    """Append *record*'s serialized payload to *payload*."""
    if record.kind not in _KINDS:
        raise DurabilityError(f"unknown WAL record kind {record.kind}")
    payload += _HEADER.pack(record.kind, record.tick, record.at)
    payload += _pack_str(record.table)
    if record.kind == KIND_BATCH:
        _pack_rows(payload, record.inserted)
        _pack_rows(payload, record.deleted)
    elif record.kind == KIND_SNAPSHOT:
        _pack_rows(payload, record.rows)
    elif record.kind == KIND_CREATE:
        payload += struct.pack("<H", len(record.schema_spec))
        for name, kind_value in record.schema_spec:
            payload += _pack_str(name)
            payload += _pack_str(kind_value)


def encode_record(record: WalRecord) -> bytes:
    """Serialize a record payload (the frame is the caller's job)."""
    payload = bytearray()
    _encode_into(payload, record)
    return bytes(payload)


def decode_record(payload: bytes) -> WalRecord:
    """Decode a record payload written by :func:`encode_record`.

    Equal values of the record's rows are decoded to one object (a
    terminated row and its successor share all but the valid time).
    """
    kind, tick, at = _HEADER.unpack_from(payload, 0)
    offset = _HEADER.size
    table, offset = _unpack_str(payload, offset)
    if kind == KIND_BATCH:
        memo: dict = {}
        inserted, offset = _unpack_rows(payload, offset, memo)
        deleted, offset = _unpack_rows(payload, offset, memo)
        return WalRecord(kind, table, tick, at, inserted=inserted, deleted=deleted)
    if kind == KIND_SNAPSHOT:
        rows, offset = _unpack_rows(payload, offset, {})
        return WalRecord(kind, table, tick, at, rows=rows)
    if kind == KIND_CREATE:
        (count,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        spec = []
        for _ in range(count):
            name, offset = _unpack_str(payload, offset)
            kind_value, offset = _unpack_str(payload, offset)
            spec.append((name, kind_value))
        return WalRecord(kind, table, tick, at, schema_spec=tuple(spec))
    if kind == KIND_DROP:
        return WalRecord(kind, table, tick, at)
    raise DurabilityError(f"unknown WAL record kind {kind}")


def _frame_record(record: WalRecord) -> bytearray:
    """*record* as the one buffer that is written: header space first, the
    payload behind it (deflated behind its stamp if the rule says so), the
    header last."""
    frame = bytearray(_FRAME.size)
    _encode_into(frame, record)
    flag = 0
    if _DEFLATE_MIN <= len(frame) - _FRAME.size < _DEFLATE_MAX:
        body_at = _FRAME.size + _HEADER.size
        deflater = zlib.compressobj(1, zlib.DEFLATED, -15)
        body = deflater.compress(frame[body_at:]) + deflater.flush()
        if len(body) < len(frame) - body_at:
            frame[body_at:] = body
            flag = _DEFLATED
    stored = memoryview(frame)[_FRAME.size :]
    _FRAME.pack_into(frame, 0, len(stored) | flag, zlib.crc32(stored))
    return frame


def _intact_frames(data: bytes, offset: int) -> Iterator[Tuple[int, int, bool]]:
    """``(start, end, deflated)`` of each frame of *data* from *offset* on,
    up to the first whose stored bytes are not all there or fail their CRC
    (nothing of a frame is looked at, let alone inflated, before that)."""
    view = memoryview(data)
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + (length & ~_DEFLATED)
        if end > len(data) or zlib.crc32(view[offset + _FRAME.size : end]) != crc:
            return
        yield offset, end, bool(length & _DEFLATED)
        offset = end


def _inflate(stored: memoryview, where: str) -> bytes:
    """The payload of a deflated frame: its stamp, then its inflated body.

    The CRC has vouched for *stored*, so bytes that do not inflate to one
    whole stream within the bound were written that way: corruption (or a
    hostile file), never a torn write.
    """
    inflater = zlib.decompressobj(-15)
    try:
        body = inflater.decompress(stored[_HEADER.size :], _DEFLATE_MAX)
    except zlib.error as exc:
        raise DurabilityError(f"frame of {where} does not inflate: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise DurabilityError(
            f"frame of {where} does not inflate to one record under "
            f"{_DEFLATE_MAX} bytes"
        )
    return bytes(stored[: _HEADER.size]) + body


def fsync_directory(directory: Path) -> None:
    """Make *directory*'s entries (files created or renamed in it) survive
    power loss; a platform that cannot open a directory skips it."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append/scan interface over the segment files of one database."""

    def __init__(
        self,
        directory,
        *,
        fsync: str = "batch",
        segment_bytes: int = 4 * 1024 * 1024,
        sync_every: int = 64,
    ) -> None:
        if fsync not in ("always", "batch", "off"):
            raise DurabilityError(
                f"fsync policy must be 'always', 'batch' or 'off', not {fsync!r}"
            )
        if segment_bytes < len(SEGMENT_MAGIC) + _FRAME.size:
            raise DurabilityError("segment_bytes is too small to hold a record")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.sync_every = max(1, sync_every)
        self._lock = threading.RLock()
        self._file = None
        self._closed = False
        # Counters (read through stats(); the scrape exposes two).
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.truncated_bytes = 0
        self._appends_since_sync = 0
        self._bytes_since_sync = 0
        self._segments = self._scan_segments()
        if not self._segments:
            self._segments = [1]
            self._current_seq = 1
            self._open_segment(1, create=True)
        else:
            self._current_seq = self._segments[-1]
            if self._recover_tail():
                self._open_segment(self._current_seq, create=False)
            else:  # raw-only magic: read it, never append behind it
                self._start_segment()

    # -- segment bookkeeping -------------------------------------------

    def _segment_path(self, seq: int) -> Path:
        return self.directory / f"wal-{seq:08d}.log"

    def _scan_segments(self) -> List[int]:
        seqs = []
        for path in self.directory.glob("wal-*.log"):
            try:
                seqs.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                raise DurabilityError(f"alien file in WAL directory: {path.name}")
        return sorted(seqs)

    def _open_segment(self, seq: int, *, create: bool) -> None:
        path = self._segment_path(seq)
        # Unbuffered: every append is one write() syscall straight into
        # the OS page cache, so a kill -9 cannot lose user-space buffers.
        self._file = open(path, "ab", buffering=0)
        size = os.path.getsize(path)
        if create or size == 0:
            self._file.write(SEGMENT_MAGIC)
            size = len(SEGMENT_MAGIC)
        self._current_size = size
        if create and self.fsync_policy != "off":
            fsync_directory(self.directory)  # the entry naming the segment

    def _start_segment(self) -> None:
        self._current_seq += 1
        self._segments.append(self._current_seq)
        self._open_segment(self._current_seq, create=True)

    def _recover_tail(self) -> bool:
        """Truncate the final segment at its last intact frame; whether it
        may be appended to (it carries the current magic, or none yet)."""
        path = self._segment_path(self._current_seq)
        data = path.read_bytes()
        magic = data[: len(SEGMENT_MAGIC)]
        if len(data) < len(SEGMENT_MAGIC):
            # Crash between creating the segment and writing its magic.
            valid_end = 0
        elif magic not in (SEGMENT_MAGIC, _RAW_SEGMENT_MAGIC):
            raise DurabilityError(f"bad magic in WAL segment {path.name}")
        else:
            valid_end = len(SEGMENT_MAGIC)
            for _start, valid_end, _deflated in _intact_frames(data, valid_end):
                pass
        if valid_end < len(data):
            self.truncated_bytes += len(data) - valid_end
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
        return magic != _RAW_SEGMENT_MAGIC

    # -- write path ----------------------------------------------------

    def append(self, record: WalRecord) -> WalPosition:
        """Frame and append one record; returns its position."""
        frame = _frame_record(record)  # encoded and deflated outside the lock
        with self._lock:
            if self._closed:
                raise DurabilityError("write-ahead log is closed")
            faults.fire("wal.pre_append")
            position = WalPosition(self._current_seq, self._current_size)
            self._file.write(frame)
            self._current_size += len(frame)
            self.appends += 1
            self.bytes_written += len(frame)
            self._appends_since_sync += 1
            self._bytes_since_sync += len(frame)
            if self.fsync_policy == "always" or (
                self.fsync_policy == "batch"
                and self._appends_since_sync >= self.sync_every
            ):
                self._sync_locked()
            faults.fire("wal.post_append")
            if self._current_size >= self.segment_bytes:
                self._rotate_locked()
            return position

    def _sync_locked(self) -> None:
        faults.fire("wal.pre_fsync")
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._appends_since_sync = 0
        self._bytes_since_sync = 0

    def sync(self) -> None:
        """Force the log to disk (used by checkpoints; ignores policy)."""
        with self._lock:
            if not self._closed:
                self._sync_locked()

    def _rotate_locked(self) -> None:
        if self.fsync_policy != "off":
            self._sync_locked()
        self._file.close()
        self._start_segment()
        self._appends_since_sync = 0

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            if self.fsync_policy != "off":
                self._sync_locked()
            self._file.close()
            self._closed = True

    # -- read path -----------------------------------------------------

    def position(self) -> WalPosition:
        """The position the *next* append will be written at."""
        with self._lock:
            return WalPosition(self._current_seq, self._current_size)

    def segments(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._segments)

    def records(
        self, start: Optional[WalPosition] = None
    ) -> Iterator[Tuple[WalPosition, WalRecord]]:
        """Scan records from *start* (or the very beginning of the log).

        Reads the segment files directly (independent of the append
        handle).  A torn frame at the very end of the final segment ends
        the scan quietly — :meth:`__init__` has normally already
        truncated it; one appearing anywhere else raises
        :class:`DurabilityError`.
        """
        segments = self.segments()
        for index, seq in enumerate(segments):
            if start is not None and seq < start.segment:
                continue
            final = index == len(segments) - 1
            path = self._segment_path(seq)
            # Frames before *start* are not read at all: after a
            # checkpoint they are the bulk of the segment.
            base = len(SEGMENT_MAGIC)
            if start is not None and seq == start.segment:
                base = max(base, start.offset)
            with open(path, "rb") as handle:
                magic = handle.read(len(SEGMENT_MAGIC))
                handle.seek(base)
                data = handle.read()
            if len(magic) < len(SEGMENT_MAGIC):
                if final:
                    return
                raise DurabilityError(f"WAL segment {path.name} has no header")
            if magic not in (SEGMENT_MAGIC, _RAW_SEGMENT_MAGIC):
                raise DurabilityError(f"bad magic in WAL segment {path.name}")
            view = memoryview(data)  # frames are checked and decoded in place
            intact_end = 0
            for offset, intact_end, deflated in _intact_frames(data, 0):
                payload = view[offset + _FRAME.size : intact_end]
                if deflated:
                    payload = _inflate(payload, path.name)
                yield WalPosition(seq, base + offset), decode_record(payload)
            if intact_end < len(data) and not final:
                raise DurabilityError(
                    f"torn or corrupt frame inside non-final WAL segment {path.name}"
                )

    def prune_segments(self, before: int) -> int:
        """Delete whole segments with seq < *before* (checkpoint GC)."""
        removed = 0
        with self._lock:
            keep = []
            for seq in self._segments:
                if seq < before and seq != self._current_seq:
                    try:
                        self._segment_path(seq).unlink()
                    except FileNotFoundError:
                        pass
                    removed += 1
                else:
                    keep.append(seq)
            self._segments = keep
        return removed

    # -- introspection -------------------------------------------------

    def lag_records(self) -> int:
        """Appends not yet covered by an fsync."""
        with self._lock:
            return self._appends_since_sync

    def lag_bytes(self) -> int:
        """Bytes appended but not yet covered by an fsync."""
        with self._lock:
            return self._bytes_since_sync

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "fsync": self.fsync_policy,
                "appends": self.appends,
                "fsyncs": self.fsyncs,
                "bytes_written": self.bytes_written,
                "truncated_bytes": self.truncated_bytes,
                "segments": len(self._segments),
                "lag_records": self._appends_since_sync,
                "lag_bytes": self._bytes_since_sync,
            }
