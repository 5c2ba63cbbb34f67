"""Byte-accurate storage layout for ongoing tuples (Section VIII, Table V).

The paper's PostgreSQL implementation stores

* ongoing dates as **two** fixed dates (8 B instead of 4 B),
* ongoing dateranges as four dates plus a range header (+8 B over a fixed
  daterange), and
* the reference time ``RT`` as a built-in variable-length **array** of fixed
  intervals — 21 B of array/varlena header plus 8 B per interval, i.e. the
  29 B per tuple that Table V reports for the typical one-interval RT.

This module implements that layout with :mod:`struct`: values are actually
packed to bytes, and all size accounting is ``len(packed_bytes)``, not
estimates.  Two layouts are supported:

* ``"ongoing"`` — the extended layout above (ongoing attributes + RT);
* ``"fixed"`` — the classical layout used by the instantiating baselines
  (ongoing points collapse to 4 B dates, intervals to fixed dateranges,
  no RT attribute).

The ratio of the two is Table V's "ongoing/fixed tuple size" row.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF, TimePoint
from repro.core.timepoint import OngoingTimePoint, interned
from repro.errors import StorageError
from repro.relational.relation import OngoingRelation
from repro.relational.tuples import OngoingTuple

__all__ = [
    "TUPLE_HEADER_BYTES",
    "RT_HEADER_BYTES",
    "RT_INTERVAL_BYTES",
    "pack_value",
    "pack_rt",
    "pack_tuple",
    "unpack_rt",
    "unpack_tuple",
    "pack_tagged_value",
    "unpack_tagged_value",
    "pack_tagged_tuple",
    "unpack_tagged_tuple",
    "sizeof_tuple",
    "sizeof_delta",
    "StorageReport",
    "relation_storage",
]

#: PostgreSQL heap tuple header (23 B) plus alignment padding.
TUPLE_HEADER_BYTES = 24

#: Array/varlena header of the RT attribute (varlena 4 + ndim 4 + flags 4 +
#: element type 4 + dimension 4 + lower bound 1) — 21 B, so a one-interval
#: RT occupies the 29 B Table V reports.
RT_HEADER_BYTES = 21

#: One fixed half-open interval inside RT: two 4 B dates.
RT_INTERVAL_BYTES = 8

# PostgreSQL encodes the infinities of date/timestamp with the extreme
# representable values; we do the same when packing our ±inf sentinels.
_DATE_MINUS_INF = -(2**31)
_DATE_PLUS_INF = 2**31 - 1

#: Lower-inclusive, upper-exclusive: the flags byte of a range header.
_RANGE_FLAGS = 0x02

# Compiled once: the tagged codec below packs every logged and
# checkpointed row through these.
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_DATE_PAIR = struct.Struct("<ii")
_FOUR_DATES = struct.Struct("<iiii")
_AFFINE = struct.Struct("<qi")  # intercept, slope of one OngoingInt segment


def _date(point: TimePoint) -> int:
    """One fixed date as its 4-byte integer: sentinels mapped to the int32
    extremes, anything else that does not fit refused."""
    if point <= MINUS_INF:
        return _DATE_MINUS_INF
    if point >= PLUS_INF:
        return _DATE_PLUS_INF
    if -(2**31) <= point < 2**31:
        return point
    raise StorageError(f"time point {point} does not fit a 4-byte date")


def _pack_date(point: TimePoint) -> bytes:
    """One fixed date: 4 bytes, sentinels mapped to the int32 extremes."""
    return _I32.pack(_date(point))


def pack_value(value: object, *, layout: str = "ongoing") -> bytes:
    """Serialize one attribute value under the given layout.

    Fixed values (ints, strings, booleans, fixed dates) serialize
    identically in both layouts; ongoing points and intervals are halved in
    the ``"fixed"`` layout (which is only meaningful for size accounting of
    the instantiating baselines — the ongoing information is lost).
    """
    if isinstance(value, bool):
        return struct.pack("<?", value)
    if isinstance(value, int):
        return _pack_date(value) if -(2**31) <= value < 2**31 else struct.pack("<q", value)
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return struct.pack("<I", len(encoded)) + encoded
    if isinstance(value, OngoingTimePoint):
        if layout == "fixed":
            return _pack_date(value.a)
        return _pack_date(value.a) + _pack_date(value.b)
    if isinstance(value, OngoingInterval):
        flags = _U8.pack(_RANGE_FLAGS)
        varlena = struct.pack("<I", 0)
        if layout == "fixed":
            return varlena + flags + _pack_date(value.start.a) + _pack_date(value.end.b)
        return (
            varlena
            + flags
            + _pack_date(value.start.a)
            + _pack_date(value.start.b)
            + _pack_date(value.end.a)
            + _pack_date(value.end.b)
        )
    if isinstance(value, OngoingInt):
        if layout == "fixed":
            # The instantiating layouts store a plain integer.
            return struct.pack("<i", 0)
        # Varlena header + one 20-byte record per affine segment.
        parts = [struct.pack("<IB", 0, len(value.segments))]
        for start, end, intercept, slope in value.segments:
            if not -(2**31) <= slope < 2**31:
                raise StorageError(f"slope {slope} does not fit 4 bytes")
            if not -(2**63) <= intercept < 2**63:
                raise StorageError(f"intercept {intercept} does not fit 8 bytes")
            parts.append(_pack_date(start))
            parts.append(_pack_date(end))
            parts.append(struct.pack("<qi", intercept, slope))
        return b"".join(parts)
    if value is None:
        return b""
    raise StorageError(f"cannot serialize value {value!r}")


def pack_rt(rt: IntervalSet) -> bytes:
    """Serialize a reference time as the paper's array-of-intervals."""
    header = bytes(RT_HEADER_BYTES)
    body = b"".join(
        _pack_date(start) + _pack_date(end) for start, end in rt.intervals
    )
    return header + body


def pack_tuple(
    item: OngoingTuple, *, layout: str = "ongoing", include_header: bool = True
) -> bytes:
    """Serialize a whole tuple (values + RT in the ongoing layout)."""
    if layout not in ("ongoing", "fixed"):
        raise StorageError(f"unknown layout {layout!r}")
    parts: List[bytes] = []
    if include_header:
        parts.append(bytes(TUPLE_HEADER_BYTES))
    for value in item.values:
        parts.append(pack_value(value, layout=layout))
    if layout == "ongoing":
        parts.append(pack_rt(item.rt))
    return b"".join(parts)


def sizeof_tuple(item: OngoingTuple, *, layout: str = "ongoing") -> int:
    """Byte size of a tuple under the given layout."""
    return len(pack_tuple(item, layout=layout))


def sizeof_delta(delta) -> int:
    """Byte size of a :class:`~repro.engine.delta.Delta` on the wire.

    The serialized change of a modification event: every inserted and
    deleted ongoing tuple in the ongoing layout (the delete ships the
    full tuple — the consumer identifies it by value).  This is what a
    replication or change-data-capture channel for ongoing databases
    would transfer per modification, and it is what the incremental
    benchmark reports next to the size of the full materialization the
    delta path avoids re-shipping.
    """
    return sum(
        sizeof_tuple(item) for item in (*delta.inserted, *delta.deleted)
    )


# ----------------------------------------------------------------------
# Deserialization — the read path of the storage layout.
#
# Unpacking needs the schema (the layout is not self-describing, like a
# PostgreSQL heap page isn't): the attribute kinds select the decoders.
# Only the ongoing layout round-trips losslessly; the fixed layout is a
# lossy projection for the instantiating baselines.
# ----------------------------------------------------------------------


def _undate(value: int) -> TimePoint:
    """The time point of a 4-byte date (the inverse of :func:`_date`)."""
    if value == _DATE_MINUS_INF:
        return MINUS_INF
    if value == _DATE_PLUS_INF:
        return PLUS_INF
    return value


def _unpack_date(buffer: bytes, offset: int) -> tuple[TimePoint, int]:
    (value,) = _I32.unpack_from(buffer, offset)
    return _undate(value), offset + 4


def _point(a: int, b: int) -> OngoingTimePoint:
    """The point of the 4-byte dates ``a+b``, from the intern table.

    Decoded dates are exact ints, so a value the table holds needs none
    of the constructor's checks; reading it directly decodes a point in
    under half the time of an ``OngoingTimePoint(a, b)`` call.  A value
    the table lacks goes through the constructor."""
    if a == _DATE_MINUS_INF or a == _DATE_PLUS_INF:
        a = _undate(a)
    if b == _DATE_MINUS_INF or b == _DATE_PLUS_INF:
        b = _undate(b)
    return interned((a, b)) or OngoingTimePoint(a, b)


def _unpack_ongoing_int(buffer: bytes, offset: int) -> tuple[OngoingInt, int]:
    """Read an ongoing integer written by :func:`pack_value`."""
    offset += 4  # varlena
    (count,) = _U8.unpack_from(buffer, offset)
    offset += 1
    segments = []
    for _ in range(count):
        start, end = _DATE_PAIR.unpack_from(buffer, offset)
        intercept, slope = _AFFINE.unpack_from(buffer, offset + 8)
        offset += 20
        segments.append((_undate(start), _undate(end), intercept, slope))
    return OngoingInt(segments), offset


def unpack_rt(buffer: bytes, offset: int = 0) -> tuple[IntervalSet, int]:
    """Read a reference time written by :func:`pack_rt`.

    The array header does not carry an element count (neither does the
    paper's layout — PostgreSQL stores it in the varlena length); we read
    intervals to the end of the buffer, so RT must be the trailing
    attribute, which it is in :func:`pack_tuple`.
    """
    offset += RT_HEADER_BYTES
    first = offset
    pairs = []
    while offset + RT_INTERVAL_BYTES <= len(buffer):
        start, offset = _unpack_date(buffer, offset)
        end, offset = _unpack_date(buffer, offset)
        pairs.append((start, end))
    return _decoded_rt(pairs, first), offset


def _decoded_rt(pairs: List[Tuple[TimePoint, TimePoint]], first: int) -> IntervalSet:
    """The shared RT of the pairs decoded from *first* on.

    Every encoder writes ``rt.intervals``, which are normalized, so the
    pairs must be non-empty, ascending and separated by a gap; anything
    else is a corrupt or foreign buffer and is refused, not repaired.
    """
    last_end = MINUS_INF - 1
    for index, (start, end) in enumerate(pairs):
        if not last_end < start < end:
            raise StorageError(
                f"reference time interval [{start}, {end}) at offset "
                f"{first + index * RT_INTERVAL_BYTES} is empty, unsorted, "
                "or overlaps or touches the one before"
            )
        last_end = end
    return IntervalSet._from_normalized(pairs)


def unpack_tuple(buffer: bytes, schema, *, text_attributes=frozenset()) -> OngoingTuple:
    """Read one tuple written by :func:`pack_tuple` (ongoing layout).

    *schema* is a :class:`~repro.relational.schema.Schema`.  Fixed
    attributes decode as 4-byte ints unless their name appears in
    *text_attributes* (the layout itself is not self-describing — in
    PostgreSQL the type information lives in the catalog, and this
    parameter plays that role).
    """
    from repro.relational.schema import AttributeKind

    offset = TUPLE_HEADER_BYTES
    values = []
    for attribute in schema:
        if attribute.kind is AttributeKind.ONGOING_POINT:
            a, offset = _unpack_date(buffer, offset)
            b, offset = _unpack_date(buffer, offset)
            values.append(OngoingTimePoint(a, b))
        elif attribute.kind is AttributeKind.ONGOING_INTERVAL:
            offset += 5  # varlena + range flags
            a, offset = _unpack_date(buffer, offset)
            b, offset = _unpack_date(buffer, offset)
            c, offset = _unpack_date(buffer, offset)
            d, offset = _unpack_date(buffer, offset)
            values.append(
                OngoingInterval(OngoingTimePoint(a, b), OngoingTimePoint(c, d))
            )
        elif attribute.kind is AttributeKind.ONGOING_INTEGER:
            value, offset = _unpack_ongoing_int(buffer, offset)
            values.append(value)
        elif attribute.name in text_attributes:
            (length,) = struct.unpack_from("<I", buffer, offset)
            values.append(
                buffer[offset + 4 : offset + 4 + length].decode("utf-8")
            )
            offset += 4 + length
        else:
            value, offset = _unpack_date(buffer, offset)
            values.append(value)
    rt, _ = unpack_rt(buffer, offset)
    return OngoingTuple(tuple(values), rt)


# ----------------------------------------------------------------------
# Tagged (self-describing) serialization — the WAL and checkpoint framing.
#
# The heap layout above deliberately mirrors PostgreSQL: the bytes carry
# no type information, the catalog does.  A write-ahead log record must
# be decodable *before* the catalog is recovered, so the durable layer
# uses a tagged variant: one type byte per value, payloads reusing the
# byte-accurate encodings above.  ``pack_tagged_tuple`` also frames the
# RT with an explicit interval count (the heap layout infers it from the
# buffer length, which only works for a trailing attribute).
#
# ``pack_tagged_value`` / ``unpack_tagged_value`` *define* the bytes: a
# tuple is its value count, its tagged values in order, and the counted
# RT.  Every logged and checkpointed row passes through the tuple codec
# (twice during set-up: the ``register`` record and the checkpoint heap),
# so the structs are compiled once, the trivial RT is one constant, and
# ``pack_tagged_tuple`` packs the four kinds that are nearly all values
# — text, 32-bit ints, intervals, points, told by their *exact* class —
# in line (half the time of a ``pack_tagged_value`` call per value),
# reading the slots of tuple, interval and point directly and mapping
# only dates outside int32 (the ±inf sentinels) through ``_date``.
# Everything else (bools, ``None``, 64-bit ints, ongoing integers and
# rationals, subclasses) goes through the value codec, as does all
# decoding: the same in-line path on the read side measured 4–9 %.  The
# in-line path must not drift from the definition:
# tests/engine/test_storage_tagged.py compares the two byte for byte.
# ----------------------------------------------------------------------

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT32 = 3
_TAG_INT64 = 4
_TAG_TEXT = 5
_TAG_POINT = 6
_TAG_INTERVAL = 7
_TAG_OINT = 8
_TAG_ORATIONAL = 9  # numerator and denominator: two _TAG_OINT payloads

_TAGGED_INT32 = struct.Struct("<Bi")
_TAGGED_INT64 = struct.Struct("<Bq")
_TAGGED_TEXT = struct.Struct("<BI")  # tag, encoded length
_TAGGED_POINT = struct.Struct("<Bii")
_TAGGED_INTERVAL = struct.Struct("<BIBiiii")  # tag, varlena, range flags, dates

_TRIVIAL_RT = struct.pack("<Hii", 1, _DATE_MINUS_INF, _DATE_PLUS_INF)

#: Longer strings are free text, not categories: not worth a memo entry.
_SHARED_TEXT_BYTES = 64


def pack_tagged_value(value: object) -> bytes:
    """Serialize one value with a leading type tag (self-describing)."""
    if isinstance(value, bool):
        return _U8.pack(_TAG_TRUE if value else _TAG_FALSE)
    if isinstance(value, int):
        # Raw two's-complement — no ±inf sentinel mapping: a genuine
        # value of -2**31 must round-trip as itself, not as MINUS_INF.
        if -(2**31) <= value < 2**31:
            return _TAGGED_INT32.pack(_TAG_INT32, value)
        if -(2**63) <= value < 2**63:
            return _TAGGED_INT64.pack(_TAG_INT64, value)
        raise StorageError(f"integer {value} does not fit 8 bytes")
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return _TAGGED_TEXT.pack(_TAG_TEXT, len(encoded)) + encoded
    if isinstance(value, OngoingTimePoint):
        return _U8.pack(_TAG_POINT) + pack_value(value)
    if isinstance(value, OngoingInterval):
        return _U8.pack(_TAG_INTERVAL) + pack_value(value)
    if isinstance(value, OngoingInt):
        return _U8.pack(_TAG_OINT) + pack_value(value)
    if isinstance(value, OngoingRational):
        # Only the tagged codec knows the value: a queued AVG notification
        # must survive a checkpoint, while ``pack_value`` (the paper's
        # size accounting) keeps pricing what Table V prices.
        return (
            _U8.pack(_TAG_ORATIONAL)
            + pack_value(value.numerator)
            + pack_value(value.denominator)
        )
    if value is None:
        return _U8.pack(_TAG_NONE)
    raise StorageError(f"cannot serialize value {value!r}")


def unpack_tagged_value(
    buffer: bytes, offset: int = 0, memo: Optional[dict] = None
) -> tuple[object, int]:
    """Read one value written by :func:`pack_tagged_value`.

    Time points come from :class:`~repro.core.timepoint.OngoingTimePoint`'s
    intern table, so a decoded row shares them with every other row that
    holds the same value.  Text would decode to a fresh object per value
    where the writer held one object under many rows (a category): a
    *memo* shared by the calls of one load gives equal short strings one
    object again — values of a small domain, so the memo stays small
    however many rows pass through it.
    """
    (tag,) = _U8.unpack_from(buffer, offset)
    offset += 1
    # Text, 32-bit ints and intervals are nearly all values: asked first.
    if tag == _TAG_TEXT:
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        value = str(buffer[offset : offset + length], "utf-8")
        if memo is not None and length <= _SHARED_TEXT_BYTES:
            value = memo.setdefault(value, value)
        return value, offset + length
    if tag == _TAG_INT32:
        (value,) = _I32.unpack_from(buffer, offset)
        return value, offset + 4
    if tag == _TAG_INTERVAL:
        offset += 5  # varlena + range flags
        a, b, c, d = _FOUR_DATES.unpack_from(buffer, offset)
        return (
            OngoingInterval(_point(a, b), _point(c, d)),
            offset + 16,
        )
    if tag == _TAG_POINT:
        a, b = _DATE_PAIR.unpack_from(buffer, offset)
        return _point(a, b), offset + 8
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT64:
        (value,) = _I64.unpack_from(buffer, offset)
        return value, offset + 8
    if tag == _TAG_OINT:
        return _unpack_ongoing_int(buffer, offset)
    if tag == _TAG_ORATIONAL:
        numerator, offset = _unpack_ongoing_int(buffer, offset)
        denominator, offset = _unpack_ongoing_int(buffer, offset)
        return OngoingRational(numerator, denominator), offset
    raise StorageError(f"unknown value tag {tag} at offset {offset - 1}")


def pack_tagged_tuple(item: OngoingTuple) -> bytes:
    """Serialize a whole tuple self-describingly (values + counted RT)."""
    values = item._values
    parts: List[bytes] = [_U16.pack(len(values))]
    append = parts.append
    for value in values:
        kind = type(value)  # exact: a subclass takes the general path
        if kind is str:
            encoded = value.encode("utf-8")
            append(_TAGGED_TEXT.pack(_TAG_TEXT, len(encoded)))
            append(encoded)
        elif kind is int and -(2**31) <= value < 2**31:
            append(_TAGGED_INT32.pack(_TAG_INT32, value))
        elif kind is OngoingInterval:
            # A date inside int32 is its own 4 bytes: only the sentinels
            # (and dates too large, which _date refuses) take the call.
            start, end = value._start, value._end
            a, b, c, d = start._a, start._b, end._a, end._b
            if not -(2**31) <= a < 2**31:
                a = _date(a)
            if not -(2**31) <= b < 2**31:
                b = _date(b)
            if not -(2**31) <= c < 2**31:
                c = _date(c)
            if not -(2**31) <= d < 2**31:
                d = _date(d)
            append(_TAGGED_INTERVAL.pack(_TAG_INTERVAL, 0, _RANGE_FLAGS, a, b, c, d))
        elif kind is OngoingTimePoint:
            a, b = value._a, value._b
            if not -(2**31) <= a < 2**31:
                a = _date(a)
            if not -(2**31) <= b < 2**31:
                b = _date(b)
            append(_TAGGED_POINT.pack(_TAG_POINT, a, b))
        else:
            append(pack_tagged_value(value))
    rt = item._rt
    if rt is UNIVERSAL_SET:
        append(_TRIVIAL_RT)
    else:
        intervals = rt.intervals
        append(_U16.pack(len(intervals)))
        for start, end in intervals:
            append(_DATE_PAIR.pack(_date(start), _date(end)))
    return b"".join(parts)


def unpack_tagged_tuple(
    buffer: bytes, offset: int = 0, memo: Optional[dict] = None
) -> tuple[OngoingTuple, int]:
    """Read one tuple written by :func:`pack_tagged_tuple`.

    The trivial reference time of a base row decodes to the
    :data:`~repro.core.intervalset.UNIVERSAL_SET` singleton; *memo* is
    :func:`unpack_tagged_value`'s.  A *buffer* that ends inside the row
    raises :class:`struct.error` (or decodes a short text: the returned
    offset then lies past the buffer) — a chunked reader finds row
    boundaries that way.
    """
    (n_values,) = _U16.unpack_from(buffer, offset)
    offset += 2
    values = []
    for _ in range(n_values):
        value, offset = unpack_tagged_value(buffer, offset, memo)
        values.append(value)
    if buffer[offset : offset + len(_TRIVIAL_RT)] == _TRIVIAL_RT:
        return OngoingTuple(tuple(values)), offset + len(_TRIVIAL_RT)
    (n_intervals,) = _U16.unpack_from(buffer, offset)
    offset += 2
    first = offset
    pairs = []
    for _ in range(n_intervals):
        start, end = _DATE_PAIR.unpack_from(buffer, offset)
        pairs.append((_undate(start), _undate(end)))
        offset += 8
    return OngoingTuple(tuple(values), _decoded_rt(pairs, first)), offset


@dataclass(frozen=True)
class StorageReport:
    """Aggregate storage statistics of a relation (the Table V columns)."""

    tuple_count: int
    avg_tuple_bytes: float       # ongoing layout, including RT
    avg_rt_bytes: float          # RT attribute share, absolute
    rt_share: float              # RT attribute share, relative
    avg_fixed_tuple_bytes: float  # classical layout (baselines)
    ongoing_vs_fixed: float      # Table V's "ongoing/fixed tuple size"
    avg_rt_cardinality: float    # intervals per RT (Table IV's metric)
    max_rt_cardinality: int

    def format(self) -> str:
        return (
            f"tuples={self.tuple_count}  avg={self.avg_tuple_bytes:.0f}B  "
            f"RT={self.avg_rt_bytes:.0f}B ({self.rt_share:.0%})  "
            f"ongoing/fixed={self.ongoing_vs_fixed:.0%}  "
            f"|RT| avg={self.avg_rt_cardinality:.2f} max={self.max_rt_cardinality}"
        )


def relation_storage(relation: OngoingRelation) -> StorageReport:
    """Measure a relation under both layouts (one pass, real serialization)."""
    count = len(relation)
    if count == 0:
        return StorageReport(0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0)
    total_ongoing = 0
    total_fixed = 0
    total_rt = 0
    total_cardinality = 0
    max_cardinality = 0
    for item in relation:
        total_ongoing += sizeof_tuple(item, layout="ongoing")
        total_fixed += sizeof_tuple(item, layout="fixed")
        total_rt += len(pack_rt(item.rt))
        cardinality = item.rt.cardinality
        total_cardinality += cardinality
        if cardinality > max_cardinality:
            max_cardinality = cardinality
    avg_ongoing = total_ongoing / count
    avg_fixed = total_fixed / count
    avg_rt = total_rt / count
    return StorageReport(
        tuple_count=count,
        avg_tuple_bytes=avg_ongoing,
        avg_rt_bytes=avg_rt,
        rt_share=avg_rt / avg_ongoing,
        avg_fixed_tuple_bytes=avg_fixed,
        ongoing_vs_fixed=avg_ongoing / avg_fixed,
        avg_rt_cardinality=total_cardinality / count,
        max_rt_cardinality=max_cardinality,
    )
