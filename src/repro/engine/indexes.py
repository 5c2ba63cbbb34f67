"""Secondary indexes for cold scans and delta probes.

One constant decides when an index is read instead of a scan:
:data:`INDEX_THRESHOLD` rows.  The planner reads a table of at least
that many rows through an access path, and a
:class:`~repro.engine.executor.MergeIntervalJoin` probes a cached side of
at least that many rows through its interval index.  Both read it at
call time, so a test can move the cut.

Two families live here:

* The **access paths of a cold scan**, built over a table snapshot and
  cached per table version (:meth:`~repro.engine.database.Table.interval_index`,
  :meth:`~repro.engine.database.Table.partition_index`) until the
  table's next write.  Both hand a scan's parent a *superset* of the
  rows its selection keeps — the selection still judges every
  candidate — so reading through them is lossless.  The one cold build
  reads them, behind ``Database.query`` and every subscribe, resume and
  fallback refresh.

  - :class:`IntervalIndex` — Section X future work, implemented.  The
    paper's outlook asks for "index access methods for ongoing time
    points (based on the approaches for indexing fixed time intervals)".
    The natural construction indexes the fixed **envelope** ``[a, d)``
    of each ongoing interval ``[a+b, c+d)``: every instantiation of the
    interval lies inside its envelope, so envelope retrieval is a
    lossless candidate filter for any temporal predicate — the exact
    reference times are then computed by the ongoing predicate on the
    (usually few) candidates.  It is a classical centered interval tree
    built from one sort by envelope start: ``O(n log n)`` build,
    ``O(log n + k)`` stabbing/range queries.  A node holds its envelopes
    as parallel lists of bounds and rows (≈ 50 B per envelope with the
    nodes), so a probe is one C-level bisection and slice per node on its
    path — 0.2 ms for D_sc's 50k rows and the last tenth of its history,
    about 15k hits, on a 2-vCPU x86 host.  For expanding intervals
    ``[a, now)`` the envelope is right-open (``d = +inf``), which the
    tree handles like any other interval (the domain limits are ordinary
    values).  The planner reads it for temporal selections over scans
    (:class:`~repro.engine.executor.IntervalScan`).
  - :func:`equality_buckets` — a fixed column's rows grouped by value,
    which an equality selection over a scan probes
    (a :class:`~repro.engine.executor.SeqScan` access path).

* The **incrementally maintained index** a merge join keeps each cached
  side in: :class:`IntervalProbeIndex` (with an :class:`OrderedIndex`
  overlay) *is* the side — its row → envelope map is the cache, so a
  row is held once — and a probe of a side of at least
  :data:`INDEX_THRESHOLD` rows walks its tree in ``O(log n + k)``
  instead of scanning the envelopes.  It lives inside
  ``OperatorState.extra`` and is dropped/rebuilt with the rest of the
  operator's state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter, neg
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.rational import OngoingRational
from repro.core.timeline import TimePoint
from repro.core.timepoint import OngoingTimePoint
from repro.errors import QueryError
from repro.relational.relation import OngoingRelation
from repro.relational.tuples import OngoingTuple

__all__ = [
    "INDEX_THRESHOLD",
    "IntervalIndex",
    "IntervalProbeIndex",
    "OrderedIndex",
    "equality_buckets",
]

#: Rows from which an index is read instead of a scan: below it a probe
#: is a linear scan (no tree walk, no post-filter), from it on the
#: ``O(log n + k)`` index.  EXPLAIN shows which side of it a plan fell
#: on (``IntervalScan`` / ``SeqScan … (col = v: n of N tuples)``, and
#: ``access=`` per probed join side).
INDEX_THRESHOLD = 32

Entry = Tuple[int, int, OngoingTuple]  # (envelope start, envelope end, tuple)

_START = itemgetter(0)
_END = itemgetter(1)


class _Node:
    """One node of the centered interval tree: the envelopes straddling
    its center as two pairs of parallel lists — ``starts`` / ``start_rows``
    in start order and ``ends`` / ``end_rows`` in descending end order
    (ties in start order).  Four list slots (32 B) per envelope; the
    bounds are the ints the time points already hold."""

    __slots__ = ("center", "starts", "start_rows", "ends", "end_rows", "left", "right")

    def __init__(self, center: TimePoint, here: List[Entry]):
        self.center = center
        self.starts = [entry[0] for entry in here]
        self.start_rows = [entry[2] for entry in here]
        here.sort(key=_END, reverse=True)  # stable: ties keep start order
        self.ends = [entry[1] for entry in here]
        self.end_rows = [entry[2] for entry in here]
        self.left = self.right = None


def _tree(entries: List[Entry]) -> Optional[_Node]:
    """The centered tree over *entries* — non-empty envelopes only (an
    empty one overlaps nothing) — from one sort by envelope start.  The
    build consumes the list and its tuples: none outlives it."""
    entries.sort(key=_START)
    return _build(entries)


def _build(entries: List[Entry]) -> Optional[_Node]:
    """Build over non-empty envelopes sorted by start, emptying *entries*.

    The center is the midpoint of the middle entry.  The entries right
    of it are the suffix starting after it (one bisection); the prefix
    splits into those ending at or before it and those straddling it.
    Every part keeps start order, so the straddling entries are the
    node's start order as they come and no level sorts by start again.
    Each level empties its list once split, so an entry tuple is freed
    as soon as its node is built.
    Termination: a non-empty envelope ``[s, e)`` holds its own midpoint
    ``s + (e-s)//2`` (``s <=`` it ``< e``), so the middle entry straddles
    the center and each side list is strictly shorter than ``entries``.
    """
    if not entries:
        return None
    start, end, _ = entries[len(entries) // 2]
    center = start + (end - start) // 2
    cut = bisect_right(entries, center, key=_START)
    to_right = entries[cut:]
    to_left = [entry for entry in islice(entries, cut) if entry[1] <= center]
    node = _Node(center, [entry for entry in islice(entries, cut) if entry[1] > center])
    entries.clear()
    node.left = _build(to_left)
    node.right = _build(to_right)
    return node


class IntervalIndex:
    """A centered interval tree over the envelopes of an interval attribute:
    about 50 B per envelope once built (the :class:`_Node` lists), and a
    probe is one bisection and one slice per node on its path."""

    def __init__(self, relation: OngoingRelation, attribute: str):
        position = relation.schema.index_of(attribute)
        if not relation.schema.attribute(attribute).kind.is_ongoing:
            raise QueryError(
                f"attribute {attribute!r} is fixed; index the ongoing "
                f"interval attribute instead"
            )
        entries: List[Entry] = []
        for item in relation:
            value = item._values[position]
            if not isinstance(value, OngoingInterval):
                raise QueryError(
                    f"attribute {attribute!r} holds {value!r}, expected an "
                    f"ongoing interval"
                )
            start, end = value._start._a, value._end._b  # the envelope
            if start < end:
                entries.append((start, end, item))
        self.attribute = attribute
        self.size = len(relation)
        self._root = _tree(entries)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def overlapping(self, start: TimePoint, end: TimePoint) -> List[OngoingTuple]:
        """Tuples whose envelope overlaps the fixed interval ``[start, end)``.

        A superset of the tuples satisfying any ongoing temporal predicate
        against ``[start, end)`` at any reference time; run the ongoing
        predicate on the result to obtain exact reference times.
        """
        if start >= end:
            return []
        result: List[OngoingTuple] = []
        _collect_entries(self._root, start, end, result)
        return result

    def stabbing(self, point: TimePoint) -> List[OngoingTuple]:
        """Tuples whose envelope contains *point*."""
        return self.overlapping(point, point + 1)


def equality_buckets(
    relation: OngoingRelation, attribute: str
) -> Optional[Dict[object, List[OngoingTuple]]]:
    """*relation*'s rows grouped by their value of a fixed *attribute*.

    A bucket keeps the relation's order.  Looking a constant up finds
    exactly the rows whose value ``==`` it: a ``dict`` matches by hash and
    equality, and equal values hash alike (``True`` and ``1`` share a
    bucket, as they compare equal).  Returns ``None`` when the attribute
    is ongoing or holds an ongoing value — an ongoing comparison, not
    ``==``, decides equality for those.
    """
    schema = relation.schema
    if schema.attribute(attribute).kind.is_ongoing:
        return None
    position = schema.index_of(attribute)
    buckets: Dict[object, List[OngoingTuple]] = {}
    for item in relation:
        value = item.values[position]
        if isinstance(value, ONGOING_VALUES):
            return None
        bucket = buckets.get(value)
        if bucket is None:
            buckets[value] = [item]
        else:
            bucket.append(item)
    return buckets


#: Values whose equality an ongoing comparison decides, not ``==``.
ONGOING_VALUES = (OngoingTimePoint, OngoingInt, OngoingRational)


# ----------------------------------------------------------------------
# Incrementally maintained secondary indexes (delta-probe acceleration)
# ----------------------------------------------------------------------


class OrderedIndex:
    """A bisect-maintained ordered index: sorted keys with parallel items.

    ``add``/``remove`` are ``O(n)`` worst case (list insertion) but the
    memmove is a single C-level shift — in practice far cheaper than the
    Python-level scan it replaces — and range reads are ``O(log n + k)``.
    """

    __slots__ = ("_keys", "_items")

    def __init__(self) -> None:
        self._keys: List[Any] = []
        self._items: List[Any] = []

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, key: Any, item: Any) -> None:
        position = bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._items.insert(position, item)

    def remove(self, key: Any, item: Any) -> None:
        lo = bisect_left(self._keys, key)
        hi = bisect_right(self._keys, key, lo=lo)
        for position in range(lo, hi):
            if self._items[position] == item:
                del self._keys[position]
                del self._items[position]
                return
        raise KeyError(f"({key!r}, {item!r}) not in index")

    def below(self, bound: Any) -> Sequence[Any]:
        """Items whose key is strictly smaller than *bound* (key order)."""
        return self._items[: bisect_left(self._keys, bound)]

    def between(self, low: Any, high: Any) -> Sequence[Any]:
        """Items with ``low <= key < high`` (key order)."""
        lo = bisect_left(self._keys, low)
        hi = bisect_left(self._keys, high, lo=lo)
        return self._items[lo:hi]

    def items(self) -> Iterator[Any]:
        return iter(self._items)


class IntervalProbeIndex:
    """An incrementally maintained envelope interval tree for delta probes.

    The centered tree of :class:`IntervalIndex` is static; delta
    maintenance needs ``add``/``remove``.  This index amortizes: a base
    tree (rebuilt rarely) plus a small ordered overlay of recent inserts
    and a tombstone set of recent removes.  Probes read the tree
    (``O(log n + k)``), post-filter tombstones, and scan the overlay via
    bisect; when overlay + tombstones outgrow a quarter of the base the
    whole structure rebuilds in ``O(n log n)`` — amortized ``O(log n)``
    per mutation.  Below :data:`INDEX_THRESHOLD` entries a probe is
    :meth:`scan`, a pass over the envelopes; above, :meth:`overlapping`.
    """

    REBUILD_FLOOR = 16

    __slots__ = ("_envelopes", "_root", "_overlay", "_overlay_items", "_removed")

    def __init__(self) -> None:
        #: Authoritative mapping item -> (envelope start, envelope end).
        self._envelopes: Dict[Any, Tuple[int, int]] = {}
        self._root: Optional[_Node] = None
        self._overlay = OrderedIndex()  # start -> (end, item)
        self._overlay_items: Dict[Any, None] = {}
        self._removed: Dict[Any, None] = {}

    def __len__(self) -> int:
        return len(self._envelopes)

    def __contains__(self, item: Any) -> bool:
        return item in self._envelopes

    def add(self, item: Any, start: int, end: int) -> None:
        if item in self._envelopes:
            raise KeyError(f"{item!r} already indexed")
        self._envelopes[item] = (start, end)
        if start >= end:
            return  # an empty envelope overlaps nothing: never probed for
        if item in self._removed:
            # Re-insert of a tombstoned base entry: the envelope derives
            # from the (immutable) item, so the base entry is valid again.
            del self._removed[item]
        else:
            self._overlay.add(start, (end, item))
            self._overlay_items[item] = None
        self._maybe_rebuild()

    def remove(self, item: Any) -> None:
        start, end = self._envelopes.pop(item)  # KeyError: not indexed
        if start >= end:
            return
        if item in self._overlay_items:
            del self._overlay_items[item]
            self._overlay.remove(start, (end, item))
        else:
            self._removed[item] = None
        self._maybe_rebuild()

    def overlapping(self, start: int, end: int) -> List[Any]:
        """Items whose envelope overlaps the half-open ``[start, end)``."""
        if start >= end:
            return []
        candidates: List[OngoingTuple] = []
        _collect_entries(self._root, start, end, candidates)
        if self._removed:
            result = [
                item for item in candidates if item not in self._removed
            ]
        else:
            result = candidates
        for entry_end, item in self._overlay.below(end):
            if entry_end > start:
                result.append(item)
        return result

    def scan(self, start: int, end: int) -> List[Any]:
        """The rows of :meth:`overlapping`, by one pass over the envelopes
        in insertion order — the probe below :data:`INDEX_THRESHOLD`."""
        if start >= end:
            return []
        return [
            item
            for item, (low, high) in self._envelopes.items()
            if low < end and start < high and low < high
        ]

    def _maybe_rebuild(self) -> None:
        pending = len(self._overlay) + len(self._removed)
        if pending <= max(self.REBUILD_FLOOR, len(self._envelopes) // 4):
            return
        self._root = _tree(
            [(s, e, item) for item, (s, e) in self._envelopes.items() if s < e]
        )
        self._overlay = OrderedIndex()
        self._overlay_items.clear()
        self._removed.clear()


def _collect_entries(
    node: Optional[_Node], start: int, end: int, result: List[Any]
) -> None:
    """Append the items of *node*'s tree whose envelope overlaps the
    non-empty ``[start, end)`` (the tree walk of both interval indexes)."""
    if node is None:
        return
    if end <= node.center:
        # Query lies left of center: among the straddling entries only
        # those starting before the query end can overlap.
        result.extend(node.start_rows[: bisect_left(node.starts, end)])
        _collect_entries(node.left, start, end, result)
    elif start > node.center:
        # Query lies right of center: need entries ending after start,
        # a prefix of the descending ends.
        result.extend(node.end_rows[: bisect_left(node.ends, -start, key=neg)])
        _collect_entries(node.right, start, end, result)
    else:
        # Query spans the center: every straddling entry overlaps.
        result.extend(node.start_rows)
        _collect_entries(node.left, start, end, result)
        _collect_entries(node.right, start, end, result)
