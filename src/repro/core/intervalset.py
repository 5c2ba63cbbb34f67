"""Sets of fixed time intervals — the representation behind ``RT`` and ``St``.

The paper represents both a tuple's reference time ``RT`` and the true-set
``St`` of an ongoing boolean as a list of fixed time intervals that are

* **maximal** — adjacent or overlapping intervals are merged,
* **non-overlapping**, and
* **sorted in ascending order** (Section VIII, "Ongoing Booleans").

These three properties let the logical connectives run as a single sweep
over both inputs (Algorithm 1 of the paper): no sorting is needed, every
input interval is inspected at most once, and the result is produced already
normalized.

:class:`IntervalSet` is an immutable value type.  All intervals are half-open
``[start, end)`` over the discrete domain ``T``; the paper's notation
``(-inf, b)`` corresponds to ``[MINUS_INF, b)`` because ``-inf`` is the
smallest element of ``T``.  Reference times range over
``MINUS_INF <= rt < PLUS_INF``; the upper limit itself is not a reference
time (no half-open interval can contain it), which mirrors the paper's use
of ``inf`` strictly as an exclusive end point.

Sets are interned, as the points of Ω are (:mod:`repro.core.timepoint`):
a table holds one object per value, so the constructor, every sweep
connective, ``at_least`` / ``below`` / ``point``, and the storage
decoders return the object they returned before for an equal set.  A
predicate gives the same true-set to every tuple on the same side of its
critical points, so a result of thousands of rows holds a few hundred
RT objects, not one per row: at 5 000 bugs the cold Qσ_ovlp result of
the ``cold_paper`` ledger workload (seed 1) holds 342 for 14 618 rows.
Equality and hashing stay by value: identity saves memory and time, it
never decides a result.  The table holds at most ``_INTERN_LIMIT`` =
2¹⁴ sets and is emptied when full, except for :data:`EMPTY_SET` and
:data:`UNIVERSAL_SET`.  At ≈ 270 B per one-interval set with its table
entry, a full table retains ≈ 4.4 MB; ``cold_paper`` ends with 1 550
sets at 5k bugs and 4 078 at 20k.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Tuple

from repro.errors import IntervalError
from repro.core.timeline import (
    MINUS_INF,
    PLUS_INF,
    TimePoint,
    check_time_point,
    fmt_interval,
)

__all__ = ["IntervalSet", "EMPTY_SET", "UNIVERSAL_SET"]

Pair = Tuple[TimePoint, TimePoint]

# Most sets the intern table holds; a miss on a full table empties it.
# Four times what ``cold_paper`` ends with at 20k bugs (see above).
_INTERN_LIMIT = 1 << 14

# normalized pairs -> the one set of that value.
_INTERNED: dict = {}


class IntervalSet:
    """An immutable, normalized set of fixed half-open time intervals.

    Instances behave like sets of reference times: ``rt in s`` tests
    membership, ``&``, ``|``, ``-`` and ``~`` are intersection, union,
    difference, and complement.  The class maintains the representation
    invariant (maximal, non-overlapping, ascending) under every operation.
    """

    __slots__ = ("_intervals", "_starts")

    def __new__(cls, intervals: Iterable[Pair] = ()) -> "IntervalSet":
        """The set of any iterable of ``(start, end)`` pairs — the shared
        object of its value.

        The pairs may overlap, touch, or arrive unsorted — they are
        normalized here.  Empty pairs (``start >= end``) are rejected rather
        than silently dropped: an empty interval inside an RT list is a sign
        of a bug upstream.
        """
        pairs = []
        for start, end in intervals:
            check_time_point(start, what="interval start")
            check_time_point(end, what="interval end")
            if start >= end:
                raise IntervalError(
                    f"fixed interval [{start}, {end}) is empty or inverted"
                )
            pairs.append((start, end))
        pairs.sort()
        merged: list[Pair] = []
        for start, end in pairs:
            if merged and start <= merged[-1][1]:
                last_start, last_end = merged[-1]
                if end > last_end:
                    merged[-1] = (last_start, end)
            else:
                merged.append((start, end))
        return cls._from_normalized(merged)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which returns
        # the shared object; the default slots protocol would fill the
        # slots of the argument-less constructor's EMPTY_SET instead.
        return (IntervalSet, (self._intervals,))

    def __setstate__(self, state) -> None:
        # Only a pickle of the default slots form (written before sets
        # were shared) calls this, on the EMPTY_SET its argument-less
        # __new__ returned: refuse it rather than overwrite the singleton.
        raise TypeError(
            "an IntervalSet pickled in the slots form cannot be loaded: "
            "its set would overwrite the shared EMPTY_SET"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_normalized(cls, pairs: Iterable[Pair]) -> "IntervalSet":
        """The shared set of *pairs*, which the caller guarantees are
        normalized: a sweep connective by construction, a decoder by its
        own check.  Nothing here checks them."""
        key = tuple(pairs)
        found = _INTERNED.get(key)
        if found is not None:
            return found
        instance = object.__new__(cls)
        instance._intervals = key
        # Parallel tuple of start points for binary-search membership tests.
        instance._starts = tuple(p[0] for p in key)
        if len(_INTERNED) >= _INTERN_LIMIT:
            _INTERNED.clear()
            _INTERNED[()] = _EMPTY
            _INTERNED[_UNIVERSAL_PAIRS] = _UNIVERSAL
        # setdefault: a thread that got there first keeps its object.
        return _INTERNED.setdefault(key, instance)

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set of reference times ``{}``."""
        return _EMPTY

    @classmethod
    def universal(cls) -> "IntervalSet":
        """All reference times ``{(-inf, inf)}`` — the trivial RT."""
        return _UNIVERSAL

    @classmethod
    def point(cls, rt: TimePoint) -> "IntervalSet":
        """The singleton set ``{[rt, rt + 1)}``."""
        check_time_point(rt, what="reference time")
        if rt >= PLUS_INF:
            raise IntervalError("PLUS_INF is not a valid reference time")
        return cls._from_normalized([(rt, rt + 1)])

    @classmethod
    def at_least(cls, rt: TimePoint) -> "IntervalSet":
        """All reference times ``>= rt``, i.e. ``{[rt, inf)}``."""
        check_time_point(rt, what="reference time")
        if rt >= PLUS_INF:
            return _EMPTY
        return cls._from_normalized([(rt, PLUS_INF)])

    @classmethod
    def below(cls, rt: TimePoint) -> "IntervalSet":
        """All reference times ``< rt``, i.e. ``{(-inf, rt)}``."""
        check_time_point(rt, what="reference time")
        if rt <= MINUS_INF:
            return _EMPTY
        return cls._from_normalized([(MINUS_INF, rt)])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def intervals(self) -> Tuple[Pair, ...]:
        """The normalized ``(start, end)`` pairs, ascending."""
        return self._intervals

    @property
    def cardinality(self) -> int:
        """Number of fixed intervals needed to represent the set.

        This is the quantity Table IV of the paper reports per predicate
        (and the driver of the RT storage size in Table V).
        """
        return len(self._intervals)

    def is_empty(self) -> bool:
        """``True`` iff no reference time belongs to the set."""
        return not self._intervals

    def is_universal(self) -> bool:
        """``True`` iff every reference time belongs to the set."""
        return self._intervals == ((MINUS_INF, PLUS_INF),)

    def __contains__(self, rt: TimePoint) -> bool:
        """Membership test via binary search (O(log n))."""
        index = bisect_right(self._starts, rt) - 1
        if index < 0:
            return False
        start, end = self._intervals[index]
        return start <= rt < end

    def earliest(self) -> TimePoint:
        """Smallest reference time in the set (requires non-empty)."""
        if not self._intervals:
            raise IntervalError("empty interval set has no earliest point")
        return self._intervals[0][0]

    def latest_end(self) -> TimePoint:
        """Exclusive upper end of the set (requires non-empty)."""
        if not self._intervals:
            raise IntervalError("empty interval set has no latest end")
        return self._intervals[-1][1]

    # ------------------------------------------------------------------
    # The sweep-line connectives (Algorithm 1 and its duals)
    # ------------------------------------------------------------------

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection — Algorithm 1 of the paper (conjunction).

        Both inputs are normalized, so a single simultaneous sweep suffices:
        each input interval is visited at most once and the output is
        produced sorted and non-overlapping with no extra passes.
        """
        left = self._intervals
        right = other._intervals
        # Fast paths: empty/universal operands dominate in practice (base
        # tuples carry the trivial RT) and need no sweep.
        if not left or not right:
            return _EMPTY
        if left == _UNIVERSAL_PAIRS:
            return other
        if right == _UNIVERSAL_PAIRS:
            return self
        result: list[Pair] = []
        i, j = 0, 0
        while i < len(left) and j < len(right):
            left_start, left_end = left[i]
            right_start, right_end = right[j]
            if left_end <= right_start:
                i += 1
            elif right_end <= left_start:
                j += 1
            else:
                start = left_start if left_start > right_start else right_start
                end = left_end if left_end < right_end else right_end
                result.append((start, end))
                if left_end < right_end:
                    i += 1
                else:
                    j += 1
        return IntervalSet._from_normalized(result)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union by a merging sweep over both normalized inputs."""
        left = self._intervals
        right = other._intervals
        if not left:
            return other
        if not right:
            return self
        if left == _UNIVERSAL_PAIRS or right == _UNIVERSAL_PAIRS:
            return _UNIVERSAL
        result: list[Pair] = []
        i, j = 0, 0
        while i < len(left) or j < len(right):
            if j >= len(right) or (i < len(left) and left[i][0] <= right[j][0]):
                start, end = left[i]
                i += 1
            else:
                start, end = right[j]
                j += 1
            if result and start <= result[-1][1]:
                last_start, last_end = result[-1]
                if end > last_end:
                    result[-1] = (last_start, end)
            else:
                result.append((start, end))
        return IntervalSet._from_normalized(result)

    def complement(self) -> "IntervalSet":
        """Set complement with respect to all reference times.

        This realizes the paper's negation ``¬ b[St, Sf] == b[Sf, St]``:
        the complement of ``St`` is exactly ``Sf``.
        """
        result: list[Pair] = []
        cursor = MINUS_INF
        for start, end in self._intervals:
            if cursor < start:
                result.append((cursor, start))
            cursor = end
        if cursor < PLUS_INF:
            result.append((cursor, PLUS_INF))
        return IntervalSet._from_normalized(result)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self - other``."""
        return self.intersection(other.complement())

    def overlaps(self, other: "IntervalSet") -> bool:
        """``True`` iff the two sets share at least one reference time.

        Cheaper than materializing the intersection when only emptiness
        matters.
        """
        left = self._intervals
        right = other._intervals
        i, j = 0, 0
        while i < len(left) and j < len(right):
            if left[i][1] <= right[j][0]:
                i += 1
            elif right[j][1] <= left[i][0]:
                j += 1
            else:
                return True
        return False

    # Operator sugar -----------------------------------------------------

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    def __invert__(self) -> "IntervalSet":
        return self.complement()

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __repr__(self) -> str:
        return f"IntervalSet({list(self._intervals)!r})"

    def format(self) -> str:
        """Render the set the way the paper does, e.g. ``{[01/26, 08/16)}``."""
        if not self._intervals:
            return "{}"
        body = ", ".join(fmt_interval(start, end) for start, end in self._intervals)
        return "{" + body + "}"


_EMPTY = IntervalSet._from_normalized([])
_UNIVERSAL = IntervalSet._from_normalized([(MINUS_INF, PLUS_INF)])
_UNIVERSAL_PAIRS = ((MINUS_INF, PLUS_INF),)

#: The empty set of reference times.
EMPTY_SET = _EMPTY

#: All reference times ``{(-inf, inf)}`` — the trivial reference time.
UNIVERSAL_SET = _UNIVERSAL
