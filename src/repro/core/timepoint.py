"""Ongoing time points — the time domain Ω (Section V-A of the paper).

An ongoing time point ``a+b`` (Definition 1) means *not earlier than a, but
not later than b*.  Its value at reference time ``rt`` (Definition 2) is::

            a    if rt <= a
    ‖a+b‖rt = rt   if a < rt < b
            b    otherwise

The four kinds of time points of Fig. 3 are all special cases:

* fixed time point ``a``       = ``a+a``
* current time point ``now``   = ``-inf+inf``
* growing time point ``a+``    = ``a+inf``
* limited time point ``+b``    = ``-inf+b``

Ω is closed under ``min`` and ``max`` (Theorem 1) — in contrast to the
previously proposed domains ``T ∪ {now}`` (Clifford) and ``Tf`` (Torp),
which is what Table I of the paper summarizes and what
``repro.bench.experiments.table01_domains`` verifies mechanically.

Points are interned: a table holds one object per value, so
``OngoingTimePoint(a, b)`` — and with it ``fixed`` / ``growing`` /
``limited``, the interval constructors and every WAL and heap decode —
returns the object it returned before for equal ``int`` components.  A
relation of thousands of rows holds a few thousand distinct points (the
paper stores each inline as two 4-byte dates; an object costs 48 B plus
its ints).  Equality and hashing stay by value: identity saves memory
and time, it never decides a result.  The table holds at most
:data:`INTERN_LIMIT` points and is emptied when full, except for
:data:`NOW`.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import TimeDomainError
from repro.core.timeline import (
    MINUS_INF,
    PLUS_INF,
    TimePoint,
    check_time_point,
    fmt_point,
)

__all__ = ["OngoingTimePoint", "NOW", "fixed", "growing", "limited"]

#: Most points the intern table holds; a miss on a full table empties it.
#: Day-granular data stays far below: a ``cold_paper`` set-up (seed 1)
#: creates 6 478 distinct points at 5k bugs, 7 291 at 20k and 7 302 at
#: 80k — the 7 300 days of ``datasets.mozilla.HISTORY_DAYS`` as fixed
#: points, plus a few hundred others.
INTERN_LIMIT = 1 << 16

# (a, b) -> the one point of that value.  Only exact-int components of
# the exact class get in, so a hit never lets a bool or a subclass by.
_INTERNED: dict = {}

#: ``interned((a, b))``: the point of value ``a+b`` if the table holds
#: one, else ``None``.  Only for callers whose components are exact ints
#: by construction — the storage decoder, where skipping the
#: constructor's call and checks halves the cost of a decoded point.
interned = _INTERNED.get


class OngoingTimePoint:
    """An element ``a+b`` of the ongoing time domain Ω (immutable).

    ``a`` is the earliest and ``b`` the latest value the point can take;
    Definition 1 requires ``a <= b``.  Equality, hashing, and ``repr`` treat
    instances as values.  The *order* operators (``<`` etc.) are deliberately
    **not** defined on this class: comparing ongoing time points yields an
    ongoing boolean, not a Python ``bool`` — use
    :func:`repro.core.operations.less_than` and friends.
    """

    __slots__ = ("_a", "_b")

    def __new__(cls, *components: TimePoint) -> "OngoingTimePoint":
        """The point ``a+b``: the interned object for exact-``int``
        components of this exact class, a new checked one otherwise."""
        if len(components) == 2 and cls is OngoingTimePoint:
            a, b = components
            if type(a) is int and type(b) is int:
                point = _INTERNED.get(components)
                if point is not None:
                    return point
                return _intern(components, _make(cls, a, b))
        return _make(cls, *components)

    def __reduce__(self):
        return (type(self), (self._a, self._b))

    # ------------------------------------------------------------------
    # Components and classification (Fig. 3)
    # ------------------------------------------------------------------

    @property
    def a(self) -> TimePoint:
        """The earliest value the point can instantiate to."""
        return self._a

    @property
    def b(self) -> TimePoint:
        """The latest value the point can instantiate to."""
        return self._b

    @property
    def is_fixed(self) -> bool:
        """``True`` iff the point instantiates to the same value at all rt."""
        return self._a == self._b

    @property
    def is_now(self) -> bool:
        """``True`` iff the point is ``now = -inf+inf``."""
        return self._a == MINUS_INF and self._b == PLUS_INF

    @property
    def is_growing(self) -> bool:
        """``True`` iff the point is a growing point ``a+`` (b = inf, a finite)."""
        return self._b == PLUS_INF and self._a > MINUS_INF

    @property
    def is_limited(self) -> bool:
        """``True`` iff the point is a limited point ``+b`` (a = -inf, b finite)."""
        return self._a == MINUS_INF and self._b < PLUS_INF

    @property
    def kind(self) -> str:
        """One of ``"fixed"``, ``"now"``, ``"growing"``, ``"limited"``,
        ``"general"`` — the taxonomy of Fig. 3 plus the general case."""
        if self.is_fixed:
            return "fixed"
        if self.is_now:
            return "now"
        if self.is_growing:
            return "growing"
        if self.is_limited:
            return "limited"
        return "general"

    # ------------------------------------------------------------------
    # The bind operator (Definition 2)
    # ------------------------------------------------------------------

    def instantiate(self, rt: TimePoint) -> TimePoint:
        """``‖a+b‖rt`` — the fixed value of the point at reference time rt."""
        if rt <= self._a:
            return self._a
        if rt < self._b:
            return rt
        return self._b

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def components(self) -> Tuple[TimePoint, TimePoint]:
        """The pair ``(a, b)``."""
        return (self._a, self._b)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, OngoingTimePoint):
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    def __repr__(self) -> str:
        return f"OngoingTimePoint({self._a}, {self._b})"

    def format(self) -> str:
        """Paper-style short rendering: ``a``, ``now``, ``a+``, ``+b``, ``a+b``."""
        if self.is_fixed:
            return fmt_point(self._a)
        if self.is_now:
            return "now"
        if self.is_growing:
            return f"{fmt_point(self._a)}+"
        if self.is_limited:
            return f"+{fmt_point(self._b)}"
        return f"{fmt_point(self._a)}+{fmt_point(self._b)}"

    def __str__(self) -> str:
        return self.format()


def fixed(point: TimePoint) -> OngoingTimePoint:
    """The fixed time point ``a = a+a`` embedded into Ω."""
    return OngoingTimePoint(point, point)


def growing(point: TimePoint) -> OngoingTimePoint:
    """The growing time point ``a+ = a+inf`` (not earlier than a, possibly later)."""
    return OngoingTimePoint(point, PLUS_INF)


def limited(point: TimePoint) -> OngoingTimePoint:
    """The limited time point ``+b = -inf+b`` (possibly earlier, not later than b)."""
    return OngoingTimePoint(MINUS_INF, point)


def _check(a: object, b: object) -> None:
    """Definition 1: two time points with ``a <= b``."""
    check_time_point(a, what="ongoing point component a")
    check_time_point(b, what="ongoing point component b")
    if a > b:
        raise TimeDomainError(
            f"ongoing time point requires a <= b, got a={a}, b={b}"
        )


def _make(cls: type, a: TimePoint, b: TimePoint) -> OngoingTimePoint:
    """A new, checked point of class *cls*; interning it is the caller's."""
    _check(a, b)
    point = object.__new__(cls)
    point._a = a
    point._b = b
    return point


def _intern(key: Tuple[int, int], point: OngoingTimePoint) -> OngoingTimePoint:
    """Make *point* the object of its value, unless another thread got
    there first: the object that is in the table is returned.  A full
    table is emptied first, keeping ``NOW`` as the ``now`` entry.

    No lock: every step is one dict operation, so a race between threads
    costs at most one duplicate object — each holds the value asked for,
    and a ``now`` that slipped in between the emptying and the re-entry
    of ``NOW`` is overwritten by it."""
    if len(_INTERNED) >= INTERN_LIMIT:
        _INTERNED.clear()
        _INTERNED[MINUS_INF, PLUS_INF] = NOW
    return _INTERNED.setdefault(key, point)


#: The current time point ``now = -inf+inf`` — instantiates to rt at every rt.
NOW = OngoingTimePoint(MINUS_INF, PLUS_INF)
