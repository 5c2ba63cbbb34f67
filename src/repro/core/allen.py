"""Predicates and functions on ongoing time intervals (Table II of the paper).

Every predicate is expressed through the six core operations, following the
equivalences of Table II.  Two points deserve emphasis:

* **Per-reference-time non-emptiness.**  Ongoing intervals can be partially
  empty, so each predicate conjoins the explicit non-emptiness checks
  ``ts < te`` and ``t̃s < t̃e``.  It is *not* sufficient to check emptiness
  once: the check must hold at each reference time (Example 2).
* **Empty-interval conventions.**  ``during`` counts an empty interval as
  being during any non-empty interval, and ``equals`` counts two empty
  intervals as equal — exactly the disjuncts Table II carries.

Beyond Table II, this module also provides the symmetric/inverse Allen
relations (``after``, ``met_by``, ``overlapped_by``, ``started_by``,
``finished_by``, ``contains``) and the point-in-interval test.  They are the
natural completions of the paper's predicate set and are used by the SQL-ish
front end.
"""

from __future__ import annotations

from repro.core.boolean import O_FALSE, O_TRUE, OngoingBoolean
from repro.core.interval import OngoingInterval
from repro.core.intervalset import IntervalSet
from repro.core.operations import (
    equal,
    less_equal,
    less_than,
    ongoing_max,
    ongoing_min,
)
from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.core.timepoint import NOW, OngoingTimePoint

__all__ = [
    "before",
    "meets",
    "overlaps",
    "starts",
    "finishes",
    "during",
    "interval_equals",
    "intersect",
    "after",
    "met_by",
    "overlapped_by",
    "started_by",
    "finished_by",
    "contains",
    "contains_point",
    "interval_value_equals",
    "COMPOSED_REFERENCE",
]


def _non_empty(i: OngoingInterval) -> OngoingBoolean:
    """The ongoing boolean ``ts < te`` — true where *i* is non-empty."""
    return less_than(i.start, i.end)


# ----------------------------------------------------------------------
# Optimized evaluation (Section VIII: "we developed new algorithms ...
# the less-than predicate minimizes the number of value comparisons").
#
# The true-set of any ``a+b < c+d`` is the complement of a single fixed
# interval — its *gap*:
#
#   case 1 (always true)   gap = None
#   case 2 ((-inf, c))     gap = [c, inf)
#   case 3 ([b+1, inf))    gap = (-inf, b+1)
#   case 4 (two pieces)    gap = [c, b+1)
#   case 5 (always false)  gap = (-inf, inf)
#
# Dually, the true-set of ``t1 <= t2`` (= not(t2 < t1)) is a single fixed
# interval — the gap of ``t2 < t1``.  A conjunction of such predicates is
# therefore "one include-interval intersection minus a union of at most a
# handful of gaps", computable with a few comparisons and exactly one
# result allocation.  This is the fast path behind the public predicates;
# COMPOSED_REFERENCE keeps the definitional compositions for
# cross-validation (the test suite asserts both agree everywhere).
# ----------------------------------------------------------------------

_FULL_GAP = (MINUS_INF, PLUS_INF)


def _lt_gap(t1: OngoingTimePoint, t2: OngoingTimePoint):
    """The gap of ``t1 < t2``: ``St = T \\ [gap)``; ``None`` = no gap."""
    a, b = t1.components()
    c, d = t2.components()
    if b < d:
        if b < c:
            return None
        if a < c:
            return (c, b + 1)
        return (MINUS_INF, b + 1)
    if a < c:
        return (c, PLUS_INF)
    return _FULL_GAP


def _combine(includes, gaps) -> OngoingBoolean:
    """Intersect include-intervals, subtract gap-intervals, wrap the result.

    *includes* — fixed intervals whose intersection bounds the true-set
    (from ``<=``/``=`` conjuncts); *gaps* — fixed intervals excluded from
    it (from ``<`` conjuncts).  Both lists are tiny (at most 4 entries).
    """
    lo, hi = MINUS_INF, PLUS_INF
    for include_lo, include_hi in includes:
        if include_lo > lo:
            lo = include_lo
        if include_hi < hi:
            hi = include_hi
    if lo >= hi:
        return O_FALSE
    relevant = []
    for gap in gaps:
        if gap is None:
            continue
        gap_lo, gap_hi = gap
        if gap_lo < lo:
            gap_lo = lo
        if gap_hi > hi:
            gap_hi = hi
        if gap_lo < gap_hi:
            relevant.append((gap_lo, gap_hi))
    if not relevant:
        if lo == MINUS_INF and hi == PLUS_INF:
            return O_TRUE
        return OngoingBoolean(IntervalSet._from_normalized([(lo, hi)]))
    relevant.sort()
    pieces = []
    cursor = lo
    for gap_lo, gap_hi in relevant:
        if cursor < gap_lo:
            pieces.append((cursor, gap_lo))
        if gap_hi > cursor:
            cursor = gap_hi
    if cursor < hi:
        pieces.append((cursor, hi))
    if not pieces:
        return O_FALSE
    return OngoingBoolean(IntervalSet._from_normalized(pieces))


def before(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i before j  ==  te <= t̃s  and  ts < te  and  t̃s < t̃e``."""
    include = _lt_gap(j.start, i.end)  # St(te <= t̃s) is this single interval
    if include is None:
        return O_FALSE
    return _combine(
        (include,), (_lt_gap(i.start, i.end), _lt_gap(j.start, j.end))
    )


def meets(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i meets j  ==  te = t̃s  and  ts < te  and  t̃s < t̃e``."""
    le_gap = _lt_gap(j.start, i.end)   # St(te <= t̃s)
    ge_gap = _lt_gap(i.end, j.start)   # St(t̃s <= te)
    if le_gap is None or ge_gap is None:
        return O_FALSE
    return _combine(
        (le_gap, ge_gap), (_lt_gap(i.start, i.end), _lt_gap(j.start, j.end))
    )


def overlaps(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i overlaps j  ==  ts < t̃e  and  t̃s < te  and both non-empty``.

    This is the *symmetric* overlap of the paper's evaluation (the usual
    overlap check plus the per-reference-time non-emptiness checks), not
    Allen's strict ``overlaps``.  Four fixed endpoints decide it by four
    fixed comparisons, the same at every reference time, and a fixed
    period against ``[a, now)`` by two more.
    """
    i_start, i_end, j_start, j_end = i._start, i._end, j._start, j._end
    if i_start._a == i_start._b and j_start._a == j_start._b:
        if j_end is NOW:  # overlaps is symmetric: [a, now) goes on the left
            i_start, i_end, j_start, j_end = j_start, j_end, i_start, i_end
        if i_end._a == i_end._b and j_end._a == j_end._b:
            ts, te, js, je = i_start._a, i_end._a, j_start._a, j_end._a
            overlap = ts < je and js < te and ts < te and js < je
            return O_TRUE if overlap else O_FALSE
        if i_end is NOW and j_end._a == j_end._b:
            # [a, now) against [s, e): true once both have started, for
            # ever, if a < e and s < e — what _combine builds, without gaps.
            a, s, e = i_start._a, j_start._a, j_end._a
            if a < e and s < e:
                return OngoingBoolean(
                    IntervalSet._from_normalized([(max(a, s) + 1, PLUS_INF)])
                )
            return O_FALSE
    return _combine(
        (),
        (
            _lt_gap(i.start, j.end),
            _lt_gap(j.start, i.end),
            _lt_gap(i.start, i.end),
            _lt_gap(j.start, j.end),
        ),
    )


def starts(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i starts j  ==  ts = t̃s  and  ts < te  and  t̃s < t̃e``."""
    le_gap = _lt_gap(j.start, i.start)
    ge_gap = _lt_gap(i.start, j.start)
    if le_gap is None or ge_gap is None:
        return O_FALSE
    return _combine(
        (le_gap, ge_gap), (_lt_gap(i.start, i.end), _lt_gap(j.start, j.end))
    )


def finishes(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i finishes j  ==  te = t̃e  and  ts < te  and  t̃s < t̃e``."""
    le_gap = _lt_gap(j.end, i.end)
    ge_gap = _lt_gap(i.end, j.end)
    if le_gap is None or ge_gap is None:
        return O_FALSE
    return _combine(
        (le_gap, ge_gap), (_lt_gap(i.start, i.end), _lt_gap(j.start, j.end))
    )


def during(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i during j`` per Table II.

    ``(t̃s <= ts and te <= t̃e and both non-empty)
    or (te <= ts and t̃s < t̃e)`` — the second disjunct makes an empty
    interval count as during any non-empty interval.
    """
    contained = (
        less_equal(j.start, i.start)
        .conjunction(less_equal(i.end, j.end))
        .conjunction(_non_empty(i))
        .conjunction(_non_empty(j))
    )
    empty_in_non_empty = less_equal(i.end, i.start).conjunction(_non_empty(j))
    return contained.disjunction(empty_in_non_empty)


def interval_equals(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i equals j`` per Table II.

    ``(ts = t̃s and te = t̃e and both non-empty)
    or (te <= ts and t̃e <= t̃s)`` — two empty intervals are equal.
    """
    same = (
        equal(i.start, j.start)
        .conjunction(equal(i.end, j.end))
        .conjunction(_non_empty(i))
        .conjunction(_non_empty(j))
    )
    both_empty = less_equal(i.end, i.start).conjunction(less_equal(j.end, j.start))
    return same.disjunction(both_empty)


def intersect(i: OngoingInterval, j: OngoingInterval) -> OngoingInterval:
    """``i ∩ j  ==  [max(ts, t̃s), min(te, t̃e))`` (Table II).

    The result is again an ongoing interval of Ω × Ω: intersection never
    forces an instantiation — the property Torp's ``Tf`` has for ∩/− but
    loses for predicates, and that Anselma's domain only has for special
    cases.
    """
    return OngoingInterval(
        ongoing_max(i.start, j.start), ongoing_min(i.end, j.end)
    )


# ----------------------------------------------------------------------
# Inverse relations — completions of Table II used by the query front end.
# ----------------------------------------------------------------------


def after(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i after j  ==  j before i``."""
    return before(j, i)


def met_by(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i met_by j  ==  j meets i``."""
    return meets(j, i)


def overlapped_by(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i overlapped_by j  ==  j overlaps i`` (overlaps is symmetric)."""
    return overlaps(j, i)


def started_by(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i started_by j  ==  j starts i``."""
    return starts(j, i)


def finished_by(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i finished_by j  ==  j finishes i``."""
    return finishes(j, i)


def contains(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """``i contains j  ==  j during i``."""
    return during(j, i)


def contains_point(i: OngoingInterval, p: OngoingTimePoint) -> OngoingBoolean:
    """``p in [ts, te)  ==  ts <= p and p < te``.

    Emptiness needs no separate check: an empty interval can satisfy
    ``ts <= p < te`` at no reference time.
    """
    return less_equal(i.start, p).conjunction(less_than(p, i.end))


def interval_value_equals(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    """Raw endpoint-wise equality ``ts = t̃s and te = t̃e``.

    This is *instantiated-value* equality — the notion the difference
    operator of Theorem 2 needs (``‖r.A‖rt = ‖s.A‖rt``) — and deliberately
    differs from :func:`interval_equals`, which applies the Table II
    empty-interval conventions.
    """
    return equal(i.start, j.start).conjunction(equal(i.end, j.end))


# ----------------------------------------------------------------------
# Definitional (composed) reference implementations.
#
# These spell the Table II equivalences literally through the six core
# operations.  The optimized public predicates above must agree with them
# at every input — a property the test suite checks exhaustively and with
# hypothesis — and the ablation benchmark measures the speedup the paper's
# comparison-minimizing implementation buys.
# ----------------------------------------------------------------------


def _before_composed(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    return (
        less_equal(i.end, j.start)
        .conjunction(_non_empty(i))
        .conjunction(_non_empty(j))
    )


def _meets_composed(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    return (
        equal(i.end, j.start)
        .conjunction(_non_empty(i))
        .conjunction(_non_empty(j))
    )


def _overlaps_composed(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    return (
        less_than(i.start, j.end)
        .conjunction(less_than(j.start, i.end))
        .conjunction(_non_empty(i))
        .conjunction(_non_empty(j))
    )


def _starts_composed(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    return (
        equal(i.start, j.start)
        .conjunction(_non_empty(i))
        .conjunction(_non_empty(j))
    )


def _finishes_composed(i: OngoingInterval, j: OngoingInterval) -> OngoingBoolean:
    return (
        equal(i.end, j.end)
        .conjunction(_non_empty(i))
        .conjunction(_non_empty(j))
    )


#: predicate name -> definitional implementation (for tests and ablations).
COMPOSED_REFERENCE = {
    "before": _before_composed,
    "meets": _meets_composed,
    "overlaps": _overlaps_composed,
    "starts": _starts_composed,
    "finishes": _finishes_composed,
    "during": during,
    "interval_equals": interval_equals,
}
