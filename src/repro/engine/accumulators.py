"""Per-group accumulators of the physical aggregate (engine-private).

The paper's outlook (Sec. X; extended version arXiv:2001.05722) asks for
aggregates whose values are ongoing integers — functions of the
reference time assembled from the members' RT boundaries.  Such a value
is a **sum of piecewise-linear functions**, one per member, and a sum is
invertible: a member adds, and later retracts, exactly its own boundary
events.  So a group does not have to remember its members; it keeps

* ``members`` — how many tuples it holds;
* ``coverage`` — one event map over the members' RT intervals.  Walked,
  it is ``COUNT(*)`` (and AVG's denominator), and the group's RT is
  where that count is positive;
* per ``SUM_DURATION`` / ``AVG`` spec one more event map — the member's
  ``duration(value)`` masked by its RT, resp. ``value`` over its RT
  intervals (AVG's numerator);
* per ``MIN`` / ``MAX`` spec a counted ``(value, rt)`` multiset: an
  extremum cannot be retracted from, so those two keep what the sweep
  needs and stay O(|group|) in state and per touched group.

An **event map** is ``boundary → [Δintercept, Δslope]``: the change of
the running affine form ``intercept + slope·rt`` at that reference
time.  An event that returns to zero is deleted, so a group over base
tuples (trivial RT) holds the two boundaries ``-inf`` / ``+inf`` however
many members it has.  :func:`walk` turns a map into the
:class:`~repro.core.integer.OngoingInt` it sums to — starting at
``-inf`` with the zero form, because a pruned map need not have an
event there.

Folding costs O(segments of the row); building the output row costs
O(pieces of the group's value · log) — neither depends on |group|.
Nothing here validates membership: what the children emit is set-level
by construction (see :class:`~repro.engine.executor.AggregateOp`), and
the O(1) conservation checks below turn the inconsistencies that *can*
be seen into :class:`~repro.engine.delta.NonIncrementalDelta`.

The aggregates themselves are named here too: which argument each takes
(:func:`validate_aggregate`, run when a plan is built) and what a scalar
aggregate over zero members yields (:func:`scalar_empty_row`).  What
each aggregate *means* at a reference time is stated once, outside the
engine: :func:`repro.baselines.clifford.evaluate_pointwise`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.duration import duration
from repro.core.integer import OngoingInt, Segment
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF, TimePoint
from repro.engine.delta import NonIncrementalDelta
from repro.errors import PredicateError
from repro.relational.schema import AttributeKind, Schema
from repro.relational.tuples import OngoingTuple

#: ``boundary → [Δintercept, Δslope]``.
EventMap = Dict[TimePoint, List[int]]

#: One spec as the accumulators read it: ``(aggregate, argument position)``.
SpecPlan = Tuple[str, Optional[int]]

#: Aggregate name → its argument: none (COUNT), an ongoing interval
#: attribute, or a fixed numeric one.
_ARGUMENTS = {
    "count": "ignored",
    "sum_duration": "interval",
    "min": "numeric",
    "max": "numeric",
    "avg": "numeric",
}

#: MIN / MAX over the members present at rt; 0 where there is none
#: (outside the group's RT by construction).
_EXTREMA = {"min": min, "max": max}


def known_aggregates() -> Tuple[str, ...]:
    """The recognized aggregate names, sorted."""
    return tuple(sorted(_ARGUMENTS))


def validate_aggregate(
    schema: Schema, aggregate: str, attr: Optional[str]
) -> None:
    """Reject an unknown aggregate or an ill-typed argument before any
    work — so an aggregate over an empty input still surfaces it, and a
    bad plan fails when it is built."""
    argument = _ARGUMENTS.get(aggregate)
    if argument is None:
        raise PredicateError(
            f"unknown aggregate {aggregate!r}; known: {sorted(_ARGUMENTS)}"
        )
    if argument == "ignored":
        return
    if attr is None:
        if argument == "interval":
            raise PredicateError(f"{aggregate} requires an interval attribute")
        raise PredicateError(f"{aggregate} requires an attribute")
    kind = schema.attribute(attr).kind
    if argument == "interval":
        if kind is not AttributeKind.ONGOING_INTERVAL:
            raise PredicateError(
                f"{attr!r} is not an ongoing interval attribute"
            )
    elif kind.is_ongoing:
        raise PredicateError(f"{attr!r} must be a fixed numeric attribute")


def scalar_empty_row(aggregates: Sequence[str]) -> OngoingTuple:
    """The one row scalar *aggregates* yield over zero members, valid at
    every rt: the constant 0 per column (SQL's ``COUNT(*) = 0`` on an
    empty table), an undefined ``0/0`` for AVG."""
    zero = OngoingInt.constant(0)
    return OngoingTuple(
        tuple(
            OngoingRational(zero, zero) if name == "avg" else zero
            for name in aggregates
        ),
        UNIVERSAL_SET,
    )


def _extremum_sweep(
    members: Iterable[Tuple[IntervalSet, int]],
    *,
    empty_value: int,
    better: Callable[[int, int], int],
) -> OngoingInt:
    """Piecewise-constant extremum via one sweep with a lazy-deletion heap.

    Members activate at their RT starts and retire at their RT ends; the
    heap top is the current extremum, and retired values are discarded
    lazily when they surface.  O(B log B) total for B boundaries — the
    naive rule (re-scan all members per segment) is O(B × members).
    """
    sign = 1 if better(0, 1) == 0 else -1  # min keeps the heap top smallest
    starts: Dict[TimePoint, List[int]] = {}
    ends: Dict[TimePoint, List[int]] = {}
    boundaries = set()
    for rt_set, value in members:
        for start, end in rt_set:
            starts.setdefault(start, []).append(sign * value)
            ends.setdefault(end, []).append(sign * value)
            boundaries.add(start)
            boundaries.add(end)
    if not boundaries:
        return OngoingInt.constant(empty_value)

    heap: List[int] = []
    retired: Dict[int, int] = {}

    def current() -> int:
        while heap:
            top = heap[0]
            pending = retired.get(top, 0)
            if not pending:
                return sign * top
            heapq.heappop(heap)
            if pending == 1:
                del retired[top]
            else:
                retired[top] = pending - 1
        return empty_value

    segments: List[Segment] = []
    cursor = MINUS_INF
    for boundary in sorted(boundaries):
        if cursor < boundary:
            segments.append((cursor, boundary, current(), 0))
            cursor = boundary
        for value in ends.get(boundary, ()):  # half-open: retire first
            retired[value] = retired.get(value, 0) + 1
        for value in starts.get(boundary, ()):
            heapq.heappush(heap, value)
    if cursor < PLUS_INF:
        segments.append((cursor, PLUS_INF, current(), 0))
    return OngoingInt(segments)


def add_event(
    events: EventMap, boundary: TimePoint, intercept: int, slope: int
) -> None:
    """Add ``(intercept, slope)`` to the event at *boundary*, pruning an
    event that returns to zero."""
    event = events.get(boundary)
    if event is None:
        if intercept or slope:
            events[boundary] = [intercept, slope]
        return
    event[0] += intercept
    event[1] += slope
    if not event[0] and not event[1]:
        del events[boundary]


def add_segment(
    events: EventMap,
    start: TimePoint,
    end: TimePoint,
    intercept: int,
    slope: int,
) -> None:
    """Add the form ``intercept + slope·rt`` on ``[start, end)``: it enters
    at *start* and leaves at *end*.  Negated, it is retracted."""
    add_event(events, start, intercept, slope)
    add_event(events, end, -intercept, -slope)


def walk(events: EventMap) -> OngoingInt:
    """The piecewise-linear function *events* sum to, over all of T."""
    segments: List[Segment] = []
    cursor = MINUS_INF
    intercept = slope = 0
    for boundary in sorted(events):
        if cursor < boundary:
            segments.append((cursor, boundary, intercept, slope))
            cursor = boundary
        event = events[boundary]
        intercept += event[0]
        slope += event[1]
    if cursor < PLUS_INF:
        segments.append((cursor, PLUS_INF, intercept, slope))
    return OngoingInt(segments)


class GroupAccumulators:
    """What one group's output row is computed from, kept invertibly."""

    __slots__ = ("specs", "members", "coverage", "held")

    def __init__(self, specs: Sequence[SpecPlan]):
        self.specs = specs  # the operator's, shared by all its groups
        self.members = 0
        self.coverage: EventMap = {}
        #: Per spec: ``None`` for COUNT (it reads ``coverage``), an event
        #: map for SUM_DURATION / AVG, a counted multiset for MIN / MAX.
        self.held: Tuple[Optional[dict], ...] = tuple(
            None if aggregate == "count" else {} for aggregate, _ in specs
        )

    def entries(self) -> int:
        """Map and multiset entries held — the state's priced size, and 0
        for a group without members whose events all cancelled."""
        return len(self.coverage) + sum(
            len(held) for held in self.held if held is not None
        )

    def fold(self, item: OngoingTuple, weight: int) -> None:
        """Add (*weight* = +1) or retract (-1) one member's own events."""
        self.members += weight
        rt = item.rt
        for start, end in rt:
            add_segment(self.coverage, start, end, weight, 0)
        for (aggregate, position), held in zip(self.specs, self.held):
            if held is None:
                continue
            value = item.values[position]
            if aggregate == "sum_duration":
                contribution = duration(value)
                if not rt.is_universal():
                    contribution = contribution.mask(rt)
                for start, end, intercept, slope in contribution.segments:
                    add_segment(
                        held, start, end, weight * intercept, weight * slope
                    )
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise PredicateError(
                    f"{aggregate} argument holds non-integer value {value!r}"
                )
            if aggregate == "avg":
                for start, end in rt:
                    add_segment(held, start, end, weight * value, 0)
                continue
            count = held.get((value, rt), 0) + weight
            if count < 0:
                raise NonIncrementalDelta(
                    f"{aggregate} multiset count of {value!r} would become "
                    f"{count}"
                )
            if count:
                held[(value, rt)] = count
            else:
                del held[(value, rt)]

    def row(self, key: Tuple[object, ...]) -> OngoingTuple:
        """The group's output row, walked from what is held."""
        count = walk(self.coverage)
        support: List[Tuple[TimePoint, TimePoint]] = []
        for start, end, level, _ in count.segments:
            if level < 0:
                raise NonIncrementalDelta(
                    f"coverage of group {key!r} is {level} on "
                    f"[{start}, {end})"
                )
            if level:
                support.append((start, end))
        values: List[object] = []
        for (aggregate, _), held in zip(self.specs, self.held):
            if held is None:
                values.append(count)
            elif aggregate == "sum_duration":
                values.append(walk(held))
            elif aggregate == "avg":
                values.append(OngoingRational(walk(held), count))
            else:
                values.append(
                    _extremum_sweep(
                        ((rt, value) for value, rt in held),
                        empty_value=0,
                        better=_EXTREMA[aggregate],
                    )
                )
        return OngoingTuple(key + tuple(values), IntervalSet(support))
