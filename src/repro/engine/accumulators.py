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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.duration import duration
from repro.core.integer import OngoingInt, Segment
from repro.core.intervalset import IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF, TimePoint
from repro.engine.delta import NonIncrementalDelta
from repro.errors import PredicateError
from repro.relational.aggregate import _extremum_sweep
from repro.relational.tuples import OngoingTuple

#: ``boundary → [Δintercept, Δslope]``.
EventMap = Dict[TimePoint, List[int]]

#: One spec as the accumulators read it: ``(aggregate, argument position)``.
SpecPlan = Tuple[str, Optional[int]]

#: MIN / MAX over the members present at rt; 0 where there is none (the
#: registry's ``empty_value``, outside the group's RT by construction).
_EXTREMA = {"min": min, "max": max}


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
