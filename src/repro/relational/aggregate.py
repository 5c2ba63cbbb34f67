"""RT-aware aggregation over ongoing relations (Section X future work).

The paper's outlook asks for "an aggregation operator for ongoing relations
and ... the additional ongoing data types that are required to support
aggregation".  The required data type is the ongoing integer
(:mod:`repro.core.integer`); this module builds the operator on top of it:

* :func:`count_tuples` — how many tuples exist, as a function of rt;
* :func:`sum_durations` — total (clamped) interval duration at each rt;
* :func:`min_over` / :func:`max_over` — extrema of a fixed numeric
  attribute over the tuples present at each rt;
* ``avg`` — the mean of a fixed numeric attribute over the tuples present
  at each rt, kept exact as an :class:`~repro.core.rational.
  OngoingRational` (a lazily-reduced sum-and-count pair of ongoing
  integers);
* :func:`group_by` — the relational operator: one output tuple per group,
  carrying one aggregate column **per spec** (an ordered list of
  ``(aggregate, argument, output_name)`` triples) and the union of the
  members' reference times.

The registry ``_AGGREGATES`` is the single source of truth: each entry
carries the group compute, the scalar-empty value, and the argument kind
the planner and compiler validate against (:func:`validate_aggregate`,
:func:`known_aggregates`).

All aggregates run as **single event sweeps** over the members' interval
boundaries — O(B log B) in the total number of boundaries B, never
O(boundaries × members) — and are insensitive to member order.  This
module is the **oracle**: the delta engine does not call its per-group
computes.  The physical :class:`~repro.engine.executor.AggregateOp`
keeps invertible accumulators of its own per group
(:mod:`repro.engine.accumulators` — a member adds and retracts exactly
its own boundary events) and must land on rows equal, and hashing equal,
to a from-scratch :func:`group_by`; the property suites hold the two
against each other.  What the engine still shares is named in
``tests/engine/test_oracle_independence.py``: the extremum sweep (MIN /
MAX are not invertible), :func:`scalar_empty_row` and
:func:`validate_aggregate`.

Scalar aggregates (an empty ``group_columns`` list) follow SQL semantics:
over an *empty* relation they still produce one row — the constant-0
ongoing integer for COUNT/SUM_DURATION, the ``empty_value`` for MIN/MAX —
valid at every reference time.

Semantics note: aggregates use **bag** semantics over the ongoing tuples —
``‖COUNT(R)‖rt`` counts the tuples whose RT contains rt.  (Under pure set
semantics two distinct ongoing tuples may instantiate identically at some
rt; how grouping should treat that collision is exactly the open question
the paper defers, and the bag choice is documented behaviour here.)
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.duration import duration as _duration
from repro.core.integer import OngoingInt, Segment
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF, TimePoint
from repro.errors import PredicateError, SchemaError
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Attribute, AttributeKind, Schema
from repro.relational.tuples import OngoingTuple

__all__ = [
    "count_tuples",
    "sum_durations",
    "min_over",
    "max_over",
    "group_by",
    "known_aggregates",
    "validate_aggregate",
    "members_support",
    "scalar_empty_row",
    "empty_group_value",
]


# ----------------------------------------------------------------------
# Event sweeps
# ----------------------------------------------------------------------


def _sum_affine(functions: Iterable[OngoingInt]) -> OngoingInt:
    """Sum many piecewise-linear functions in one event sweep.

    Each segment ``[s, e): b + k·rt`` contributes ``(+b, +k)`` at ``s``
    and ``(-b, -k)`` at ``e``; sweeping the sorted boundaries with a
    running affine form is linear in the total segment count — repeated
    pairwise :class:`OngoingInt` addition would re-align the whole
    partial sum per member.
    """
    events: Dict[TimePoint, List[int]] = {}
    total = 0
    for function in functions:
        total += 1
        for start, end, intercept, slope in function.segments:
            event = events.get(start)
            if event is None:
                event = events[start] = [0, 0]
            event[0] += intercept
            event[1] += slope
            event = events.get(end)
            if event is None:
                event = events[end] = [0, 0]
            event[0] -= intercept
            event[1] -= slope
    if total == 0:
        return OngoingInt.constant(0)
    segments: List[Segment] = []
    intercept = slope = 0
    previous: Optional[TimePoint] = None
    for boundary in sorted(events):
        if previous is not None and previous < boundary:
            segments.append((previous, boundary, intercept, slope))
        d_intercept, d_slope = events[boundary]
        intercept += d_intercept
        slope += d_slope
        previous = boundary
    return OngoingInt(segments)


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


# ----------------------------------------------------------------------
# The four aggregates, over any member iterable
# ----------------------------------------------------------------------


def _duration_contribution(item: OngoingTuple, position: int) -> OngoingInt:
    """One tuple's ``max(0, ‖te‖rt - ‖ts‖rt)``, confined to its RT."""
    contribution = _duration(item.values[position])
    if not item.rt.is_universal():
        contribution = contribution.mask(item.rt)
    return contribution


def _numeric_members(
    relation: Iterable[OngoingTuple], position: int, attr: str
) -> Iterable[Tuple[IntervalSet, int]]:
    for item in relation:
        value = item.values[position]
        if not isinstance(value, int) or isinstance(value, bool):
            raise PredicateError(f"{attr!r} holds non-integer value {value!r}")
        yield item.rt, value


# ----------------------------------------------------------------------
# The aggregate registry
# ----------------------------------------------------------------------

#: One group's aggregate: ``compute(schema, members, attr)`` returning an
#: ongoing number (:class:`OngoingInt`, or :class:`OngoingRational` for
#: AVG).  Computes accept ``empty_value=`` so the public helpers below can
#: delegate instead of duplicating the sweep bodies.
GroupCompute = Callable[..., object]


def _count_value(
    schema: Schema,
    members: Iterable[OngoingTuple],
    attr: Optional[str],
    *,
    empty_value: int = 0,
) -> OngoingInt:
    return OngoingInt.sum_of_steps(item.rt for item in members)


def _sum_duration_value(
    schema: Schema,
    members: Iterable[OngoingTuple],
    attr: Optional[str],
    *,
    empty_value: int = 0,
) -> OngoingInt:
    position = schema.index_of(attr)
    return _sum_affine(
        _duration_contribution(item, position) for item in members
    )


def _min_value(
    schema: Schema,
    members: Iterable[OngoingTuple],
    attr: Optional[str],
    *,
    empty_value: int = 0,
) -> OngoingInt:
    position = schema.index_of(attr)
    return _extremum_sweep(
        _numeric_members(members, position, attr),
        empty_value=empty_value,
        better=min,
    )


def _max_value(
    schema: Schema,
    members: Iterable[OngoingTuple],
    attr: Optional[str],
    *,
    empty_value: int = 0,
) -> OngoingInt:
    position = schema.index_of(attr)
    return _extremum_sweep(
        _numeric_members(members, position, attr),
        empty_value=empty_value,
        better=max,
    )


def _avg_value(
    schema: Schema,
    members: Iterable[OngoingTuple],
    attr: Optional[str],
    *,
    empty_value: int = 0,
) -> OngoingRational:
    """``AVG(attr)`` as an exact ongoing rational.

    The numerator (Σ value over present members) and the denominator
    (member count) are each one order-insensitive event sweep over the
    members' RT boundaries; the quotient stays symbolic and reduces
    lazily, so the delta engine's accumulated pair compares equal (and
    hashes equal) to this from-scratch computation.
    """
    position = schema.index_of(attr)
    contributions: List[OngoingInt] = []
    supports: List[IntervalSet] = []
    for rt_set, value in _numeric_members(members, position, attr):
        contributions.append(OngoingInt.step(rt_set, inside=value))
        supports.append(rt_set)
    return OngoingRational(
        _sum_affine(contributions), OngoingInt.sum_of_steps(supports)
    )


def _empty_rational() -> OngoingRational:
    return OngoingRational(OngoingInt.constant(0), OngoingInt.constant(0))


class _AggregateSpec:
    """One registry entry: compute, zero-member value, and argument kind.

    ``argument`` is what :func:`validate_aggregate` enforces —
    ``"ignored"`` (COUNT takes none), ``"interval"`` (an ongoing interval
    attribute), or ``"numeric"`` (a fixed numeric attribute).  ``empty``
    overrides the scalar zero-member value for aggregates whose result
    type is not an ongoing integer.
    """

    __slots__ = ("compute", "empty_value", "argument", "empty")

    def __init__(
        self,
        compute: GroupCompute,
        empty_value: int = 0,
        *,
        argument: str = "numeric",
        empty: Optional[Callable[[], object]] = None,
    ):
        self.compute = compute
        self.empty_value = empty_value
        self.argument = argument
        self.empty = empty


#: The single aggregate registry — compute, scalar empty value, and
#: argument-kind validation metadata live together so a new aggregate
#: cannot forget one half.  Planner, compiler, and the relational
#: operator all validate against this table and nothing else.
_AGGREGATES: Dict[str, _AggregateSpec] = {
    "count": _AggregateSpec(_count_value, argument="ignored"),
    "sum_duration": _AggregateSpec(_sum_duration_value, argument="interval"),
    "min": _AggregateSpec(_min_value),
    "max": _AggregateSpec(_max_value),
    "avg": _AggregateSpec(_avg_value, empty=_empty_rational),
}


# ----------------------------------------------------------------------
# The public per-relation helpers
# ----------------------------------------------------------------------


def count_tuples(relation: OngoingRelation) -> OngoingInt:
    """``COUNT(*)`` as a function of the reference time.

    One event sweep over all RT boundaries — linear in the number of
    intervals, independent of how often the count changes.
    """
    return _count_value(relation.schema, relation, None)


def sum_durations(relation: OngoingRelation, interval_attr: str) -> OngoingInt:
    """``SUM(duration(attr))`` over the tuples present at each rt.

    Each tuple contributes ``max(0, ‖te‖rt - ‖ts‖rt)`` at the reference
    times in its RT and nothing elsewhere; the contributions are summed
    in one event sweep (see :func:`_sum_affine`).
    """
    validate_aggregate(relation.schema, "sum_duration", interval_attr)
    return _sum_duration_value(relation.schema, relation, interval_attr)


def min_over(
    relation: OngoingRelation, attr: str, *, empty_value: int = 0
) -> OngoingInt:
    """``MIN(attr)`` over the tuples present at each rt (*empty_value*
    where no tuple exists)."""
    validate_aggregate(relation.schema, "min", attr)
    return _min_value(relation.schema, relation, attr, empty_value=empty_value)


def max_over(
    relation: OngoingRelation, attr: str, *, empty_value: int = 0
) -> OngoingInt:
    """``MAX(attr)`` over the tuples present at each rt."""
    validate_aggregate(relation.schema, "max", attr)
    return _max_value(relation.schema, relation, attr, empty_value=empty_value)


def known_aggregates() -> Tuple[str, ...]:
    """The recognized aggregate names, sorted."""
    return tuple(sorted(_AGGREGATES))


def validate_aggregate(
    schema: Schema, aggregate: str, attr: Optional[str]
) -> None:
    """Reject unknown aggregates and ill-typed arguments *before* any work.

    The checks are eager so an aggregate over an empty relation (which
    never evaluates a single group) still surfaces schema errors, and so
    the planner can fail a bad plan at plan time.
    """
    spec = _AGGREGATES.get(aggregate)
    if spec is None:
        raise PredicateError(
            f"unknown aggregate {aggregate!r}; known: {sorted(_AGGREGATES)}"
        )
    if spec.argument == "ignored":
        return
    if attr is None:
        if spec.argument == "interval":
            raise PredicateError(f"{aggregate} requires an interval attribute")
        raise PredicateError(f"{aggregate} requires an attribute")
    kind = schema.attribute(attr).kind
    if spec.argument == "interval":
        if kind is not AttributeKind.ONGOING_INTERVAL:
            raise PredicateError(
                f"{attr!r} is not an ongoing interval attribute"
            )
    elif kind.is_ongoing:
        raise PredicateError(f"{attr!r} must be a fixed numeric attribute")


def members_support(members: Iterable[OngoingTuple]) -> IntervalSet:
    """The union of the members' reference times — the group's RT.

    One sort+merge over all boundaries (the :class:`IntervalSet`
    constructor normalizes); pairwise ``union`` would be O(members²)
    with disjoint reference times.
    """
    return IntervalSet(
        pair for member in members for pair in member.rt
    )


def empty_group_value(aggregate: str) -> object:
    """The constant value a scalar aggregate yields over zero members
    (SQL's ``COUNT(*) = 0`` on an empty table; an undefined ongoing
    rational for AVG)."""
    spec = _AGGREGATES.get(aggregate)
    if spec is None:
        raise PredicateError(
            f"unknown aggregate {aggregate!r}; known: {sorted(_AGGREGATES)}"
        )
    if spec.empty is not None:
        return spec.empty()
    return OngoingInt.constant(spec.empty_value)


def scalar_empty_row(aggregates: "str | Sequence[str]") -> OngoingTuple:
    """The one row scalar aggregates over an empty relation produce.

    Accepts a single aggregate name (the pre-multi-spec signature) or an
    ordered sequence of names — one output column each.  The reference
    time is universal: the constant values are valid at every rt — that
    is exactly the paper's ongoing-integer reading of
    ``SELECT COUNT(*)`` on an empty table.
    """
    if isinstance(aggregates, str):
        aggregates = (aggregates,)
    return OngoingTuple(
        tuple(empty_group_value(name) for name in aggregates), UNIVERSAL_SET
    )


# ----------------------------------------------------------------------
# The relational operator
# ----------------------------------------------------------------------


def group_by(
    relation: OngoingRelation,
    group_columns: Sequence[str],
    aggregate: str | None = None,
    attr: str | None = None,
    *,
    output_name: str | None = None,
    specs: Sequence[Tuple[str, Optional[str], str]] | None = None,
) -> OngoingRelation:
    """The aggregation operator γ on ongoing relations.

    Groups by fixed attributes, computes one registered aggregate (see
    :func:`known_aggregates`) **per spec** over each group — a spec is an
    ``(aggregate, argument, output_name)`` triple — and sets each output
    tuple's RT to the union of its members' reference times: the group
    exists exactly where at least one member exists.  The single-aggregate
    call form (``aggregate=``/``attr=``/``output_name=``) is shorthand for
    a one-spec list.

    A **scalar** aggregation (empty *group_columns*) over an empty
    relation yields one row anyway — the :func:`scalar_empty_row` —
    matching SQL semantics and the delta engine's group-maintenance rule.
    """
    schema = relation.schema
    if specs is None:
        if aggregate is None:
            raise PredicateError("aggregation requires an aggregate name")
        specs = ((aggregate, attr, output_name or aggregate),)
    elif aggregate is not None or attr is not None or output_name is not None:
        raise PredicateError(
            "pass either specs= or the single-aggregate arguments, not both"
        )
    for name, argument, _ in specs:
        validate_aggregate(schema, name, argument)
    positions = [schema.index_of(name) for name in group_columns]
    for name in group_columns:
        if schema.attribute(name).kind.is_ongoing:
            raise SchemaError(
                f"cannot group by ongoing attribute {name!r}; grouping keys "
                f"must be fixed"
            )
    groups: Dict[Tuple[object, ...], List[OngoingTuple]] = {}
    order: List[Tuple[object, ...]] = []
    for item in relation:
        key = tuple(item.values[p] for p in positions)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(item)

    out_attributes = [schema.attribute(name) for name in group_columns]
    for _, _, out_name in specs:
        out_attributes.append(
            Attribute(out_name, AttributeKind.ONGOING_INTEGER)
        )
    out_schema = Schema(out_attributes)

    out_tuples = []
    computes = [
        (_AGGREGATES[name].compute, argument) for name, argument, _ in specs
    ]
    for key in order:
        members = groups[key]
        values = tuple(
            compute(schema, members, argument)
            for compute, argument in computes
        )
        out_tuples.append(
            OngoingTuple(key + values, members_support(members))
        )
    if not out_tuples and not group_columns:
        out_tuples.append(scalar_empty_row([name for name, _, _ in specs]))
    return OngoingRelation(out_schema, out_tuples)
