"""Physical operators of the ongoing-relation engine.

Every operator exposes its output ``schema`` and its rule; it is not
iterable.  What a tree evaluates to is read by building it —
:meth:`~repro.engine.delta.DeltaEvaluator.refresh_full`, behind
``Database.query`` and every subscribe, resume and fallback alike.

The operators realize the implementation strategy of Section VIII:

* predicates over **fixed** attributes run as plain boolean filters
  (:class:`FixedFilter`) — they do not depend on the reference time;
* predicates over **ongoing** attributes restrict the tuple's reference
  time (:class:`OngoingFilter`) via the sweep-line conjunction;
* joins come in three physical flavours — :class:`HashJoin` on fixed
  equality keys, :class:`MergeIntervalJoin` (envelope-overlap candidates
  for temporal predicates, in the spirit of the forward-scan interval
  joins the paper cites [37]), and :class:`NestedLoopJoin` as the general
  fallback.

All three joins produce identical relations; the planner picks by the
join predicate's shape and the test suite checks the equivalence.

**One rendering per operator.**  An operator *is* three things:
``_children()`` (its inputs), ``delta_state()`` (its state over empty
inputs) and ``apply_delta(state, deltas)`` — the operator's Theorem 2
equivalence, stated once, as the rule that maps set-level changes of the
children to the set-level change of the output while advancing *state*
(see :mod:`repro.engine.delta`).  Beside the rule, a stateful operator
says how to check its state (``check_state``) and how its probes read
it (``access_paths``), so the evaluator switches on no operator class.
Cold evaluation is derived from the rule: ``evaluate(state, inputs)`` is
``apply_delta`` of one all-insert delta per input over a fresh state.
The per-operator equivalences hold at *all* reference times, which is
what makes this sound for every operator, the non-monotonic difference
included.  There is no second cold path: the one recursion over a tree
is :meth:`~repro.engine.delta.DeltaEvaluator._evaluate`.

The delta rules: filters and projections map deltas tuple-by-tuple;
joins probe only the delta side against their cached build state
(``Δ(L⋈R) = ΔL⋈R_old ∪ L_new⋈ΔR``); union and duplicate elimination are
derivation counting; difference recomputes only the left tuples whose
fixed attributes a right change touches; aggregation folds each changed
row's own events into its group's invertible accumulators and walks only
the touched groups; ordered limits maintain a top-k window in
O(Δ log k).  A delta a rule cannot absorb (an unknown row, an overdrawn
group, an evicted top-k boundary) raises
:class:`~repro.engine.delta.NonIncrementalDelta`, which callers answer
with an automatic full re-evaluation.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import allen as _allen
from repro.core.boolean import OngoingBoolean, from_bool
from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.intervalset import EMPTY_SET, IntervalSet
from repro.core.operations import equal as _point_equal
from repro.core.rational import OngoingRational
from repro.engine import indexes
from repro.engine.accumulators import (
    GroupAccumulators,
    scalar_empty_row,
    validate_aggregate,
)
from repro.engine.delta import (
    Delta,
    EMPTY_DELTA,
    NonIncrementalDelta,
    OperatorState,
    commit_changes,
)
from repro.engine.indexes import IntervalIndex, IntervalProbeIndex
from repro.errors import QueryError
from repro.relational.predicates import Column, Expression, Predicate
from repro.relational.relation import OngoingRelation
from repro.relational.schema import AttributeKind, Schema
from repro.relational.tuples import OngoingTuple

__all__ = [
    "PhysicalOperator",
    "MappedDeltaOperator",
    "SeqScan",
    "IntervalScan",
    "FixedFilter",
    "OngoingFilter",
    "ProjectOp",
    "HashJoin",
    "NestedLoopJoin",
    "MergeIntervalJoin",
    "UnionOp",
    "DifferenceOp",
    "AggregateOp",
    "DistinctOp",
    "SortLimitOp",
]


class PhysicalOperator:
    """Base class: a node of a physical plan with a known output schema
    and one rule (:meth:`apply_delta`) for what it outputs."""

    schema: Schema

    def explain(self, indent: int = 0) -> str:
        """A one-line-per-operator plan rendering (like EXPLAIN)."""
        lines = ["  " * indent + self._describe()]
        for child in self._children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> Tuple["PhysicalOperator", ...]:
        return ()

    def delta_state(self) -> OperatorState:
        """The operator's state over empty inputs."""
        return OperatorState()

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        """Propagate the children's set-level *deltas* (for scans: the
        base table's row delta); return this node's set-level delta.

        The one statement of the operator's semantics — subclasses
        implement this and nothing else.
        """
        raise NotImplementedError

    def check_state(self, state: OperatorState) -> List[str]:
        """What in *state* disagrees with itself — one message per
        problem, empty when consistent.  An operator whose state keeps
        one fact in two places checks that they agree."""
        return []

    def access_paths(self, state: OperatorState) -> Dict[str, str]:
        """How a probe of each part of *state* reads it now (EXPLAIN's
        ``access=``), by part name; empty for an operator that probes
        nothing."""
        return {}

    def evaluate(
        self, state: OperatorState, inputs: Sequence[Iterable[OngoingTuple]]
    ) -> None:
        """Cold evaluation: the delta rule over a fresh *state*.

        *inputs* holds one iterable per child — its output set — and
        arrives as one all-insert delta each.  Afterwards ``state.counts``
        maps every output tuple to its derivation count.
        """
        self.apply_delta(state, tuple(Delta.insert(side) for side in inputs))


class MappedDeltaOperator(PhysicalOperator):
    """Per-tuple map operators.

    Filters, projections, requalification, duplicate elimination and
    union are all the same delta shape: each input tuple maps —
    independently, through the pure function :meth:`_map_tuple` — to at
    most one output tuple, and derivation counts absorb collisions
    (distinct inputs mapping to one output) and multiplicities (a tuple
    present on both union sides).  One counting rule serves them all;
    subclasses override only the map.
    """

    def _map_tuple(self, item: OngoingTuple) -> Optional[OngoingTuple]:
        """The per-tuple map; ``None`` drops the tuple.  Default: identity."""
        return item

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        changes: Dict[OngoingTuple, int] = {}
        for delta in deltas:
            for item in delta.inserted:
                mapped = self._map_tuple(item)
                if mapped is not None:
                    changes[mapped] = changes.get(mapped, 0) + 1
            for item in delta.deleted:
                mapped = self._map_tuple(item)
                if mapped is not None:
                    changes[mapped] = changes.get(mapped, 0) - 1
        return commit_changes(state, changes)


class SeqScan(PhysicalOperator):
    """Sequential scan over a source of ongoing tuples.

    The source is a base table's snapshot or — for a plan that contains
    another maintained plan of its session — that plan's
    :class:`~repro.relational.relation.ResultStore` (label
    ``@<fingerprint>``): a maintained result is as good an input as a
    table.  Either way a scan has no state of its own: its output set
    *is* the source.  Which rows entered or left that set is decided
    where the multiplicities are — by the table, under its write lock,
    as each modification commits (:attr:`Delta.appeared` /
    :attr:`Delta.vanished`); by the provider's root operator, whose
    delta is set-level at face value — and the rule only nets those
    transitions over the commits the pending delta coalesced.  It must
    not look at the source instead: by the time a delta is flushed the
    source can be commits ahead of it.

    Only a scan that is the plan root keeps an index (``state.counts``),
    because the result store serves from one.  *live* is the sized owner
    of the rows when that is not *relation* itself (the table behind a
    snapshot), so EXPLAIN shows the current row count, not the planned.

    **The access path.**  What the cold build of a plan — a query, a
    subscribe, a resume or a fallback refresh — hands the scan's parent
    is :meth:`candidates`: the whole source, or, when the planner found a
    ``column = constant`` conjunct in the selection right above a
    base-table scan, *probe* ``(column, constant, rows)`` — the rows of
    that constant's bucket of :meth:`~repro.engine.database.Table.partition_index`
    at planning time.  The selection still evaluates every candidate;
    the bucket only spares it the rows that cannot pass.  The delta rule
    reads no access path: it forwards the whole table's transitions.
    """

    def __init__(self, relation, *, label: str = "", live=None, probe=None):
        self.relation = relation
        self.schema = relation.schema
        self.label = label
        self.live = live if live is not None else relation
        self.probe = probe

    def candidates(self) -> Sequence[OngoingTuple]:
        """The rows a cold read hands the parent (a superset of what the
        parent's selection keeps, or the whole source)."""
        return self.relation.tuples if self.probe is None else self.probe[2]

    def _describe(self) -> str:
        suffix = f" {self.label}" if self.label else ""
        if self.probe is not None:
            column, value, rows = self.probe
            return (
                f"SeqScan{suffix} ({column} = {value!r}: "
                f"{len(rows)} of {len(self.relation)} tuples)"
            )
        return f"SeqScan{suffix} ({len(self.live)} tuples)"

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        (delta,) = deltas
        changes = delta.transitions()
        if state.counts is not None:
            return commit_changes(state, changes)
        inserted = [row for row, weight in changes.items() if weight > 0]
        deleted = [row for row, weight in changes.items() if weight < 0]
        if not inserted and not deleted:
            return EMPTY_DELTA
        return Delta(inserted, deleted)


class IntervalScan(SeqScan):
    """Index-assisted cold scan below a temporal selection.

    The cold build — behind every query, subscribe, resume and fallback
    refresh — hands the parent only the tuples whose interval
    **envelope** overlaps the selection's probe window, served by the
    table's cached
    :class:`~repro.engine.indexes.IntervalIndex` in ``O(log n + k)``
    instead of ``O(n)``.  Candidate filtering is lossless: envelope
    overlap is a necessary condition for every overlap-family temporal
    predicate, and the enclosing :class:`OngoingFilter` still applies the
    exact ongoing predicate to each candidate.

    The delta rule is inherited **unchanged** from :class:`SeqScan` and
    forwards the transitions of the whole table (a row updated *into*
    the window must reach the filter), so a warm apply reads no index.
    """

    def __init__(
        self,
        relation: OngoingRelation,
        index: IntervalIndex,
        window: Tuple[int, int],
        *,
        label: str = "",
    ):
        super().__init__(relation, label=label)
        self.index = index
        self.window = window

    def candidates(self) -> Sequence[OngoingTuple]:
        return self.index.overlapping(self.window[0], self.window[1])

    def _describe(self) -> str:
        suffix = f" {self.label}" if self.label else ""
        return (
            f"IntervalScan{suffix} ({self.index.attribute} envelope ∩ "
            f"[{self.window[0]}, {self.window[1]}), "
            f"{self.index.size} indexed)"
        )


class FixedFilter(MappedDeltaOperator):
    """Boolean filter for conjuncts over fixed attributes only.

    This is the WHERE-clause half of the Section VIII predicate split: the
    truth value of these conjuncts does not depend on the reference time, so
    no reference-time bookkeeping is needed.
    """

    def __init__(self, child: PhysicalOperator, conjuncts: Sequence[Predicate]):
        self.child = child
        self.conjuncts = tuple(conjuncts)
        self.schema = child.schema

    def _map_tuple(self, item: OngoingTuple) -> Optional[OngoingTuple]:
        values = item.values
        schema = self.schema
        if all(c.evaluate_fixed(values, schema) for c in self.conjuncts):
            return item
        return None

    def _describe(self) -> str:
        return f"FixedFilter ({len(self.conjuncts)} conjuncts)"

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)


class OngoingFilter(MappedDeltaOperator):
    """Reference-time-restricting filter for ongoing conjuncts.

    Each surviving tuple's RT is replaced by ``RT ∧ θ(r)`` (Theorem 2);
    tuples whose reference time becomes empty are dropped.
    """

    def __init__(self, child: PhysicalOperator, conjuncts: Sequence[Predicate]):
        self.child = child
        self.conjuncts = tuple(conjuncts)
        self.schema = child.schema

    def _map_tuple(self, item: OngoingTuple) -> Optional[OngoingTuple]:
        """``RT ∧ θ(r)`` for one tuple; ``None`` when the RT empties out.

        A pure function of the tuple, so a deleted input maps to exactly
        the output it produced when it was inserted.
        """
        schema = self.schema
        rt = item.rt
        values = item.values
        for conjunct in self.conjuncts:
            truth = conjunct.evaluate(values, schema)
            if truth.is_always_true():
                continue
            rt = rt.intersection(truth.true_set)
            if rt.is_empty():
                return None
        return item if rt is item.rt else item.with_rt(rt)

    def _describe(self) -> str:
        return f"OngoingFilter ({len(self.conjuncts)} conjuncts)"

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)


class ProjectOp(MappedDeltaOperator):
    """Projection / computed columns; reference times pass through.

    A projection of two or more plain columns picks its values with one
    :func:`operator.itemgetter` call per row instead of evaluating an
    expression per column (over one column ``itemgetter`` returns the
    bare value, not a tuple).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        expressions: Sequence[Expression],
        out_schema: Schema,
    ):
        self.child = child
        self.expressions = tuple(expressions)
        self.schema = out_schema
        self._pick = None
        if len(self.expressions) > 1 and all(
            isinstance(e, Column) for e in self.expressions
        ):
            self._pick = itemgetter(
                *(child.schema.index_of(e.name) for e in self.expressions)
            )

    def _map_tuple(self, item: OngoingTuple) -> OngoingTuple:
        if self._pick is not None:
            return OngoingTuple(self._pick(item.values), item.rt)
        in_schema = self.child.schema
        return OngoingTuple(
            tuple(e.evaluate(item.values, in_schema) for e in self.expressions),
            item.rt,
        )

    def _describe(self) -> str:
        return f"Project ({len(self.expressions)} columns)"

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)


def _joined_tuple(
    left: OngoingTuple, right: OngoingTuple
) -> Optional[Tuple[Tuple[object, ...], IntervalSet]]:
    """Pair two tuples: concatenated values, intersected reference times.

    Returns ``None`` when the reference times are disjoint (the pair exists
    at no reference time).
    """
    rt = left.rt.intersection(right.rt)
    if rt.is_empty():
        return None
    return (left.values + right.values, rt)


class _JoinBase(PhysicalOperator):
    """The join rule, shared by all three algorithms.

    The state caches both input sides, each row once (in hash buckets
    for HashJoin, in one :class:`~repro.engine.indexes.IntervalProbeIndex`
    per side for MergeIntervalJoin, as plain ordered sets otherwise), and
    a delta probes only the opposite cache::

        Δ(L ⋈ R) = ΔL ⋈ R_old  ∪  L_new ⋈ ΔR

    — the left delta runs against the cached right side *before* the
    right delta is folded in, the right delta against the already
    updated left side, so insert/insert cross pairs appear exactly once
    and delete/delete pairs not at all.  Each pair then gets its RT
    intersected and the residual predicate halves applied
    (:meth:`_emit`).  The algorithms differ only in what a row is cached
    under and how a side is probed (``_key`` / ``_add_side`` /
    ``_remove_side`` / ``_matches``).

    A cache *references* its input's tuples, it never copies them: over
    a base table they are the heap's rows, over another maintained
    plan's result (a :class:`SeqScan` of its store) they are that plan's
    output — join state costs its index entries and its own output.
    One-sided conjuncts never reach a join: the rewriter turns them into
    selections below it (:mod:`repro.engine.rewrite`), so a side caches
    only rows that can match.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        out_schema: Schema,
        fixed_residual: Sequence[Predicate],
        ongoing_residual: Sequence[Predicate],
    ):
        self.left = left
        self.right = right
        self.schema = out_schema
        self.fixed_residual = tuple(fixed_residual)
        self.ongoing_residual = tuple(ongoing_residual)

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _emit(
        self, left: OngoingTuple, right: OngoingTuple
    ) -> Optional[OngoingTuple]:
        """Apply RT intersection and the residual predicate halves."""
        paired = _joined_tuple(left, right)
        if paired is None:
            return None
        values, rt = paired
        schema = self.schema
        for conjunct in self.fixed_residual:
            if not conjunct.evaluate_fixed(values, schema):
                return None
        for conjunct in self.ongoing_residual:
            truth = conjunct.evaluate(values, schema)
            if truth.is_always_true():
                continue
            rt = rt.intersection(truth.true_set)
            if rt.is_empty():
                return None
        return OngoingTuple(values, rt)

    def _key(self, side: str, item: OngoingTuple) -> object:
        """What *item* (a tuple of *side*) is cached under — which is also
        what it probes the opposite cache with.  Computed once per row."""
        return None

    def _add_side(
        self, state: OperatorState, side: str, item: OngoingTuple, key: object
    ) -> None:
        cache = state.extra[side]
        if item not in cache:
            state.cached_rows += 1
            cache[item] = key

    def _remove_side(
        self, state: OperatorState, side: str, item: OngoingTuple, key: object
    ) -> None:
        try:
            del state.extra[side][item]
        except KeyError:
            raise NonIncrementalDelta(
                f"delete of a tuple unknown to the join's {side} side"
            ) from None
        state.cached_rows -= 1

    def _matches(
        self, state: OperatorState, side: str, key: object
    ) -> Iterable[OngoingTuple]:
        """Cached tuples of *side* that can pair with a tuple of the
        opposite input cached under *key* (a superset).  May be a live
        view of the cache: a side is never probed while it is mutated.
        """
        return state.extra[side]

    def delta_state(self) -> OperatorState:
        state = OperatorState()
        state.extra["left"] = {}
        state.extra["right"] = {}
        return state

    def check_state(self, state: OperatorState) -> List[str]:
        held = len(state.extra["left"]) + len(state.extra["right"])
        if held == state.cached_rows:
            return []
        return [f"sides hold {held} rows, state caches {state.cached_rows}"]

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        left_delta, right_delta = deltas
        changes: Dict[OngoingTuple, int] = {}
        # ΔL ⋈ R_old — probe the cached right side with the left delta.
        for item in left_delta.deleted:
            key = self._key("left", item)
            for match in self._matches(state, "right", key):
                produced = self._emit(item, match)
                if produced is not None:
                    changes[produced] = changes.get(produced, 0) - 1
            self._remove_side(state, "left", item, key)
        for item in left_delta.inserted:
            key = self._key("left", item)
            for match in self._matches(state, "right", key):
                produced = self._emit(item, match)
                if produced is not None:
                    changes[produced] = changes.get(produced, 0) + 1
            self._add_side(state, "left", item, key)
        # L_new ⋈ ΔR — probe the updated left side with the right delta.
        for item in right_delta.deleted:
            key = self._key("right", item)
            for match in self._matches(state, "left", key):
                produced = self._emit(match, item)
                if produced is not None:
                    changes[produced] = changes.get(produced, 0) - 1
            self._remove_side(state, "right", item, key)
        for item in right_delta.inserted:
            key = self._key("right", item)
            for match in self._matches(state, "left", key):
                produced = self._emit(match, item)
                if produced is not None:
                    changes[produced] = changes.get(produced, 0) + 1
            self._add_side(state, "right", item, key)
        return commit_changes(state, changes)


class HashJoin(_JoinBase):
    """Equi-join on fixed attributes, with residual temporal conjuncts.

    Both sides are cached as hash indexes, so a delta — or, cold, the
    whole opposite input — probes exactly its matching bucket.  **A
    bucket of one row is the row**: a key maps to the bare
    :class:`~repro.relational.tuples.OngoingTuple` until a second
    distinct row arrives under it, then to an ordered set (a ``dict``
    keyed by row, in arrival order), and back to the bare row when
    deletes leave one — a side over unique keys costs one index entry
    per row, not one ``dict`` per row.  The temporal conjuncts of the
    join predicate run as residuals on the matching pairs, restricting
    each output tuple's RT — this is exactly how the paper's prototype
    leverages PostgreSQL's existing hash join for queries on ongoing
    relations.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key_positions: Sequence[int],
        right_key_positions: Sequence[int],
        out_schema: Schema,
        fixed_residual: Sequence[Predicate] = (),
        ongoing_residual: Sequence[Predicate] = (),
    ):
        super().__init__(left, right, out_schema, fixed_residual, ongoing_residual)
        self.left_key_positions = tuple(left_key_positions)
        self.right_key_positions = tuple(right_key_positions)
        if not self.left_key_positions or not self.right_key_positions:
            raise QueryError(
                "HashJoin needs an equi-key; a keyless join is a NestedLoopJoin"
            )
        self._key_of = {
            "left": itemgetter(*self.left_key_positions),
            "right": itemgetter(*self.right_key_positions),
        }

    def _describe(self) -> str:
        return (
            f"HashJoin (keys {list(self.left_key_positions)}="
            f"{list(self.right_key_positions)}, "
            f"{len(self.fixed_residual)}+{len(self.ongoing_residual)} residual)"
        )

    def _key(self, side: str, item: OngoingTuple) -> object:
        return self._key_of[side](item.values)

    def _add_side(
        self, state: OperatorState, side: str, item: OngoingTuple, key: object
    ) -> None:
        index = state.extra[side]
        bucket = index.get(key)
        if bucket is None:
            index[key] = item
        elif type(bucket) is dict:
            if item in bucket:
                return
            bucket[item] = None
        elif bucket == item:
            return
        else:
            index[key] = {bucket: None, item: None}
        state.cached_rows += 1

    def _remove_side(
        self, state: OperatorState, side: str, item: OngoingTuple, key: object
    ) -> None:
        index = state.extra[side]
        bucket = index.get(key)
        if type(bucket) is dict and item in bucket:
            del bucket[item]
            if len(bucket) == 1:
                (index[key],) = bucket
        elif bucket is not None and bucket == item:
            del index[key]
        else:
            raise NonIncrementalDelta(
                f"delete of a tuple unknown to the join's {side} side"
            )
        state.cached_rows -= 1

    def _matches(
        self, state: OperatorState, side: str, key: object
    ) -> Iterable[OngoingTuple]:
        bucket = state.extra[side].get(key)
        if bucket is None:
            return ()
        return bucket if type(bucket) is dict else (bucket,)

    def check_state(self, state: OperatorState) -> List[str]:
        problems: List[str] = []
        held = 0
        for side in ("left", "right"):
            for key, bucket in state.extra[side].items():
                if type(bucket) is not dict:
                    held += 1
                    continue
                held += len(bucket)
                if len(bucket) < 2:
                    problems.append(
                        f"{side} key {key!r} keeps a bucket of "
                        f"{len(bucket)} row(s)"
                    )
        if held != state.cached_rows:
            problems.append(
                f"buckets hold {held} rows, state caches {state.cached_rows}"
            )
        return problems


class NestedLoopJoin(_JoinBase):
    """The general theta-join fallback — correct for any predicate."""

    def _describe(self) -> str:
        return (
            f"NestedLoopJoin ({len(self.fixed_residual)}+"
            f"{len(self.ongoing_residual)} residual)"
        )


def _envelope(value: object) -> Tuple[int, int]:
    """The fixed envelope ``[a, d)`` of an ongoing interval ``[a+b, c+d)``.

    Every instantiation of the interval lies inside its envelope, so
    envelope overlap is a necessary condition for the ongoing ``overlaps``
    predicate to hold at any reference time — which makes it a safe
    candidate filter for :class:`MergeIntervalJoin`.
    """
    if isinstance(value, OngoingInterval):
        return (value.start.a, value.end.b)
    if isinstance(value, tuple) and len(value) == 2:
        return (value[0], value[1])
    raise TypeError(f"cannot compute an interval envelope for {value!r}")


def _walks_tree(index: IntervalProbeIndex) -> bool:
    """Whether a probe of a merge-join side walks its interval tree
    rather than scanning its envelopes — the one test both the probe and
    EXPLAIN read (the cut at call time, so a test can move it)."""
    return len(index) >= indexes.INDEX_THRESHOLD


class MergeIntervalJoin(_JoinBase):
    """Envelope join for temporal ``overlaps`` predicates.

    Candidate pairs are exactly those whose envelopes overlap (in the
    spirit of the forward-scan interval joins the paper cites); the
    ongoing ``overlaps`` conjunct then runs as a residual on the
    candidates to compute the precise RT.  Each side *is* an
    :class:`~repro.engine.indexes.IntervalProbeIndex`: a row's envelope
    is computed once, as it enters, and held there with the row.  A
    probe of a side holding at least
    :data:`~repro.engine.indexes.INDEX_THRESHOLD` rows walks its tree in
    O(log n + k); below the cut it scans the side's envelopes.  Both
    return the same rows, and :meth:`access_paths` reports which one a
    probe of each side takes now.

    For fixed intervals the envelope is the interval itself and the
    filter is exact.  For expanding intervals ``[a, now)`` the envelope
    extends to ``+inf``, so early-starting ongoing intervals pair with
    many partners — the effect Fig. 9 of the paper measures.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_interval_position: int,
        right_interval_position: int,
        out_schema: Schema,
        fixed_residual: Sequence[Predicate] = (),
        ongoing_residual: Sequence[Predicate] = (),
    ):
        super().__init__(left, right, out_schema, fixed_residual, ongoing_residual)
        self.left_interval_position = left_interval_position
        self.right_interval_position = right_interval_position

    def delta_state(self) -> OperatorState:
        state = OperatorState()
        state.extra["left"] = IntervalProbeIndex()
        state.extra["right"] = IntervalProbeIndex()
        return state

    def _key(self, side: str, item: OngoingTuple) -> Tuple[int, int]:
        position = (
            self.left_interval_position
            if side == "left"
            else self.right_interval_position
        )
        return _envelope(item.values[position])

    def _add_side(
        self,
        state: OperatorState,
        side: str,
        item: OngoingTuple,
        key: Tuple[int, int],
    ) -> None:
        index = state.extra[side]
        if item not in index:
            index.add(item, *key)
            state.cached_rows += 1

    def _remove_side(
        self,
        state: OperatorState,
        side: str,
        item: OngoingTuple,
        key: Tuple[int, int],
    ) -> None:
        try:
            state.extra[side].remove(item)
        except KeyError:
            raise NonIncrementalDelta(
                f"delete of a tuple unknown to the join's {side} side"
            ) from None
        state.cached_rows -= 1

    def _matches(
        self, state: OperatorState, side: str, key: Tuple[int, int]
    ) -> Iterable[OngoingTuple]:
        index = state.extra[side]
        if _walks_tree(index):
            return index.overlapping(*key)
        return index.scan(*key)

    def access_paths(self, state: OperatorState) -> Dict[str, str]:
        paths = {}
        for side in ("left", "right"):
            index = state.extra[side]
            kind = "index:interval" if _walks_tree(index) else "scan"
            paths[side] = f"{kind}({len(index)})"
        return paths

    def _describe(self) -> str:
        return (
            f"MergeIntervalJoin (positions {self.left_interval_position}/"
            f"{self.right_interval_position}, {len(self.fixed_residual)}+"
            f"{len(self.ongoing_residual)} residual)"
        )


class UnionOp(MappedDeltaOperator):
    """Set union: the identity map over both input sides.

    A tuple's derivation count is the number of sides containing it
    (1 or 2), and only the 0 ↔ positive transitions surface as output
    changes — classic multiplicity maintenance, inherited as-is.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        left.schema.require_compatible(right.schema, "union")
        self.left = left
        self.right = right
        self.schema = left.schema

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)


def value_equality(
    schema: Schema, left_row: Tuple[object, ...], right_row: Tuple[object, ...]
) -> OngoingBoolean:
    """The ongoing boolean ``‖r.A‖rt = ‖s.A‖rt`` across all attributes.

    Fixed attributes compare with ``==`` (constant over rt); ongoing time
    points with the ongoing equality of Table II; ongoing intervals with raw
    endpointwise equality (*instantiated-value* equality — not the Allen
    ``equals`` with its empty-interval convention).  This is the notion of
    equality the difference operator of Theorem 2 quantifies over.
    """
    result: OngoingBoolean | None = None
    for attribute, left_value, right_value in zip(schema, left_row, right_row):
        if attribute.kind is AttributeKind.ONGOING_POINT:
            piece = _point_equal(left_value, right_value)  # type: ignore[arg-type]
        elif attribute.kind is AttributeKind.ONGOING_INTERVAL:
            piece = _allen.interval_value_equals(left_value, right_value)  # type: ignore[arg-type]
        else:
            piece = from_bool(left_value == right_value)
        if piece.is_always_false():
            return piece
        result = piece if result is None else result.conjunction(piece)
    if result is None:
        # Zero-attribute schemas: the empty tuples are equal everywhere.
        return from_bool(True)
    return result


def match_set(
    schema: Schema, row: Tuple[object, ...], candidates: Iterable[OngoingTuple]
) -> IntervalSet:
    """Reference times at which *row* has an equal tuple in *candidates*.

    The quantifier kernel of the Theorem 2 difference: :class:`DifferenceOp`
    recomputes it for exactly the left tuples a right-side delta can
    affect.
    """
    matched = EMPTY_SET
    for s in candidates:
        equality = value_equality(schema, row, s.values)
        if equality.is_always_false():
            continue
        contribution = s.rt.intersection(equality.true_set)
        if not contribution.is_empty():
            matched = matched.union(contribution)
    return matched


class DifferenceOp(PhysicalOperator):
    """Set difference: each left tuple keeps the reference times at which
    no right tuple equals it on instantiated values (Theorem 2).

    Difference is nonmonotonic: inserting into the right side can
    *shrink* reference times of unrelated-looking left tuples.  The
    state therefore caches both input sides, each row once: ``right``,
    the right rows, and ``left``, ``fixed key → {left row: its output or
    None}``.  Left deltas are handled tuple-locally.  A right delta only
    affects left tuples whose *fixed* attributes equal the changed row's
    (``value_equality`` conjoins a plain ``==`` per fixed attribute, so
    any fixed mismatch is always false) — which is why the left side is
    keyed by its fixed-attribute projection: only the matching bucket
    recomputes.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        left.schema.require_compatible(right.schema, "difference")
        self.left = left
        self.right = right
        self.schema = left.schema
        self._fixed_positions = tuple(
            position
            for position, attribute in enumerate(self.schema)
            if not attribute.kind.is_ongoing
        )

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def _difference_tuple(
        self, item: OngoingTuple, right_items: Iterable[OngoingTuple]
    ) -> Optional[OngoingTuple]:
        """Theorem 2, one left tuple: drop the rts matched in the right."""
        matched = match_set(self.schema, item.values, right_items)
        remaining = item.rt.difference(matched)
        if remaining.is_empty():
            return None
        return item.with_rt(remaining)

    def _fixed_key(self, item: OngoingTuple) -> Tuple[object, ...]:
        """The tuple's fixed-attribute projection (the affectedness key)."""
        return tuple(item.values[position] for position in self._fixed_positions)

    def delta_state(self) -> OperatorState:
        state = OperatorState()
        state.extra["left"] = {}
        state.extra["right"] = {}
        return state

    def check_state(self, state: OperatorState) -> List[str]:
        held = len(state.extra["right"]) + sum(
            len(bucket) for bucket in state.extra["left"].values()
        )
        if held == state.cached_rows:
            return []
        return [f"sides hold {held} rows, state caches {state.cached_rows}"]

    def access_paths(self, state: OperatorState) -> Dict[str, str]:
        left_rows = state.cached_rows - len(state.extra["right"])
        return {"left": f"index:partition({left_rows})"}

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        left_delta, right_delta = deltas
        left: Dict[
            Tuple[object, ...], Dict[OngoingTuple, Optional[OngoingTuple]]
        ] = state.extra["left"]
        right: Dict[OngoingTuple, None] = state.extra["right"]
        changes: Dict[OngoingTuple, int] = {}
        # Left deletions: retract exactly the output the tuple produced.
        for item in left_delta.deleted:
            key = self._fixed_key(item)
            bucket = left.get(key)
            if bucket is None or item not in bucket:
                raise NonIncrementalDelta(
                    "delete of a tuple unknown to the difference's left side"
                )
            out = bucket.pop(item)
            if not bucket:
                del left[key]
            state.cached_rows -= 1
            if out is not None:
                changes[out] = changes.get(out, 0) - 1
        # Right changes: fold into the cached side, then recompute the
        # match set of the possibly-affected left tuples — only those in
        # the bucket of a changed right row's fixed attributes.
        if not right_delta.is_empty():
            for item in right_delta.deleted:
                if item not in right:
                    raise NonIncrementalDelta(
                        "delete of a tuple unknown to the difference's "
                        "right side"
                    )
                del right[item]
                state.cached_rows -= 1
            for item in right_delta.inserted:
                if item not in right:
                    state.cached_rows += 1
                right[item] = None
            touched = dict.fromkeys(
                self._fixed_key(row)
                for row in right_delta.inserted + right_delta.deleted
            )
            for key in touched:
                bucket = left.get(key, {})
                for item, old_out in bucket.items():
                    new_out = self._difference_tuple(item, right)
                    if new_out == old_out:
                        continue
                    if old_out is not None:
                        changes[old_out] = changes.get(old_out, 0) - 1
                    if new_out is not None:
                        changes[new_out] = changes.get(new_out, 0) + 1
                    bucket[item] = new_out  # a value, not a key: safe mid-walk
        # Left insertions run against the already-updated right side.
        for item in left_delta.inserted:
            bucket = left.setdefault(self._fixed_key(item), {})
            if item in bucket:
                raise NonIncrementalDelta(
                    "insert of a tuple already on the difference's left side"
                )
            out = self._difference_tuple(item, right)
            bucket[item] = out
            state.cached_rows += 1
            if out is not None:
                changes[out] = changes.get(out, 0) + 1
        return commit_changes(state, changes)


class AggregateOp(PhysicalOperator):
    """γ — grouped RT-aware aggregation over the child's output set.

    Maintains an **ordered list** of aggregate specs — one output column
    per ``(aggregate, argument, output_name)`` triple.  A group is its
    accumulators (:mod:`repro.engine.accumulators`), not its members:
    a member count, one counted coverage map over the members' RT
    intervals (the group's RT, ``COUNT(*)`` and AVG's denominator at
    once) and one event map per ``SUM_DURATION`` / ``AVG`` spec — sums
    of piecewise-linear functions of rt, hence invertible.  The rule:
    fold each deleted row with -1 and each inserted row with +1 into its
    group (O(segments of the row)), then walk the touched groups' maps
    into their output rows (``out``: key → tuple) — O(|Δ| + pieces of
    the group's value), whatever the group's size.  ``MIN`` / ``MAX``
    cannot be retracted from; for those specs only, the group keeps a
    counted ``(value, rt)`` multiset and re-runs the extremum sweep over
    it when touched — O(|group|) still, in state and in time.

    A changed group emits a delete of its old row and an insert of the
    new one; a group whose last member leaves just deletes.  The scalar
    group (no grouping columns) never vanishes: over zero members it
    yields the SQL empty-aggregate row, so ``SELECT COUNT(*)`` reads the
    constant 0 on an empty input.

    The operator does not know its members, so it cannot tell an unknown
    row from a known one — and need not: every child either validates
    derivation counts atomically (:func:`commit_changes`) or is a
    stateless scan forwarding the table's own ``0 ↔ positive``
    transitions.  What it does check costs O(1): a member count or a
    multiset count below zero, a coverage level below zero, an emptied
    group whose maps do not cancel — each a :class:`NonIncrementalDelta`.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_positions: Sequence[int],
        group_names: Sequence[str],
        specs: Sequence[Tuple[str, Optional[str], str]],
        out_schema: Schema,
    ):
        self.child = child
        self.group_positions = tuple(group_positions)
        self.group_names = tuple(group_names)
        self.specs = tuple(specs)
        self.schema = out_schema
        for name, argument, _ in self.specs:
            validate_aggregate(child.schema, name, argument)
        self._spec_plans = tuple(
            (name, None if name == "count" else child.schema.index_of(argument))
            for name, argument, _ in self.specs
        )

    def _describe(self) -> str:
        rendered = ", ".join(
            f"{name}({argument if argument is not None else '*'})"
            + (f" AS {out}" if out != name else "")
            for name, argument, out in self.specs
        )
        by = ", ".join(self.group_names) or "()"
        return f"Aggregate γ {rendered} by [{by}]"

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def _key(self, item: OngoingTuple) -> Tuple[object, ...]:
        return tuple(item.values[p] for p in self.group_positions)

    def _memberless_row(self) -> Optional[OngoingTuple]:
        """What a group without members yields: the scalar group its SQL
        empty-aggregate row, every other group nothing."""
        if self.group_positions:
            return None
        return scalar_empty_row([name for name, _, _ in self.specs])

    def delta_state(self) -> OperatorState:
        state = OperatorState()
        state.extra["accumulators"] = {}
        outs = state.extra["out"] = {}
        row = self._memberless_row()
        if row is not None:
            outs[()] = row
            state.counts[row] = 1
        return state

    def check_state(self, state: OperatorState) -> List[str]:
        problems: List[str] = []
        groups = state.extra["accumulators"]
        outs = state.extra["out"]
        held = sum(group.entries() for group in groups.values())
        if held != state.cached_rows:
            problems.append(
                f"accumulators hold {held} entries, state caches "
                f"{state.cached_rows}"
            )
        for key, group in groups.items():
            if outs.get(key) != group.row(key):
                problems.append(
                    f"output row of group {key!r} is not what its "
                    f"accumulators walk to"
                )
                break
        if any(key not in groups for key in outs if key != ()):
            problems.append(
                "an output row outlived its group's accumulators"
            )
        return problems

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        (delta,) = deltas
        groups: Dict[Tuple[object, ...], GroupAccumulators] = state.extra[
            "accumulators"
        ]
        outs: Dict[Tuple[object, ...], OngoingTuple] = state.extra["out"]
        #: key → entries the group held before this delta touched it.
        touched: Dict[Tuple[object, ...], int] = {}
        for item in delta.deleted:
            key = self._key(item)
            group = groups.get(key)
            if group is None or not group.members:
                raise NonIncrementalDelta(
                    "delete from an aggregate group that holds no member"
                )
            if key not in touched:
                touched[key] = group.entries()
            group.fold(item, -1)
        for item in delta.inserted:
            key = self._key(item)
            group = groups.get(key)
            if group is None:
                group = groups[key] = GroupAccumulators(self._spec_plans)
            if key not in touched:
                touched[key] = group.entries()
            group.fold(item, +1)
        changes: Dict[OngoingTuple, int] = {}
        for key, entries_before in touched.items():
            group = groups[key]
            entries = group.entries()
            state.cached_rows += entries - entries_before
            old = outs.get(key)
            if group.members:
                new = group.row(key)
            elif entries:
                raise NonIncrementalDelta(
                    "an emptied aggregate group's accumulators do not cancel"
                )
            else:
                del groups[key]
                new = self._memberless_row()
            if new == old:
                continue  # e.g. a delete+insert pair that kept the value
            if old is not None:
                changes[old] = changes.get(old, 0) - 1
            if new is not None:
                changes[new] = changes.get(new, 0) + 1
                outs[key] = new
            else:
                outs.pop(key, None)
        return commit_changes(state, changes)


class DistinctOp(MappedDeltaOperator):
    """δ — duplicate elimination via multiplicity counting.

    Ongoing relations are sets, so δ is a semantic identity on any
    operator output — but it is an explicit multiplicity barrier: the
    inherited counting rule tracks how many derivations each tuple has
    and surfaces only the 0↔positive transitions, exactly SQL DISTINCT
    under incremental maintenance.
    """

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self.schema = child.schema

    def _describe(self) -> str:
        return "Distinct δ"

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)


class _Descending:
    """Reverses the order of a wrapped sort key (for ``DESC`` columns)."""

    __slots__ = ("key",)

    def __init__(self, key: object):
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.key == self.key

    def __repr__(self) -> str:
        return f"desc({self.key!r})"


class _TieBreak:
    """The last part of a row's sort key: the row, ordered by its
    ``repr``.  Reprs are value-faithful (ongoing rationals render their
    canonical reduced form), so equal rows encode equally and distinct
    rows differently — the full key is unique per row.

    The repr is rendered only for a tie: a tuple comparison asks ``==``
    of each part before ``<`` of the first unequal one, so this part is
    compared only when every sort column ties, and ``==`` is the rows'
    own equality.
    """

    __slots__ = ("row", "_text")

    def __init__(self, row: OngoingTuple):
        self.row = row
        self._text: Optional[str] = None

    def _repr(self) -> str:
        if self._text is None:
            self._text = repr(self.row)
        return self._text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TieBreak) and self.row == other.row

    def __lt__(self, other: "_TieBreak") -> bool:
        return self._repr() < other._repr()


def _eventual_key(value: object) -> object:
    """A sortable key for *value* under the eventual order.

    Ongoing numbers are ordered by where they settle as rt → ∞: an
    ongoing integer with final affine form ``b + k·rt`` sorts by the
    ``(growth, offset)`` pair ``(k, b)``; an ongoing rational supplies
    the same pair shape via :meth:`OngoingRational.eventual_key`; fixed
    numbers embed as ``(0, value)`` so mixed columns stay comparable.
    Integer pairs stay plain ints — they order against a rational's
    fractions natively, and a top-k over a fixed key compares ints.
    Non-numeric fixed values (strings, …) compare natively.
    """
    if isinstance(value, OngoingInt):
        final = value.segments[-1]
        return (final[3], final[2])
    if isinstance(value, OngoingRational):
        return value.eventual_key()
    if isinstance(value, int) and not isinstance(value, bool):
        return (0, value)
    return value


class SortLimitOp(PhysicalOperator):
    """ORDER BY + LIMIT with a delta-maintained top-k boundary.

    Rows are ordered by the **eventual order** of their sort-key values
    (see :func:`_eventual_key`), with a deterministic whole-row encoding
    as the final tie-break (:class:`_TieBreak`, rendered for ties only)
    so the order — and therefore the top-k *set* — is insensitive to
    input order.

    The state is O(k): ``window``, a sorted list of ``(row_key, row)`` —
    the current top-k (all rows when there is no limit) — plus
    ``overflow``, a bare count of the rows ranking beyond it.
    Invariant: ``overflow > 0`` implies the window is full — so a window
    that is not full accepts every insert, and an in-window delete with
    ``overflow == 0`` simply shrinks the result.  An insert or delete
    lands in O(Δ log k) while it stays cleanly in or out of the window;
    deleting a window row while overflow rows exist evicts the boundary
    — the next-best row is unknown — and raises
    :class:`NonIncrementalDelta`, which the caller answers with the
    automatic full refresh.  Without a limit the operator is a
    set-semantics identity.

    A cold batch lands in window order: its inserts run best first and
    each one is counted as it lands, so over an empty window the
    derivation counts — and, at the root, the result store and every
    snapshot of it — hold the rows sorted.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        key_positions: Sequence[Tuple[int, bool]],
        limit: Optional[int],
        sort_keys: Sequence[Tuple[str, bool]] = (),
    ):
        self.child = child
        self.key_positions = tuple(key_positions)
        self.limit = limit
        self.sort_keys = tuple(sort_keys)
        self.schema = child.schema

    def _row_key(self, item: OngoingTuple) -> Tuple[object, ...]:
        parts: List[object] = []
        for position, descending in self.key_positions:
            key = _eventual_key(item.values[position])
            parts.append(_Descending(key) if descending else key)
        parts.append(_TieBreak(item))
        return tuple(parts)

    def _describe(self) -> str:
        keys = ", ".join(
            f"{name} DESC" if descending else name
            for name, descending in self.sort_keys
        )
        limit = "" if self.limit is None else f" limit={self.limit}"
        return f"SortLimit (keys=[{keys}]{limit})"

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def delta_state(self) -> OperatorState:
        state = OperatorState()
        state.extra["window"] = []
        state.extra["overflow"] = 0
        return state

    def check_state(self, state: OperatorState) -> List[str]:
        problems: List[str] = []
        window = state.extra["window"]
        if len(window) != len(state.counts):
            problems.append(
                f"window holds {len(window)} rows, counts hold "
                f"{len(state.counts)}"
            )
        elif any(item not in state.counts for _, item in window):
            problems.append("window row missing from the derivation counts")
        elif any(
            window[i][0] > window[i + 1][0] for i in range(len(window) - 1)
        ):
            problems.append("window keys out of order")
        overflow = state.extra["overflow"]
        if overflow and (self.limit is None or len(window) != self.limit):
            problems.append(
                f"overflow={overflow} with a non-full window "
                f"({len(window)}/{self.limit})"
            )
        return problems

    def access_paths(self, state: OperatorState) -> Dict[str, str]:
        window = state.extra["window"]
        overflow = state.extra["overflow"]
        return {"window": f"topk:window({len(window)})+overflow({overflow})"}

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        (delta,) = deltas
        window: List[Tuple[Tuple[object, ...], OngoingTuple]] = state.extra[
            "window"
        ]
        overflow: int = state.extra["overflow"]
        k = self.limit
        changes: Dict[OngoingTuple, int] = {}
        for item in delta.deleted:
            entry = (self._row_key(item), item)
            position = bisect_left(window, entry)
            if position < len(window) and window[position][0] == entry[0]:
                if overflow:
                    raise NonIncrementalDelta(
                        "top-k boundary evicted: delete inside the window "
                        "with rows beyond the limit"
                    )
                window.pop(position)
                changes[item] = changes.get(item, 0) - 1
            else:
                overflow -= 1
                if overflow < 0:
                    raise NonIncrementalDelta(
                        "delete of a tuple unknown to the top-k window"
                    )
        # Inserts run best first: a row outside the best k of its own
        # batch cannot make the window, and in ascending order each search
        # starts behind the previous landing spot — so a batch into an
        # empty window (a cold build) costs one sort and k appends.
        fresh = sorted((self._row_key(item), item) for item in delta.inserted)
        if k is not None and len(fresh) > k:
            overflow += len(fresh) - k
            del fresh[k:]
        position = 0
        for entry in fresh:
            position = bisect_left(window, entry, position)
            if position < len(window) and window[position][0] == entry[0]:
                raise NonIncrementalDelta(
                    "insert of a tuple already in the top-k window"
                )
            if k is not None and len(window) >= k and position >= k:
                overflow += 1
                continue
            window.insert(position, entry)
            item = entry[1]
            changes[item] = changes.get(item, 0) + 1
            if k is not None and len(window) > k:
                _, evicted = window.pop()
                overflow += 1
                changes[evicted] = changes.get(evicted, 0) - 1
        state.extra["overflow"] = overflow
        state.cached_rows = len(window)
        return commit_changes(state, changes)
