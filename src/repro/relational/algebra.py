"""The relational algebra on ongoing relations (Section VII-B, Theorem 2).

Each operator is defined by the requirement that, at every reference time,
its result instantiates to the result of the corresponding fixed-relation
operator on the instantiated inputs::

    σθ(R) = V   iff   ∀ rt: ‖V‖rt == σF_θF(‖R‖rt)

The implementations follow the equivalences proven in Theorem 2:

* **selection** restricts each tuple's reference time with the predicate's
  true-set: ``x.RT = r.RT ∧ θ(r)``, dropping tuples whose RT becomes empty;
* **Cartesian product / join** intersect the reference times of the paired
  input tuples (a tuple pair exists only where both inputs exist);
* **union** is plain set union;
* **difference** removes, per reference time, those rts at which an equal
  (instantiated) tuple exists in the subtrahend;
* **projection** keeps reference times untouched.

Predicates over fixed attributes behave classically: their ongoing boolean
is ``O_TRUE``/``O_FALSE``, so the RT either stays unchanged or becomes empty
(tuple dropped) — the paper's closing remark of Section VII.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.core import allen as _allen
from repro.core.boolean import OngoingBoolean, from_bool
from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.intervalset import EMPTY_SET, IntervalSet
from repro.core.operations import equal as _point_equal
from repro.core.rational import OngoingRational
from repro.core.timepoint import OngoingTimePoint
from repro.errors import SchemaError
from repro.relational.predicates import (
    Column,
    Expression,
    IntervalIntersection,
    Literal,
    Predicate,
    TRUE_PREDICATE,
)
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Attribute, AttributeKind, Schema
from repro.relational.tuples import OngoingTuple

__all__ = [
    "select",
    "project",
    "product",
    "join",
    "union",
    "difference",
    "intersection",
    "rename",
    "coalesce",
    "value_equality",
    "match_set",
]

ProjectionItem = Union[str, Tuple[str, Expression], Tuple[str, Expression, AttributeKind]]


# ======================================================================
# Selection
# ======================================================================


def select(relation: OngoingRelation, predicate: Predicate) -> OngoingRelation:
    """``σθ(R)`` — restrict each tuple's RT by the predicate's truth set.

    Implements Theorem 2's equivalence: the result contains, for every input
    tuple ``r`` with ``r.RT ∧ θ(r) ≠ ∅``, the tuple ``r`` with its reference
    time replaced by that conjunction.
    """
    schema = relation.schema
    survivors: List[OngoingTuple] = []
    for item in relation:
        truth = predicate.evaluate(item.values, schema)
        if truth.is_always_true():
            survivors.append(item)
            continue
        new_rt = item.rt.intersection(truth.true_set)
        if not new_rt.is_empty():
            survivors.append(item.with_rt(new_rt))
    return OngoingRelation(schema, survivors)


# ======================================================================
# Projection
# ======================================================================


def infer_kind(expression: Expression, schema: Schema) -> AttributeKind:
    """Attribute kind of a computed projection column."""
    if isinstance(expression, Column):
        return schema.attribute(expression.name).kind
    if isinstance(expression, IntervalIntersection):
        return AttributeKind.ONGOING_INTERVAL
    if isinstance(expression, Literal):
        if isinstance(expression.value, OngoingInterval):
            return AttributeKind.ONGOING_INTERVAL
        if isinstance(expression.value, OngoingTimePoint):
            return AttributeKind.ONGOING_POINT
        if isinstance(expression.value, (OngoingInt, OngoingRational)):
            return AttributeKind.ONGOING_INTEGER
        return AttributeKind.FIXED
    return AttributeKind.FIXED


def project(
    relation: OngoingRelation, items: Sequence[ProjectionItem]
) -> OngoingRelation:
    """``πB(R)`` — keep (or compute) the listed columns, RT untouched.

    *items* mixes plain attribute names with ``(name, expression)`` pairs
    for computed columns, e.g. the running example's
    ``("Resp", col("B.VT").intersect(col("L.VT")))``.  Duplicate result
    tuples (same values and same RT) merge by set semantics, exactly as in
    Theorem 2's ``{x | ∃ r ...}`` formulation.
    """
    schema = relation.schema
    attributes: List[Attribute] = []
    expressions: List[Expression] = []
    for item in items:
        if isinstance(item, str):
            attributes.append(schema.attribute(item))
            expressions.append(Column(item))
        else:
            if len(item) == 3:
                name, expression, kind = item  # type: ignore[misc]
            else:
                name, expression = item  # type: ignore[misc]
                kind = infer_kind(expression, schema)
            attributes.append(Attribute(name, kind))
            expressions.append(expression)
    out_schema = Schema(attributes)
    out_tuples = [
        OngoingTuple(
            tuple(expression.evaluate(row.values, schema) for expression in expressions),
            row.rt,
        )
        for row in relation
    ]
    return OngoingRelation(out_schema, out_tuples)


# ======================================================================
# Product and join
# ======================================================================


def _qualified_schemas(
    left: OngoingRelation,
    right: OngoingRelation,
    left_name: str | None,
    right_name: str | None,
) -> Tuple[Schema, Schema]:
    """Qualify attribute names when the product would create duplicates."""
    left_schema = left.schema
    right_schema = right.schema
    clash = set(left_schema.names) & set(right_schema.names)
    if left_name:
        left_schema = left_schema.qualify(left_name)
    if right_name:
        right_schema = right_schema.qualify(right_name)
    if not left_name and not right_name and clash:
        raise SchemaError(
            f"product would duplicate attributes {sorted(clash)}; "
            f"pass left_name/right_name to qualify them"
        )
    return left_schema, right_schema


def product(
    left: OngoingRelation,
    right: OngoingRelation,
    *,
    left_name: str | None = None,
    right_name: str | None = None,
) -> OngoingRelation:
    """``R × S`` — pair tuples; ``x.RT = r.RT ∧ s.RT``; drop empty RTs.

    The reference time intersection implements Theorem 2: at a reference
    time rt the pair belongs to the instantiated product iff both input
    tuples belong to their instantiated relations at rt.
    """
    left_schema, right_schema = _qualified_schemas(left, right, left_name, right_name)
    out_schema = left_schema.concat(right_schema)
    out: List[OngoingTuple] = []
    for r in left:
        r_universal = r.rt.is_universal()
        for s in right:
            if r_universal:
                rt = s.rt
            elif s.rt.is_universal():
                rt = r.rt
            else:
                rt = r.rt.intersection(s.rt)
                if rt.is_empty():
                    continue
            out.append(OngoingTuple(r.values + s.values, rt))
    return OngoingRelation(out_schema, out)


def join(
    left: OngoingRelation,
    right: OngoingRelation,
    predicate: Predicate = TRUE_PREDICATE,
    *,
    left_name: str | None = None,
    right_name: str | None = None,
) -> OngoingRelation:
    """``R ⋈θ S = σθ(R × S)`` — the derived theta-join of Section VII-B.

    Fused implementation: pairs whose RT intersection is already empty never
    reach the predicate.  (The engine layer provides faster physical join
    algorithms; this is the reference implementation the engine is tested
    against.)
    """
    left_schema, right_schema = _qualified_schemas(left, right, left_name, right_name)
    out_schema = left_schema.concat(right_schema)
    out: List[OngoingTuple] = []
    for r in left:
        for s in right:
            rt = r.rt.intersection(s.rt)
            if rt.is_empty():
                continue
            values = r.values + s.values
            truth = predicate.evaluate(values, out_schema)
            if truth.is_always_true():
                final_rt = rt
            else:
                final_rt = rt.intersection(truth.true_set)
                if final_rt.is_empty():
                    continue
            out.append(OngoingTuple(values, final_rt))
    return OngoingRelation(out_schema, out)


# ======================================================================
# Set operators
# ======================================================================


def union(left: OngoingRelation, right: OngoingRelation) -> OngoingRelation:
    """``R ∪ S`` — plain set union over (values, RT) tuples (Theorem 2)."""
    left.schema.require_compatible(right.schema, "union")
    return OngoingRelation(left.schema, (*left.tuples, *right.tuples))


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

    This is the quantifier kernel of the Theorem 2 difference (and of
    intersection); the incremental difference operator of
    :mod:`repro.engine.executor` reuses it to recompute match sets for
    exactly the tuples a right-side delta can affect.
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


def difference(left: OngoingRelation, right: OngoingRelation) -> OngoingRelation:
    """``R − S`` per Theorem 2.

    A result tuple keeps exactly the reference times at which no equal
    (instantiated) tuple exists in ``S``::

        x.RT = { rt ∈ r.RT | ¬∃ s ∈ S: ‖r.A‖rt = ‖s.A‖rt and rt ∈ s.RT }

    Tuples whose reference time becomes empty are dropped.
    """
    left.schema.require_compatible(right.schema, "difference")
    schema = left.schema
    out: List[OngoingTuple] = []
    for r in left:
        matched = match_set(schema, r.values, right)
        remaining = r.rt.difference(matched)
        if not remaining.is_empty():
            out.append(r.with_rt(remaining))
    return OngoingRelation(schema, out)


def intersection(left: OngoingRelation, right: OngoingRelation) -> OngoingRelation:
    """``R ∩ S`` — derived: keep the rts at which an equal tuple exists in S.

    Equivalent to ``R − (R − S)`` but computed directly.
    """
    left.schema.require_compatible(right.schema, "intersection")
    schema = left.schema
    out: List[OngoingTuple] = []
    for r in left:
        matched = match_set(schema, r.values, right)
        kept = r.rt.intersection(matched)
        if not kept.is_empty():
            out.append(r.with_rt(kept))
    return OngoingRelation(schema, out)


# ======================================================================
# Auxiliary operators
# ======================================================================


def rename(relation: OngoingRelation, mapping: Dict[str, str]) -> OngoingRelation:
    """``ρ(R)`` — rename attributes; tuples are shared unchanged."""
    return OngoingRelation(relation.schema.rename(mapping), relation.tuples)


def coalesce(relation: OngoingRelation) -> OngoingRelation:
    """Merge tuples with identical values by unioning their reference times.

    Not an operator of the paper's algebra (which keeps set semantics over
    (values, RT) pairs), but a useful normalization: projection and union
    can produce several tuples with the same values and different RTs, and
    coalescing yields the canonical one-tuple-per-value form.  The
    instantiation at every reference time is unchanged.
    """
    merged: Dict[Tuple[object, ...], IntervalSet] = {}
    order: List[Tuple[object, ...]] = []
    for item in relation:
        if item.values in merged:
            merged[item.values] = merged[item.values].union(item.rt)
        else:
            merged[item.values] = item.rt
            order.append(item.values)
    return OngoingRelation(
        relation.schema,
        (OngoingTuple(values, merged[values]) for values in order),
    )
