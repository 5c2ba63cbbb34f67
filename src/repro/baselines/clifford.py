"""Clifford et al. [3] — the instantiate-when-accessed baseline.

Clifford's framework replaces *now* with the reference time whenever an
ongoing value is accessed, so queries run entirely on fixed data with the
classical operations.  The price: the result is **only valid at the chosen
reference time** and gets outdated as time passes by — the application must
re-evaluate the query to stay correct.  The evaluation section of the paper
measures exactly this trade-off (Figs. 8, 10, 11, 12).

This module provides:

* :func:`bind_relation` — instantiate a whole ongoing relation at ``rt``
  (the scan-time bind the paper implemented as a C function in the
  PostgreSQL kernel);
* a small fixed-relation executor (:func:`selection`, :func:`hash_join`,
  :func:`sweep_join`) so Clifford's runs use the same algorithmic toolbox
  as the ongoing engine — only on instantiated data with fixed predicates;
* :func:`cliff_max_reference_time` — the ``Cliff_max`` convention of the
  evaluation: a reference time greater than the latest fixed end point in
  the data, representing the typical "query at the current time" use;
* :func:`evaluate_fixed` — the paper's correctness contract
  ``‖Q(D)‖rt = Q(‖D‖rt)`` run from its right-hand side: bind the
  database at ``rt``, then evaluate the logical plan classically on the
  bound rows.  With :func:`critical_points` (every reference time at
  which such a result can change) it is the independent oracle the
  engine's operators are tested against;
* :func:`evaluate_pointwise` — the definition of the two nodes
  ``evaluate_fixed`` refuses, an Aggregate and a limited SortLimit: a
  fixed GROUP BY, resp. a top-k, over the bag of the child's ongoing
  tuples, bound at ``rt``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.baselines.fixed_algebra import (
    FIXED_PREDICATES,
    FixedInterval,
    intersect_f,
)
from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF, TimePoint, is_finite
from repro.core.timepoint import OngoingTimePoint
from repro.engine import plan as logical
from repro.errors import QueryError
from repro.relational.predicates import (
    AllenPredicate,
    And,
    Column,
    Comparison,
    Expression,
    IntervalIntersection,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Attribute, AttributeKind, Schema
from repro.relational.tuples import FixedTuple, OngoingTuple, bind_value

__all__ = [
    "bind_relation",
    "selection",
    "hash_join",
    "sweep_join",
    "cliff_max_reference_time",
    "NotSnapshotReducible",
    "evaluate_fixed",
    "evaluate_pointwise",
    "critical_points",
]


def bind_relation(relation: OngoingRelation, rt: TimePoint) -> List[FixedTuple]:
    """Instantiate every tuple of *relation* at *rt* (omitting RT misses).

    Returns a list (not a set): the instantiating baselines pay the bind
    cost per access, which is what the runtime experiments measure; callers
    needing set semantics wrap the result themselves.
    """
    return _bind(relation.schema, relation.tuples, rt)


def _bind(
    schema: Schema, tuples: Sequence[OngoingTuple], rt: TimePoint
) -> List[FixedTuple]:
    """``‖t‖rt`` of every tuple whose RT contains *rt*, each row built anew.

    The engine's :class:`~repro.relational.tuples.Binder` keeps the row
    of a tuple that binds alike at every rt and hands it out again; this
    baseline does not.  Clifford's approach instantiates the database at
    each access, and the oracle must not share the engine's memo.  Equal
    bound intervals are one pair within a call, as in the binder.
    """
    interval = AttributeKind.ONGOING_INTERVAL
    kinds = list(enumerate(attribute.kind for attribute in schema))
    scalars = [p for p, kind in kinds if kind.is_ongoing and kind is not interval]
    intervals = [p for p, kind in kinds if kind is interval]
    shared: Dict[object, object] = {}
    share = shared.setdefault
    bound: List[FixedTuple] = []
    for item in tuples:
        if rt not in item.rt:
            continue
        row = list(item.values)
        for position in scalars:
            row[position] = bind_value(row[position], rt)
        for position in intervals:
            pair = bind_value(row[position], rt)
            row[position] = share(pair, pair)
        bound.append(tuple(row))
    return bound


def selection(
    rows: Sequence[FixedTuple],
    vt_position: int,
    predicate_name: str,
    argument: FixedInterval,
) -> List[FixedTuple]:
    """``σ_{VT pred argument}`` on instantiated rows with fixed predicates."""
    predicate = FIXED_PREDICATES[predicate_name]
    return [row for row in rows if predicate(row[vt_position], argument)]


def hash_join(
    left: Sequence[FixedTuple],
    right: Sequence[FixedTuple],
    left_keys: Sequence[int],
    right_keys: Sequence[int],
    residual: Callable[[FixedTuple, FixedTuple], bool] | None = None,
) -> List[FixedTuple]:
    """Classical hash join on instantiated rows (concatenating matches)."""
    table: Dict[Tuple[object, ...], List[FixedTuple]] = {}
    for row in right:
        key = tuple(row[position] for position in right_keys)
        table.setdefault(key, []).append(row)
    output: List[FixedTuple] = []
    for row in left:
        key = tuple(row[position] for position in left_keys)
        bucket = table.get(key)
        if not bucket:
            continue
        for match in bucket:
            if residual is None or residual(row, match):
                output.append(row + match)
    return output


def sweep_join(
    left: Sequence[FixedTuple],
    right: Sequence[FixedTuple],
    left_vt: int,
    right_vt: int,
    predicate_name: str = "overlaps",
    residual: Callable[[FixedTuple, FixedTuple], bool] | None = None,
) -> List[FixedTuple]:
    """Plane-sweep interval join on instantiated rows.

    For ``overlaps`` the sweep is exact; for other temporal predicates the
    envelope candidates are post-filtered with the fixed predicate.
    """
    predicate = FIXED_PREDICATES[predicate_name]
    left_sorted = sorted(
        ((row[left_vt], row) for row in left), key=lambda pair: pair[0][0]
    )
    right_sorted = sorted(
        ((row[right_vt], row) for row in right), key=lambda pair: pair[0][0]
    )
    output: List[FixedTuple] = []

    def emit(left_row: FixedTuple, right_row: FixedTuple) -> None:
        if predicate(left_row[left_vt], right_row[right_vt]) and (
            residual is None or residual(left_row, right_row)
        ):
            output.append(left_row + right_row)

    i, j = 0, 0
    n_left, n_right = len(left_sorted), len(right_sorted)
    while i < n_left and j < n_right:
        left_interval, left_row = left_sorted[i]
        right_interval, right_row = right_sorted[j]
        if left_interval[0] <= right_interval[0]:
            end = left_interval[1]
            k = j
            while k < n_right and right_sorted[k][0][0] < end:
                emit(left_row, right_sorted[k][1])
                k += 1
            i += 1
        else:
            end = right_interval[1]
            k = i
            while k < n_left and left_sorted[k][0][0] < end:
                emit(left_sorted[k][1], right_row)
                k += 1
            j += 1
    return output


#: The kinds whose values are time points: their components bound the data.
_TEMPORAL = (AttributeKind.ONGOING_POINT, AttributeKind.ONGOING_INTERVAL)


def cliff_max_reference_time(*relations: OngoingRelation) -> TimePoint:
    """A reference time greater than the latest finite end point in the data.

    ``Cliff_max`` in the evaluation: instantiating at this time represents
    the common case of querying close to the current time (all expanding
    intervals have reached their largest extent relative to the fixed data).
    """
    latest = MINUS_INF
    for relation in relations:
        temporal = [
            position
            for position, attribute in enumerate(relation.schema)
            if attribute.kind in _TEMPORAL
        ]
        for item in relation.tuples:
            values = item.values
            for position in temporal:
                for component in values[position].components():
                    if is_finite(component) and component > latest:
                        latest = component
    if latest == MINUS_INF:
        raise ValueError("relations contain no finite time points")
    return latest + 1


# ----------------------------------------------------------------------
# The paper's definition, runnable: Q(‖D‖rt)
# ----------------------------------------------------------------------


class NotSnapshotReducible(QueryError):
    """The plan holds a node whose ongoing result is not ``Q(‖D‖rt)``.

    An aggregate counts ongoing tuples, not the rows they bind to (two
    tuples that bind to one row at ``rt`` count twice), and a LIMIT picks
    ongoing tuples by their eventual order, not the rows bound at ``rt``
    — see :class:`~repro.engine.plan.Aggregate` and
    :class:`~repro.engine.plan.SortLimit`.  Neither has a fixed-semantics
    counterpart over the bound database; each is defined over its child's
    ongoing tuples instead, by :func:`evaluate_pointwise`.
    """


_COMPARISONS: Dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


def evaluate_fixed(
    plan: logical.PlanNode, database, rt: TimePoint
) -> FrozenSet[FixedTuple]:
    """``Q(‖D‖rt)``: *plan* evaluated classically over *database* bound at *rt*.

    Every scanned table is bound with :func:`bind_relation`, and each
    node runs as the fixed relational operator on sets of bound rows:
    predicates and computed columns read bound values (Allen relations
    through :data:`~repro.baselines.fixed_algebra.FIXED_PREDICATES`,
    ``∩`` through :func:`~repro.baselines.fixed_algebra.intersect_f`,
    comparisons as plain operators, literals bound at *rt*).  By the
    paper's Theorem 2 the engine's result of *plan*, instantiated at
    *rt*, must equal this set.

    *database* is anything whose ``relation(name)`` returns the
    :class:`OngoingRelation` of a table.  The domain is Scan, Select,
    Project, Join, Union, Difference, Distinct and a SortLimit without
    a limit (a set-semantics identity); an Aggregate or a limited
    SortLimit raises :class:`NotSnapshotReducible`.
    """
    return frozenset(_evaluate(plan, database, rt)[1])


def _evaluate(
    node: logical.PlanNode, database, rt: TimePoint
) -> Tuple[Schema, Iterable[FixedTuple]]:
    """The output schema of *node* (for name lookups) and its bound rows."""
    if isinstance(node, logical.Scan):
        relation = database.relation(node.table)
        return relation.schema, bind_relation(relation, rt)
    if isinstance(node, logical.Select):
        schema, rows = _evaluate(node.child, database, rt)
        holds = _predicate(node.predicate, schema, rt)
        return schema, [row for row in rows if holds(row)]
    if isinstance(node, logical.Project):
        schema, rows = _evaluate(node.child, database, rt)
        attributes: List[Attribute] = []
        columns: List[Callable[[FixedTuple], object]] = []
        for item in node.items:
            if isinstance(item, str):
                attributes.append(schema.attribute(item))
                columns.append(_expression(Column(item), schema, rt))
            else:
                attributes.append(Attribute(item[0]))
                columns.append(_expression(item[1], schema, rt))
        return Schema(attributes), [
            tuple(column(row) for column in columns) for row in rows
        ]
    if isinstance(node, logical.Join):
        left_schema, left_rows = _evaluate(node.left, database, rt)
        right_schema, right_rows = _evaluate(node.right, database, rt)
        if node.left_name:
            left_schema = left_schema.qualify(node.left_name)
        if node.right_name:
            right_schema = right_schema.qualify(node.right_name)
        schema = left_schema.concat(right_schema)
        holds = _predicate(node.predicate, schema, rt)
        return schema, [
            pair
            for left in left_rows
            for right in right_rows
            if holds(pair := left + right)
        ]
    if isinstance(node, (logical.Union, logical.Difference)):
        schema, left_rows = _evaluate(node.left, database, rt)
        _, right_rows = _evaluate(node.right, database, rt)
        if isinstance(node, logical.Union):
            return schema, set(left_rows) | set(right_rows)
        return schema, set(left_rows) - set(right_rows)
    if isinstance(node, logical.Distinct) or (
        isinstance(node, logical.SortLimit) and node.limit is None
    ):
        return _evaluate(node.child, database, rt)
    raise NotSnapshotReducible(
        f"{type(node).__name__} has no fixed-semantics counterpart: {node!r}"
    )


#: Where a top-k ranks its sort keys: the last reference time of T.  The
#: ongoing numbers a key can hold are in their final affine form there,
#: with offsets far below ``PLUS_INF``, so their order at it is the
#: eventual order ``SortLimit`` ranks by.
_SETTLED: TimePoint = PLUS_INF - 1


def evaluate_pointwise(
    plan: logical.PlanNode, child: OngoingRelation, rt: TimePoint
) -> FrozenSet[FixedTuple]:
    """``‖plan‖rt`` of an Aggregate or a limited SortLimit, from the ongoing
    tuples *child* its child evaluates to.

    Both nodes are defined over the **bag** of the child's ongoing
    tuples, not over ``‖child‖rt``: two tuples that bind to one row at
    *rt* are two members.

    * ``γ``: the fixed GROUP BY over the child's tuples whose RT holds
      *rt*, each bound at *rt* — COUNT is ``len``, SUM_DURATION the
      ``sum`` of the bound intervals' clamped lengths, MIN / MAX are
      ``min`` / ``max``, AVG the exact :class:`~fractions.Fraction` mean.
      A group exists at *rt* only with a member there, the scalar one
      too — except that a scalar aggregate over a child with no tuples
      at all is its one row of zeros, at every *rt*.
    * ``ORDER BY … LIMIT k``: the child's tuples — all of them, whatever
      their RT — ranked by their sort keys bound where ongoing numbers
      have settled (the eventual order; ties by the tuple's ``repr``),
      the first *k* kept and bound at *rt*.

    *child* is taken as given — a caller holds it to its own definition
    first — and bound as :func:`bind_relation` binds; the rest is plain
    Python over fixed values.
    """
    schema = child.schema
    if isinstance(plan, logical.Aggregate):
        if not plan.group_columns and not child.tuples:
            return frozenset({(0,) * len(plan.specs)})
        keys = [schema.index_of(name) for name in plan.group_columns]
        groups: Dict[Tuple[object, ...], List[FixedTuple]] = {}
        for row in _bind(schema, child.tuples, rt):
            groups.setdefault(tuple(row[p] for p in keys), []).append(row)
        return frozenset(
            key + tuple(_aggregate(spec, schema, rows) for spec in plan.specs)
            for key, rows in groups.items()
        )
    if isinstance(plan, logical.SortLimit) and plan.limit is not None:
        ranked = sorted(child.tuples, key=repr)
        for name, descending in reversed(plan.sort_keys):  # stable sorts
            position = schema.index_of(name)
            ranked.sort(
                key=lambda item: bind_value(item.values[position], _SETTLED),
                reverse=descending,
            )
        return frozenset(_bind(schema, ranked[: plan.limit], rt))
    raise QueryError(f"no pointwise definition for {type(plan).__name__}")


def _aggregate(spec, schema: Schema, rows: List[FixedTuple]) -> object:
    """One aggregate *spec* over a group's bound *rows* (at least one)."""
    name, argument, _ = spec
    if name == "count":
        return len(rows)
    values = [row[schema.index_of(argument)] for row in rows]
    if name == "sum_duration":
        return sum(max(0, end - start) for start, end in values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "avg":
        return Fraction(sum(values), len(values))
    raise QueryError(f"no pointwise definition for aggregate {name!r}")


def _expression(
    expression: Expression, schema: Schema, rt: TimePoint
) -> Callable[[FixedTuple], object]:
    """*expression* as a function of a bound row of *schema*."""
    if isinstance(expression, Column):
        return operator.itemgetter(schema.index_of(expression.name))
    if isinstance(expression, Literal):
        value = bind_value(expression.value, rt)
        return lambda row: value
    if isinstance(expression, IntervalIntersection):
        left = _expression(expression.left, schema, rt)
        right = _expression(expression.right, schema, rt)
        return lambda row: intersect_f(left(row), right(row))
    raise QueryError(f"no fixed semantics for expression {expression!r}")


def _predicate(
    predicate: Predicate, schema: Schema, rt: TimePoint
) -> Callable[[FixedTuple], bool]:
    """*predicate* as the classical test of a bound row of *schema*."""
    if isinstance(predicate, TruePredicate):
        return lambda row: True
    if isinstance(predicate, (And, Or)):
        parts = [_predicate(part, schema, rt) for part in predicate.parts]
        if isinstance(predicate, And):
            return lambda row: all(part(row) for part in parts)
        return lambda row: any(part(row) for part in parts)
    if isinstance(predicate, Not):
        part = _predicate(predicate.part, schema, rt)
        return lambda row: not part(row)
    if isinstance(predicate, Comparison):
        test = _COMPARISONS[predicate.op]
    elif isinstance(predicate, AllenPredicate):
        test = FIXED_PREDICATES[predicate.name]
    else:
        raise QueryError(f"no fixed semantics for predicate {predicate!r}")
    left = _expression(predicate.left, schema, rt)
    right = _expression(predicate.right, schema, rt)
    return lambda row: bool(test(left(row), right(row)))


def critical_points(database, plans: Iterable[logical.PlanNode]) -> List[TimePoint]:
    """Reference times at which ``evaluate_fixed`` of *plans* can change.

    Every finite component of every ongoing value in the tables the plans
    scan, every bound of those tuples' reference times, and every
    literal of the plans — each with its predecessor and successor —
    plus ``MINUS_INF``.  Between two consecutive points every bound
    value and every predicate over time points and intervals is
    constant, so checking these points checks every reference time.  An
    ongoing number contributes the starts of its segments; a comparison
    of a *growing* number against another can flip between them, and a
    caller comparing such numbers adds its own points.
    """
    components = set()
    for plan in plans:
        for name in plan.referenced_tables():
            for item in database.relation(name).tuples:
                for value in item.values:
                    components.update(_components(value))
                for start, end in item.rt:
                    components.update((start, end))
        for value in _literal_values(plan):
            components.update(_components(value))
            if isinstance(value, int) and not isinstance(value, bool):
                components.add(value)
    points = {MINUS_INF}
    for component in components:
        if is_finite(component):
            points.update((component - 1, component, component + 1))
    return sorted(points)


def _components(value: object) -> Tuple[TimePoint, ...]:
    """The time points at which *value*'s instantiation can change shape."""
    if isinstance(value, (OngoingTimePoint, OngoingInterval)):
        return value.components()
    if isinstance(value, OngoingInt):
        return tuple(segment[0] for segment in value.segments)
    if isinstance(value, OngoingRational):
        return _components(value.numerator) + _components(value.denominator)
    return ()


def _literal_values(plan: logical.PlanNode) -> Iterable[object]:
    """The values of every literal in *plan*'s predicates and expressions."""
    nodes = [plan]
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children())
        if isinstance(node, (logical.Select, logical.Join)):
            terms: List[object] = [node.predicate]
        elif isinstance(node, logical.Project):
            terms = [item[1] for item in node.items if not isinstance(item, str)]
        else:
            continue
        while terms:
            term = terms.pop()
            if isinstance(term, Literal):
                yield term.value
            elif isinstance(term, (And, Or)):
                terms.extend(term.parts)
            elif isinstance(term, Not):
                terms.append(term.part)
            elif isinstance(term, (Comparison, AllenPredicate, IntervalIntersection)):
                terms.extend((term.left, term.right))
