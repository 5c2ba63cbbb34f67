"""The query planner — Section VIII's optimization, made explicit.

The planner translates logical plans into physical operator trees and
applies the paper's two optimizations:

1. **Predicate split.**  A conjunctive predicate is split into the
   conjuncts over fixed attributes only (whose truth does not depend on the
   reference time — evaluated as cheap boolean filters "in the WHERE
   clause") and the conjuncts referencing ongoing attributes (which restrict
   the result tuple's reference time).

2. **Join algorithm selection.**  Fixed equality conjuncts become hash-join
   keys; a temporal ``overlaps`` conjunct enables the envelope-overlap
   merge join; anything else falls back to a nested loop.  All residual
   conjuncts — fixed and ongoing — run on the join's candidate pairs.

``Planner(optimize=False)`` disables the split (everything runs through the
general ongoing path); the test suite uses it to verify that the
optimization never changes results, and an ablation benchmark measures what
it buys.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.rational import OngoingRational
from repro.core.timepoint import OngoingTimePoint
from repro.engine import indexes
from repro.engine import plan as logical
from repro.engine.delta import Delta, OperatorState, shared_source
from repro.engine.executor import (
    AggregateOp,
    DifferenceOp,
    DistinctOp,
    FixedFilter,
    HashJoin,
    IntervalScan,
    MergeIntervalJoin,
    NestedLoopJoin,
    OngoingFilter,
    PhysicalOperator,
    ProjectOp,
    SeqScan,
    SortLimitOp,
    UnionOp,
)
from repro.engine.indexes import ONGOING_VALUES
from repro.errors import QueryError, SchemaError
from repro.relational.predicates import (
    AllenPredicate,
    Column,
    Comparison,
    Expression,
    IntervalIntersection,
    Literal,
    Predicate,
    TruePredicate,
)
from repro.relational.schema import Attribute, AttributeKind, Schema

__all__ = ["Planner", "plan_query"]


class Planner:
    """Translates logical plans into physical operator trees.

    Parameters
    ----------
    optimize:
        When ``True`` (default) the Section VIII predicate split and join
        algorithm selection are applied.  When ``False`` every predicate is
        evaluated on the generic ongoing path and all joins are nested
        loops — the unoptimized reference strategy, which reads no
        access path.  Optimized, a selection directly over a scan of at
        least :data:`~repro.engine.indexes.INDEX_THRESHOLD` rows reads
        it through an access path (:meth:`_plan_select`).
    shared:
        Plan fingerprint → the :class:`~repro.relational.relation.ResultStore`
        of a maintained plan with that fingerprint.  A sub-tree found
        there is not planned again: it becomes a stateless
        :class:`~repro.engine.executor.SeqScan` over the store, labelled
        ``@<fingerprint>`` (top-down, so the largest sub-tree wins).
        The caller vouches that each store is current.
    """

    def __init__(
        self,
        *,
        optimize: bool = True,
        shared: Optional[Mapping[str, object]] = None,
    ):
        self.optimize = optimize
        self.shared = shared or {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def plan(self, node: logical.PlanNode, database) -> PhysicalOperator:
        """Build the physical operator tree for *node* against *database*."""
        if self.shared:
            fingerprint = node.fingerprint()
            store = self.shared.get(fingerprint)
            if store is not None:
                return SeqScan(store, label=shared_source(fingerprint))
        if isinstance(node, logical.Scan):
            table = database.table(node.table)
            return SeqScan(table.as_relation(), label=node.table, live=table)
        if isinstance(node, logical.Select):
            return self._plan_select(node, database)
        if isinstance(node, logical.Project):
            return self._plan_project(node, database)
        if isinstance(node, logical.Join):
            return self._plan_join(node, database)
        if isinstance(node, logical.Union):
            return UnionOp(self.plan(node.left, database), self.plan(node.right, database))
        if isinstance(node, logical.Difference):
            return DifferenceOp(
                self.plan(node.left, database), self.plan(node.right, database)
            )
        if isinstance(node, logical.Aggregate):
            return self._plan_aggregate(node, database)
        if isinstance(node, logical.Distinct):
            return DistinctOp(self.plan(node.child, database))
        if isinstance(node, logical.SortLimit):
            return self._plan_sort_limit(node, database)
        raise QueryError(f"unknown plan node {node!r}")

    # ------------------------------------------------------------------
    # Selection: the predicate split
    # ------------------------------------------------------------------

    def _split_conjuncts(
        self, predicate: Predicate, schema: Schema
    ) -> Tuple[List[Predicate], List[Predicate]]:
        """Partition top-level conjuncts into (fixed-only, ongoing)."""
        fixed_parts: List[Predicate] = []
        ongoing_parts: List[Predicate] = []
        for conjunct in predicate.conjuncts():
            if isinstance(conjunct, TruePredicate):
                continue
            if self.optimize and conjunct.is_fixed_only(schema):
                fixed_parts.append(conjunct)
            else:
                ongoing_parts.append(conjunct)
        return fixed_parts, ongoing_parts

    def _plan_select(
        self, node: logical.Select, database
    ) -> PhysicalOperator:
        """The predicate split, and the access path of the scan below.

        A selection directly over a base-table scan (not over a
        ``@fingerprint`` store, which has no indexes) may read the scan
        through an access path — an interval-index window for a temporal
        conjunct (:meth:`_plan_interval_scan`), else an equality bucket
        for a ``column = constant`` fixed conjunct
        (:meth:`_plan_bucket_probe`) — when the table holds at least
        :data:`~repro.engine.indexes.INDEX_THRESHOLD` rows (read at call
        time, so a test can move the cut).  Either is a superset of what
        the selection keeps, and the selection's filters above still
        evaluate every candidate — which is why a probe is planned only
        here, directly under the selection that owns its conjunct.
        """
        child = self.plan(node.child, database)
        fixed_parts, ongoing_parts = self._split_conjuncts(node.predicate, child.schema)
        if (
            self.optimize
            and isinstance(node.child, logical.Scan)
            and type(child) is SeqScan
            and child.label == node.child.table
            and len(child.relation) >= indexes.INDEX_THRESHOLD
        ):
            table = database.table(node.child.table)
            # The indexes are built over the table's current snapshot: a
            # write since the scan took its own leaves the plain scan.
            with table.lock:
                if table.as_relation() is child.relation:
                    child = (
                        self._plan_interval_scan(table, child, ongoing_parts)
                        or self._plan_bucket_probe(table, child, fixed_parts)
                        or child
                    )
        result: PhysicalOperator = child
        if fixed_parts:
            result = FixedFilter(result, fixed_parts)
        if ongoing_parts:
            result = OngoingFilter(result, ongoing_parts)
        return result

    @staticmethod
    def _plan_interval_scan(
        table, child: SeqScan, ongoing_parts: Sequence[Predicate]
    ) -> Optional[IntervalScan]:
        """Swap a scan under a temporal selection for an index probe.

        Eligible when some ongoing conjunct compares an interval column
        of the scan against a constant interval with an overlap-family
        Allen relation — then envelope overlap with the constant's
        envelope is a necessary condition for the conjunct, so reading
        only the index candidates is lossless (the conjunct itself still
        runs in the enclosing :class:`OngoingFilter`).  Read by the cold
        build only; a warm apply reads no index.
        """
        for conjunct in ongoing_parts:
            probe = _as_index_probe(conjunct, child.schema)
            if probe is None:
                continue
            attribute, window = probe
            index = table.interval_index(attribute)
            if index is None:
                continue
            return IntervalScan(child.relation, index, window, label=table.name)
        return None

    @staticmethod
    def _plan_bucket_probe(
        table, child: SeqScan, fixed_parts: Sequence[Predicate]
    ) -> Optional[SeqScan]:
        """Give a scan under ``column = constant`` the constant's bucket.

        The bucket of :meth:`~repro.engine.database.Table.partition_index`
        holds exactly the rows whose value ``==`` the constant, which is
        what the fixed comparison tests — so it is a lossless candidate
        set (the conjunct itself still runs in the enclosing
        :class:`FixedFilter`).  A constant whose equality an ongoing
        comparison decides, or that cannot be hashed, is not probed.
        """
        for conjunct in fixed_parts:
            probe = _as_equality_probe(conjunct)
            if probe is None:
                continue
            column, value = probe
            buckets = table.partition_index(column)
            if buckets is None:
                continue
            return SeqScan(
                child.relation,
                label=child.label,
                live=child.live,
                probe=(column, value, buckets.get(value, ())),
            )
        return None

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------

    def _plan_project(
        self, node: logical.Project, database
    ) -> PhysicalOperator:
        child = self.plan(node.child, database)
        schema = child.schema
        attributes: List[Attribute] = []
        expressions: List[Expression] = []
        for item in node.items:
            if isinstance(item, str):
                attributes.append(schema.attribute(item))
                expressions.append(Column(item))
            else:
                if len(item) == 3:
                    name, expression, kind = item  # type: ignore[misc]
                    # The result is built unchecked, and the binder copies
                    # fixed columns through: refuse a fixed label on an
                    # ongoing expression here, as OngoingRelation does.
                    if (
                        kind is AttributeKind.FIXED
                        and infer_kind(expression, schema).is_ongoing
                    ):
                        raise SchemaError(
                            f"projection item {name!r} is declared fixed "
                            f"but computes an ongoing value"
                        )
                else:
                    name, expression = item  # type: ignore[misc]
                    kind = infer_kind(expression, schema)
                attributes.append(Attribute(name, kind))
                expressions.append(expression)
        return ProjectOp(child, expressions, Schema(attributes))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _plan_aggregate(
        self, node: logical.Aggregate, database
    ) -> PhysicalOperator:
        child = self.plan(node.child, database)
        schema = child.schema
        positions: List[int] = []
        for name in node.group_columns:
            if schema.attribute(name).kind.is_ongoing:
                raise SchemaError(
                    f"cannot group by ongoing attribute {name!r}; grouping "
                    f"keys must be fixed"
                )
            positions.append(schema.index_of(name))
        out_attributes = [schema.attribute(name) for name in node.group_columns]
        for _, _, output_name in node.specs:
            out_attributes.append(
                Attribute(output_name, AttributeKind.ONGOING_INTEGER)
            )
        return AggregateOp(
            child,
            positions,
            node.group_columns,
            node.specs,
            Schema(out_attributes),
        )

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------

    def _plan_sort_limit(
        self, node: logical.SortLimit, database
    ) -> PhysicalOperator:
        child = self.plan(node.child, database)
        schema = child.schema
        key_positions: List[Tuple[int, bool]] = []
        for name, descending in node.sort_keys:
            kind = schema.attribute(name).kind
            if kind in (AttributeKind.ONGOING_POINT, AttributeKind.ONGOING_INTERVAL):
                raise QueryError(
                    f"cannot order by {name!r}: ongoing time points and "
                    f"intervals have no eventual order; sort keys must be "
                    f"fixed or ongoing-numeric attributes"
                )
            key_positions.append((schema.index_of(name), descending))
        return SortLimitOp(child, key_positions, node.limit, node.sort_keys)

    # ------------------------------------------------------------------
    # Join: algorithm selection
    # ------------------------------------------------------------------

    def _plan_join(self, node: logical.Join, database) -> PhysicalOperator:
        left = self.plan(node.left, database)
        right = self.plan(node.right, database)
        left_schema = left.schema
        right_schema = right.schema
        clash = set(left_schema.names) & set(right_schema.names)
        if node.left_name:
            left_schema = left_schema.qualify(node.left_name)
            left = _Requalified(left, left_schema)
        if node.right_name:
            right_schema = right_schema.qualify(node.right_name)
            right = _Requalified(right, right_schema)
        if not node.left_name and not node.right_name and clash:
            raise SchemaError(
                f"join would duplicate attributes {sorted(clash)}; "
                f"pass left_name/right_name"
            )
        out_schema = left_schema.concat(right_schema)
        left_names = set(left_schema.names)
        right_names = set(right_schema.names)

        equi_keys: List[Tuple[int, int]] = []
        sweep_positions: Optional[Tuple[int, int]] = None
        fixed_residual: List[Predicate] = []
        ongoing_residual: List[Predicate] = []

        for conjunct in node.predicate.conjuncts():
            if isinstance(conjunct, TruePredicate):
                continue
            if self.optimize:
                key = _as_equi_key(conjunct, left_schema, right_schema, left_names, right_names)
                if key is not None:
                    equi_keys.append(key)
                    continue
                if sweep_positions is None:
                    sweep = _as_overlap_pair(
                        conjunct, left_schema, right_schema, left_names, right_names
                    )
                    if sweep is not None:
                        sweep_positions = sweep
                        ongoing_residual.append(conjunct)
                        continue
            if self.optimize and conjunct.is_fixed_only(out_schema):
                fixed_residual.append(conjunct)
            else:
                ongoing_residual.append(conjunct)

        if equi_keys:
            left_positions = [pair[0] for pair in equi_keys]
            right_positions = [pair[1] for pair in equi_keys]
            return HashJoin(
                left,
                right,
                left_positions,
                right_positions,
                out_schema,
                fixed_residual,
                ongoing_residual,
            )
        if sweep_positions is not None:
            return MergeIntervalJoin(
                left,
                right,
                sweep_positions[0],
                sweep_positions[1],
                out_schema,
                fixed_residual,
                ongoing_residual,
            )
        return NestedLoopJoin(left, right, out_schema, fixed_residual, ongoing_residual)


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


class _Requalified(PhysicalOperator):
    """Transparent schema-renaming wrapper: the identity, holding nothing.

    Like a scan below another operator it keeps no derivation counts —
    its output set *is* its child's, and the child's set-level delta is
    its own.  Only ever a join input, never a plan root (the result
    store serves from the root's counts).
    """

    def __init__(self, child: PhysicalOperator, schema: Schema):
        self.child = child
        self.schema = schema

    def _describe(self) -> str:
        return f"Qualify ({', '.join(self.schema.names[:4])}...)"

    def _children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def delta_state(self) -> OperatorState:
        state = OperatorState()
        state.counts = None
        return state

    def apply_delta(
        self, state: OperatorState, deltas: Sequence[Delta]
    ) -> Delta:
        (delta,) = deltas
        return delta


def _column_side(
    expression: Expression, left_names: Set[str], right_names: Set[str]
) -> Optional[str]:
    """Which input a single-column expression reads: 'left', 'right', None."""
    if not isinstance(expression, Column):
        return None
    if expression.name in left_names:
        return "left"
    if expression.name in right_names:
        return "right"
    return None


def _as_equi_key(
    conjunct: Predicate,
    left_schema: Schema,
    right_schema: Schema,
    left_names: Set[str],
    right_names: Set[str],
) -> Optional[Tuple[int, int]]:
    """Recognize ``left.col = right.col`` on fixed attributes (hash keys)."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    left_side = _column_side(conjunct.left, left_names, right_names)
    right_side = _column_side(conjunct.right, left_names, right_names)
    if left_side == "left" and right_side == "right":
        left_col, right_col = conjunct.left, conjunct.right
    elif left_side == "right" and right_side == "left":
        left_col, right_col = conjunct.right, conjunct.left
    else:
        return None
    assert isinstance(left_col, Column) and isinstance(right_col, Column)
    if left_schema.attribute(left_col.name).kind.is_ongoing:
        return None
    if right_schema.attribute(right_col.name).kind.is_ongoing:
        return None
    return (left_schema.index_of(left_col.name), right_schema.index_of(right_col.name))


def _as_overlap_pair(
    conjunct: Predicate,
    left_schema: Schema,
    right_schema: Schema,
    left_names: Set[str],
    right_names: Set[str],
) -> Optional[Tuple[int, int]]:
    """Recognize ``left.iv overlaps right.iv`` (merge-join eligibility)."""
    if not isinstance(conjunct, AllenPredicate) or conjunct.name != "overlaps":
        return None
    left_side = _column_side(conjunct.left, left_names, right_names)
    right_side = _column_side(conjunct.right, left_names, right_names)
    if left_side == "left" and right_side == "right":
        left_col, right_col = conjunct.left, conjunct.right
    elif left_side == "right" and right_side == "left":
        left_col, right_col = conjunct.right, conjunct.left
    else:
        return None
    assert isinstance(left_col, Column) and isinstance(right_col, Column)
    return (left_schema.index_of(left_col.name), right_schema.index_of(right_col.name))


#: Allen relations whose Table II definition demands both operands be
#: non-empty in every satisfying instantiation — then the two intervals
#: share at least one time point, their envelopes must overlap, and
#: envelope retrieval is a lossless candidate filter.
#: ``before``/``after``/``meets``/``met_by`` are excluded because their
#: satisfying intervals are disjoint (envelope overlap proves nothing).
_SHARED_POINT_ALWAYS = frozenset(
    {"overlaps", "starts", "started_by", "finishes", "finished_by"}
)

#: Relations whose Table II definition has an empty-operand escape
#: hatch: an empty interval counts as ``during`` any non-empty one, and
#: two empty intervals are ``interval_equals``.  Indexable only in the
#: orientation where the possibly-empty operand is the probe constant
#: and the constant provably never instantiates empty — the escape
#: disjunct is then statically false and the shared-point argument
#: applies again.
_EMPTY_ESCAPE = frozenset({"during", "contains", "interval_equals"})


def _never_empty(value: OngoingInterval) -> bool:
    """Conservatively: a fixed, non-degenerate interval (every
    instantiation at every reference time is the same non-empty range)."""
    return (
        value.start.a == value.start.b
        and value.end.a == value.end.b
        and value.start.a < value.end.a
    )


def _as_index_probe(
    conjunct: Predicate, schema: Schema
) -> Optional[Tuple[str, Tuple[int, int]]]:
    """Recognize ``column <allen> constant-interval`` (either orientation)
    over an ongoing attribute of *schema*; return the attribute name and
    the constant's envelope ``[a, d)`` as the probe window."""
    if not isinstance(conjunct, AllenPredicate):
        return None
    if (
        conjunct.name not in _SHARED_POINT_ALWAYS
        and conjunct.name not in _EMPTY_ESCAPE
    ):
        return None
    for column_on, (column, literal) in (
        ("left", (conjunct.left, conjunct.right)),
        ("right", (conjunct.right, conjunct.left)),
    ):
        if not isinstance(column, Column) or not isinstance(literal, Literal):
            continue
        value = literal.value
        if not isinstance(value, OngoingInterval):
            continue
        try:
            attribute = schema.attribute(column.name)
        except (QueryError, SchemaError):
            return None
        if not attribute.kind.is_ongoing:
            continue
        if conjunct.name in _EMPTY_ESCAPE:
            if not _never_empty(value):
                continue
            # during(i, j) escapes when i is empty; contains(i, j) ==
            # during(j, i) escapes when j is empty.  The column must not
            # sit in the escape slot.
            if conjunct.name == "during" and column_on == "left":
                continue
            if conjunct.name == "contains" and column_on == "right":
                continue
        return column.name, (value.start.a, value.end.b)
    return None


def _as_equality_probe(
    conjunct: Predicate,
) -> Optional[Tuple[str, object]]:
    """Recognize ``column = constant`` (either orientation) with a
    constant a bucket lookup can find; return the column name and it."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    for column, literal in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if not isinstance(column, Column) or not isinstance(literal, Literal):
            continue
        value = literal.value
        if isinstance(value, ONGOING_VALUES):
            return None
        try:
            hash(value)
        except TypeError:
            return None
        return column.name, value
    return None


def plan_query(
    node: logical.PlanNode,
    database,
    *,
    optimize: bool = True,
    shared: Optional[Mapping[str, object]] = None,
) -> PhysicalOperator:
    """One-shot helper: plan *node* with a fresh :class:`Planner`.

    When *optimize* is set the Section VIII algebraic rewrites
    (selection split + push-down) run first, so selective predicates
    sink toward the scans before physical planning.  *shared* — see
    :class:`Planner` — is matched against the rewritten tree.
    """
    if optimize:
        from repro.engine.rewrite import push_down_selections

        node = push_down_selections(node, database)
    return Planner(optimize=optimize, shared=shared).plan(node, database)
