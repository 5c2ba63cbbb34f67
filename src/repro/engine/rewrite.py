"""Logical plan rewriting — the algebraic rules of Section VIII.

The paper notes that for ongoing relations "the same rules hold as for the relational
algebra operators on fixed relations", e.g.
``σ_{θ1 ∧ θ2}(R) ≡ σ_{θ1}(σ_{θ2}(R))``, and that after rewriting the usual
optimization techniques (selection push-down, join ordering, ...) apply.

This module implements the two classic rewrites as plan-to-plan
transformations:

* **selection cascade/split** — a conjunctive selection splits into its
  conjuncts (so each can move independently);
* **selection push-down** — a selection conjunct merges into the lowest
  join whose inputs cover it and sinks below a join into the input whose
  attributes it references — whether it stood in a selection above the
  join or inside the join's own predicate (the OSQL compiler joins on
  ``TRUE`` and leaves the whole WHERE clause above, so this is where every
  OSQL conjunct is placed) — below unions into both branches, into the
  left input of a difference, through projections when the projected
  columns cover it, through a grouped aggregation when
  the conjunct has constant truth per group (it references only grouping
  columns and compares fixed values), always through duplicate
  elimination (δ commutes with σ), and through ORDER BY only when there
  is no LIMIT — below a limit, filtering changes *which* k rows survive.

Since PR 7 the rewrites run by default on every planning boundary
(:func:`repro.engine.planner.plan_query`, ``Database.query``, live
subscriptions); pass the owning database so scans
stop being opaque and conjuncts can sink below joins of base tables.

Correctness follows from Theorem 2 plus the fixed-algebra equivalences and
is verified by the test suite (rewritten plans must produce identical
ongoing relations).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.engine.plan import (
    Aggregate,
    Difference,
    Distinct,
    Join,
    PlanNode,
    Project,
    Scan,
    Select,
    SortLimit,
    Union,
)
from repro.relational.predicates import (
    And,
    Column,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
    Predicate,
    TRUE_PREDICATE,
    TruePredicate,
    _is_ongoing_value,
)

__all__ = ["push_down_selections", "split_selections"]


def split_selections(plan: PlanNode) -> PlanNode:
    """Cascade conjunctive selections: ``σ_{θ1∧θ2} -> σ_{θ1}(σ_{θ2})``."""
    plan = _rewrite_children(plan, split_selections)
    if isinstance(plan, Select):
        conjuncts = [
            part
            for part in plan.predicate.conjuncts()
            if not isinstance(part, TruePredicate)
        ]
        if len(conjuncts) > 1:
            rebuilt: PlanNode = plan.child
            for conjunct in conjuncts:
                rebuilt = Select(rebuilt, conjunct)
            return rebuilt
    return plan


def push_down_selections(plan: PlanNode, database=None) -> PlanNode:
    """Sink selection conjuncts as close to the scans as possible.

    Conjuncts referencing only one join input move into that input — out
    of a selection above the join and out of the join predicate alike;
    conjuncts over a union apply to both branches; conjuncts over a
    difference restrict its left input; conjuncts over a projection sink
    through when the projection only renames/keeps the referenced columns;
    conjuncts over a grouped aggregation sink below γ when their truth is
    constant per group.  Whatever cannot sink stays where it is.

    Pass *database* so the rewriter can resolve scan schemas from the
    catalog — without it scans stay opaque and conjuncts over joins of
    base tables merge into the join predicate instead of sinking.
    """
    plan = split_selections(plan)
    return _push(plan, database)


def _rewrite_children(plan: PlanNode, rewrite) -> PlanNode:
    if isinstance(plan, Scan):
        return plan
    if isinstance(plan, Select):
        return Select(rewrite(plan.child), plan.predicate)
    if isinstance(plan, Project):
        return Project(rewrite(plan.child), plan.items)
    if isinstance(plan, Join):
        return Join(
            rewrite(plan.left),
            rewrite(plan.right),
            plan.predicate,
            left_name=plan.left_name,
            right_name=plan.right_name,
        )
    if isinstance(plan, Union):
        return Union(rewrite(plan.left), rewrite(plan.right))
    if isinstance(plan, Difference):
        return Difference(rewrite(plan.left), rewrite(plan.right))
    if isinstance(plan, Aggregate):
        # Rewrites apply below the aggregation; a selection above γ sinks
        # through only via the dedicated `_push` case (constant truth per
        # group), never via plain child rewriting.
        return Aggregate(
            rewrite(plan.child),
            plan.group_columns,
            specs=plan.specs,
        )
    if isinstance(plan, Distinct):
        return Distinct(rewrite(plan.child))
    if isinstance(plan, SortLimit):
        return SortLimit(rewrite(plan.child), plan.sort_keys, plan.limit)
    return plan


def _exposed_columns(plan: PlanNode, database=None) -> Optional[Set[str]]:
    """The output column names of a plan, when statically known.

    Returns ``None`` for scans unless *database* is given (the schema
    lives in the catalog, which a pure rewrite does not consult) —
    callers treat unknown as "may expose anything", blocking the unsafe
    direction only where needed.
    """
    if isinstance(plan, Scan):
        if database is None:
            return None
        try:
            return set(database.table(plan.table).schema.names)
        except Exception:
            return None
    if isinstance(plan, Select):
        return _exposed_columns(plan.child, database)
    if isinstance(plan, Project):
        names: Set[str] = set()
        for item in plan.items:
            if isinstance(item, str):
                names.add(item)
            else:
                names.add(item[0])
        return names
    if isinstance(plan, Join):
        left = _exposed_columns(plan.left, database)
        right = _exposed_columns(plan.right, database)
        if left is None or right is None:
            return None
        qualified_left = {
            f"{plan.left_name}.{name}" if plan.left_name else name
            for name in left
        }
        qualified_right = {
            f"{plan.right_name}.{name}" if plan.right_name else name
            for name in right
        }
        return qualified_left | qualified_right
    if isinstance(plan, (Union, Difference)):
        return _exposed_columns(plan.left, database)
    if isinstance(plan, Aggregate):
        # Output names are normalized non-empty at construction.
        return set(plan.group_columns) | {
            output_name for _, _, output_name in plan.specs
        }
    if isinstance(plan, (Distinct, SortLimit)):
        return _exposed_columns(plan.child, database)
    return None


def _qualify_side(
    plan: PlanNode, prefix: Optional[str], database=None
) -> Set[str]:
    """Best-effort set of column names a join side exposes *after*
    qualification; empty set when unknown."""
    names = _exposed_columns(plan, database)
    if names is None:
        return set()
    if prefix:
        return {f"{prefix}.{name}" for name in names}
    return names


def _strip_qualifier(name: str, prefix: Optional[str]) -> str:
    if prefix and name.startswith(prefix + "."):
        return name[len(prefix) + 1 :]
    return name


def _unqualified(predicate: Predicate, prefix: Optional[str]) -> Predicate:
    """*predicate* as the join input named *prefix* spells it."""
    return _rewrite_columns(predicate, prefix) if prefix else predicate


def _rewrite_columns(predicate: Predicate, prefix: str) -> Predicate:
    """Structurally copy *predicate* with the qualifier stripped."""
    from repro.relational.predicates import (
        AllenPredicate,
        IntervalIntersection,
    )

    def rewrite_expression(expression: Expression) -> Expression:
        if isinstance(expression, Column):
            return Column(_strip_qualifier(expression.name, prefix))
        if isinstance(expression, IntervalIntersection):
            return IntervalIntersection(
                rewrite_expression(expression.left),
                rewrite_expression(expression.right),
            )
        return expression

    if isinstance(predicate, Comparison):
        return Comparison(
            predicate.op,
            rewrite_expression(predicate.left),
            rewrite_expression(predicate.right),
        )
    if isinstance(predicate, AllenPredicate):
        return AllenPredicate(
            predicate.name,
            rewrite_expression(predicate.left),
            rewrite_expression(predicate.right),
        )
    if isinstance(predicate, And):
        return And(tuple(_rewrite_columns(p, prefix) for p in predicate.parts))
    if isinstance(predicate, Or):
        return Or(tuple(_rewrite_columns(p, prefix) for p in predicate.parts))
    if isinstance(predicate, Not):
        return Not(_rewrite_columns(predicate.part, prefix))
    return predicate


def _constant_truth_per_group(
    predicate: Predicate, aggregate: Aggregate
) -> bool:
    """``σθ(γ_G(C)) ≡ γ_G(σθ(C))`` holds exactly when θ's truth value is
    the same for every member of a group: θ must reference only grouping
    columns (which are fixed attributes, identical across the group) and
    must compare fixed values — an ongoing comparison or Allen predicate
    over them could still vary with the reference time relative to the
    aggregate's output, so those stay above γ.  Scalar aggregations
    (no grouping columns) never accept a push: the selection must see the
    empty-group row the aggregate emits."""
    group_columns = set(aggregate.group_columns)
    if not group_columns:
        return False
    references = predicate.references()
    if not references or not references <= group_columns:
        return False
    return _fixed_truth(predicate)


def _fixed_truth(predicate: Predicate) -> bool:
    """Structurally: boolean combinations of comparisons over columns and
    non-ongoing literals only (no Allen predicates, no interval
    intersections, no ongoing literal values)."""
    if isinstance(predicate, (And, Or)):
        return all(_fixed_truth(part) for part in predicate.parts)
    if isinstance(predicate, Not):
        return _fixed_truth(predicate.part)
    if isinstance(predicate, Comparison):
        return _fixed_operand(predicate.left) and _fixed_operand(
            predicate.right
        )
    return False


def _fixed_operand(expression: Expression) -> bool:
    if isinstance(expression, Column):
        # The caller verified the name is a grouping column, hence fixed.
        return True
    if isinstance(expression, Literal):
        return not _is_ongoing_value(expression.value)
    return False


def _push(plan: PlanNode, database=None) -> PlanNode:
    plan = _rewrite_children(plan, lambda node: _push(node, database))
    if isinstance(plan, Join):
        return _sink_join_conjuncts(plan, database)
    if not isinstance(plan, Select):
        return plan
    child = plan.child
    predicate = plan.predicate

    if isinstance(child, Union):
        return Union(
            _push(Select(child.left, predicate), database),
            _push(Select(child.right, predicate), database),
        )
    if isinstance(child, Difference):
        # σθ(L − R) ≡ σθ(L) − R  (tuples come from L; difference only
        # removes reference times).  The right side must NOT be
        # restricted: a right tuple failing θ still subtracts time.
        return Difference(
            _push(Select(child.left, predicate), database), child.right
        )
    if isinstance(child, Aggregate):
        if _constant_truth_per_group(predicate, child):
            return Aggregate(
                _push(Select(child.child, predicate), database),
                child.group_columns,
                specs=child.specs,
            )
        return plan
    if isinstance(child, Distinct):
        # σθ(δ(C)) ≡ δ(σθ(C)): both operate tuple-at-a-time on sets.
        return Distinct(_push(Select(child.child, predicate), database))
    if isinstance(child, SortLimit):
        # Sound only without a limit: a selection below LIMIT k changes
        # *which* k rows survive (rows past the old boundary may enter),
        # even when θ references only sort-key columns.
        if child.limit is None:
            return SortLimit(
                _push(Select(child.child, predicate), database),
                child.sort_keys,
                child.limit,
            )
        return plan
    if isinstance(child, Join):
        # Offer the conjunct to the join: it sinks into the side that
        # covers it, or stays in the join predicate so the planner can
        # still use it for algorithm selection.
        return _sink_join_conjuncts(
            Join(
                child.left,
                child.right,
                And((child.predicate, predicate))
                if not isinstance(child.predicate, TruePredicate)
                else predicate,
                left_name=child.left_name,
                right_name=child.right_name,
            ),
            database,
        )
    return plan


def _sink_join_conjuncts(join: Join, database=None) -> PlanNode:
    """One-sided conjuncts of a join predicate are selections on that
    side: ``L ⋈_{θ ∧ θ_R} R ≡ L ⋈_θ σ_{θ_R}(R)``.

    Holds for ongoing conjuncts too — the join intersects the reference
    times of both inputs and of every conjunct, and intersection commutes
    (Theorem 2) — so the side's cached state holds only the rows that can
    ever match.  Conjuncts covered by neither side stay, in order; a
    join no conjunct leaves is returned as it is.
    """
    left, right = join.left, join.right
    left_columns = _qualify_side(left, join.left_name, database)
    right_columns = _qualify_side(right, join.right_name, database)
    kept: List[Predicate] = []
    for conjunct in join.predicate.conjuncts():
        references = conjunct.references()
        if isinstance(conjunct, TruePredicate):
            kept.append(conjunct)
        elif left_columns and references <= left_columns:
            left = Select(left, _unqualified(conjunct, join.left_name))
        elif right_columns and references <= right_columns:
            right = Select(right, _unqualified(conjunct, join.right_name))
        else:
            kept.append(conjunct)
    if left is join.left and right is join.right:
        return join
    if left is not join.left:
        left = _push(left, database)
    if right is not join.right:
        right = _push(right, database)
    return Join(
        left,
        right,
        TRUE_PREDICATE
        if not kept
        else kept[0] if len(kept) == 1 else And(tuple(kept)),
        left_name=join.left_name,
        right_name=join.right_name,
    )
