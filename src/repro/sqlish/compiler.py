"""Compile OSQL statements onto the engine.

The compiler is a pure lowering pass from the AST to the engine's logical
plans: FROM becomes a left-deep chain of joins on ``TRUE``, the whole
WHERE clause one selection on top of it, then the projection or the
:class:`~repro.engine.plan.Aggregate` node (with HAVING as a selection
over its output), DISTINCT, ORDER BY / LIMIT and the set operations.
Placing each WHERE conjunct is the rewrite's job
(:func:`repro.engine.rewrite.push_down_selections`, run at every planning
boundary): equality conjuncts merge into the joins as hash-join keys,
one-sided ones sink onto their input's scan.  Because *every* statement
is a pure plan, every statement is fingerprintable, subscribable
(:meth:`repro.live.SubscriptionManager.subscribe_sql`) and
delta-maintained: a ``GROUP BY`` dashboard refreshes one group at a time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.interval import OngoingInterval
from repro.core.timeline import MINUS_INF, PLUS_INF, from_mmdd
from repro.core.timepoint import NOW, OngoingTimePoint
from repro.engine.database import Database
from repro.engine.plan import Aggregate as PlanAggregate
from repro.engine.plan import Difference as PlanDifference
from repro.engine.plan import Distinct as PlanDistinct
from repro.engine.plan import Join as PlanJoin
from repro.engine.plan import PlanNode, Project, Scan, Select
from repro.engine.plan import SortLimit as PlanSortLimit
from repro.engine.plan import Union as PlanUnion
from repro.errors import QueryError
from repro.relational.predicates import (
    TRUE_PREDICATE,
    AllenPredicate,
    And,
    Column,
    Comparison as PredComparison,
    Expression,
    IntervalIntersection,
    Literal,
    Not,
    Or,
    Predicate,
)
from repro.relational.relation import OngoingRelation
from repro.sqlish import nodes
from repro.sqlish.parser import parse

__all__ = ["compile_statement", "run"]


# ----------------------------------------------------------------------
# Literals
# ----------------------------------------------------------------------


def _parse_endpoint(text: str) -> OngoingTimePoint:
    """One endpoint in point-literal syntax (see the lexer docstring)."""
    body = text.strip().lower()
    if body == "now":
        return NOW
    if body in ("inf", "+inf", "infinity"):
        return OngoingTimePoint(PLUS_INF, PLUS_INF)
    if body in ("-inf", "-infinity"):
        return OngoingTimePoint(MINUS_INF, MINUS_INF)

    def one_point(piece: str) -> int:
        piece = piece.strip()
        if piece in ("inf", "infinity"):
            return PLUS_INF
        if piece in ("-inf", "-infinity"):
            return MINUS_INF
        try:
            return int(piece)
        except ValueError:
            return from_mmdd(piece)

    if body.endswith("+"):
        return OngoingTimePoint(one_point(body[:-1]), PLUS_INF)
    if body.startswith("+"):
        return OngoingTimePoint(MINUS_INF, one_point(body[1:]))
    if "+" in body:
        a_text, b_text = body.split("+", 1)
        return OngoingTimePoint(one_point(a_text), one_point(b_text))
    value = one_point(body)
    return OngoingTimePoint(value, value)


def _compile_literal(node: nodes.ValueExpr) -> object:
    if isinstance(node, nodes.NumberLiteral):
        return node.value
    if isinstance(node, nodes.StringLiteral):
        return node.value
    if isinstance(node, nodes.PointLiteral):
        return _parse_endpoint(node.body)
    if isinstance(node, nodes.PeriodLiteral):
        return OngoingInterval(
            _parse_endpoint(node.start), _parse_endpoint(node.end)
        )
    raise QueryError(f"not a literal: {node!r}")


# ----------------------------------------------------------------------
# Name resolution and expressions
# ----------------------------------------------------------------------


class _Scope:
    """Maps OSQL column names to the plan attribute names in view.

    The names are the FROM tables' columns, the projection's output or
    the aggregate's output.  A qualified name like ``B.C`` is also
    reachable by its short name ``C`` when that is unambiguous.
    """

    def __init__(self, names: Sequence[str]):
        self._all = set(names)
        self._by_short: Dict[str, List[str]] = {}
        for name in names:
            self._by_short.setdefault(name.split(".")[-1], []).append(name)

    def resolve(self, name: str) -> str:
        """Resolve an OSQL column reference to a plan attribute name."""
        if name in self._all:
            return name
        candidates = [] if "." in name else self._by_short.get(name, [])
        if not candidates:
            raise QueryError(f"unknown column {name!r}")
        if len(candidates) > 1:
            raise QueryError(
                f"ambiguous column {name!r}; qualify it with a table alias "
                f"(candidates: {sorted(candidates)})"
            )
        return candidates[0]


def _compile_value(node: nodes.ValueExpr, scope: _Scope) -> Expression:
    if isinstance(node, nodes.ColumnRef):
        return Column(scope.resolve(node.name))
    if isinstance(node, nodes.IntersectionCall):
        return IntervalIntersection(
            _compile_value(node.left, scope), _compile_value(node.right, scope)
        )
    return Literal(_compile_literal(node))


def _compile_boolean(node: nodes.BooleanExpr, scope: _Scope) -> Predicate:
    if isinstance(node, nodes.Comparison):
        return PredComparison(
            node.op, _compile_value(node.left, scope), _compile_value(node.right, scope)
        )
    if isinstance(node, nodes.TemporalPredicate):
        return AllenPredicate(
            node.name,
            _compile_value(node.left, scope),
            _compile_value(node.right, scope),
        )
    if isinstance(node, nodes.AndExpr):
        return And(tuple(_compile_boolean(part, scope) for part in node.parts))
    if isinstance(node, nodes.OrExpr):
        return Or(tuple(_compile_boolean(part, scope) for part in node.parts))
    if isinstance(node, nodes.NotExpr):
        return Not(_compile_boolean(node.part, scope))
    raise QueryError(f"unsupported boolean expression: {node!r}")


# ----------------------------------------------------------------------
# SELECT statements
# ----------------------------------------------------------------------


def _from_where(
    statement: nodes.SelectStatement, database: Database
) -> Tuple[PlanNode, _Scope]:
    """FROM as a left-deep chain of joins on ``TRUE`` and WHERE as one
    selection on top; columns are qualified by table alias when FROM
    names more than one table."""
    tables = statement.tables
    qualified = len(tables) > 1
    scope = _Scope(
        [
            f"{ref.exposed_name}.{name}" if qualified else name
            for ref in tables
            for name in database.table(ref.table).schema.names
        ]
    )
    plan: PlanNode = Scan(tables[0].table)
    for position, ref in enumerate(tables[1:]):
        plan = PlanJoin(
            plan,
            Scan(ref.table),
            TRUE_PREDICATE,
            left_name=tables[0].exposed_name if position == 0 else None,
            right_name=ref.exposed_name,
        )
    if statement.where is not None:
        plan = Select(plan, _compile_boolean(statement.where, scope))
    return plan, scope


def _compile_select(
    statement: nodes.SelectStatement, database: Database
) -> PlanNode:
    plan, scope = _from_where(statement, database)
    star = any(isinstance(item, nodes.StarItem) for item in statement.items)
    if star and len(statement.items) != 1:
        raise QueryError("SELECT * cannot be mixed with other items")
    if any(
        isinstance(item, nodes.SelectItem)
        and isinstance(item.expression, nodes.AggregateCall)
        for item in statement.items
    ):
        plan, scope = _compile_aggregate(statement, scope, plan)
    elif statement.having is not None:
        raise QueryError("HAVING requires an aggregate SELECT")
    elif not star:
        items = []
        for item in statement.items:
            expression = _compile_value(item.expression, scope)
            if item.alias:
                name = item.alias
            elif isinstance(item.expression, nodes.ColumnRef):
                # Output columns keep the name the user wrote (unqualified
                # references stay unqualified), like SQL projection does.
                name = item.expression.name
            else:
                raise QueryError(
                    f"computed column {item.expression!r} needs an AS alias"
                )
            items.append((name, expression))
        plan = Project(plan, tuple(items))
        scope = _Scope([name for name, _ in items])
    if statement.distinct:
        plan = PlanDistinct(plan)
    if statement.order_by or statement.limit is not None:
        keys = tuple(
            (scope.resolve(key.column), key.descending)
            for key in statement.order_by
        )
        plan = PlanSortLimit(plan, keys, statement.limit)
    return plan


def _compile_aggregate(
    statement: nodes.SelectStatement, scope: _Scope, plan: PlanNode
) -> Tuple[PlanNode, _Scope]:
    """Lower ``SELECT k, AGG(...), ... GROUP BY k [HAVING θ]`` to one
    Aggregate node (all aggregates in SELECT-list order) plus, when
    HAVING is present, a Select over the aggregate's output columns.

    Returns the plan and the scope of those output columns (group
    columns + aggregate output names), which HAVING and ORDER BY see.
    """
    group_columns = [scope.resolve(name) for name in statement.group_by]
    specs = []
    for item in statement.items:
        call = item.expression
        if isinstance(call, nodes.AggregateCall):
            argument = scope.resolve(call.argument) if call.argument else None
            specs.append((call.function, argument, item.alias or call.function))
        elif not isinstance(call, nodes.ColumnRef):
            raise QueryError("non-aggregate SELECT items must be plain columns")
        elif scope.resolve(call.name) not in group_columns:
            raise QueryError(f"column {call.name!r} must appear in GROUP BY")
    result: PlanNode = PlanAggregate(plan, group_columns, specs=specs)
    output = _Scope(group_columns + [output_name for _, _, output_name in specs])
    if statement.having is not None:
        result = Select(result, _compile_boolean(statement.having, output))
    return result, output


def compile_statement(source: str, database: Database) -> PlanNode:
    """Compile an OSQL statement to an engine logical plan.

    Every statement — including aggregate queries
    (COUNT/SUM_DURATION/MIN/MAX with GROUP BY) — compiles to a pure plan,
    so every statement can be subscribed, shared by fingerprint, and
    refreshed incrementally.
    """
    return _compile_any(parse(source), database)


def _compile_any(statement: nodes.Statement, database: Database) -> PlanNode:
    if isinstance(statement, nodes.SetOperation):
        left = _compile_any(statement.left, database)
        right = _compile_any(statement.right, database)
        if statement.operator == "union":
            return PlanUnion(left, right)
        return PlanDifference(left, right)
    return _compile_select(statement, database)


def run(source: str, database: Database) -> OngoingRelation:
    """Parse, compile, and execute an OSQL statement."""
    return database.query(_compile_any(parse(source), database))
