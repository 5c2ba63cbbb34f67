"""Logical query plans for the ongoing-relation engine.

Logical plans are small immutable trees built from the node classes below.
They describe *what* to compute; the planner (:mod:`repro.engine.planner`)
decides *how* — in particular it applies the optimization of Section VIII:
splitting conjunctive predicates into a fixed-attribute part (evaluated as a
cheap boolean filter in the WHERE clause) and an ongoing part (used to
restrict the result tuples' reference times), and choosing join algorithms.

Plans can also be built fluently::

    plan = (scan("B")
            .where(col("C") == lit("Spam filter"))
            .join(scan("P"), on=..., left_name="B", right_name="P")
            .select_columns("B.BID", "P.PID"))
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.relational.predicates import Predicate
from repro.errors import QueryError

# One SHA-256 per plan does not need OpenSSL (``hashlib`` loads libcrypto:
# ~3.4 MB resident and ~40 ms in every process) — take the interpreter's
# built-in digest the way the standard library's ``random`` does.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython <= 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "PlanNode",
    "Scan",
    "Select",
    "Project",
    "Join",
    "Union",
    "Difference",
    "Aggregate",
    "Distinct",
    "SortLimit",
    "scan",
]

#: One aggregate spec: ``(aggregate, argument, output_name)``.
AggregateSpec = Tuple[str, Optional[str], str]


class PlanNode:
    """Base class for logical plan nodes (immutable, composable)."""

    def where(self, predicate: Predicate) -> "Select":
        """Fluent selection on top of this node."""
        return Select(self, predicate)

    def join(
        self,
        other: "PlanNode",
        on: Predicate,
        *,
        left_name: Optional[str] = None,
        right_name: Optional[str] = None,
    ) -> "Join":
        """Fluent theta-join with *other*."""
        return Join(self, other, on, left_name=left_name, right_name=right_name)

    def select_columns(self, *items: object) -> "Project":
        """Fluent projection (names or ``(name, expression)`` pairs)."""
        return Project(self, tuple(items))

    def union(self, other: "PlanNode") -> "Union":
        return Union(self, other)

    def difference(self, other: "PlanNode") -> "Difference":
        return Difference(self, other)

    def group_by(
        self,
        group_columns: Sequence[str],
        aggregate: Optional[str] = None,
        argument: Optional[str] = None,
        *,
        output_name: Optional[str] = None,
        specs: Optional[Sequence[object]] = None,
    ) -> "Aggregate":
        """Fluent grouped aggregation (γ) on top of this node.

        The single-aggregate form (``aggregate=``, ``argument=``,
        ``output_name=``) is the original signature and keeps working —
        it delegates to a one-element spec list.  Pass ``specs=`` (a
        sequence of ``(aggregate, argument[, output_name])`` tuples) for
        several aggregates over one grouping.
        """
        return Aggregate(
            self,
            group_columns,
            aggregate,
            argument,
            output_name=output_name,
            specs=specs,
        )

    def distinct(self) -> "Distinct":
        """Fluent duplicate elimination (δ) on top of this node."""
        return Distinct(self)

    def order_by(
        self, *keys: object, limit: Optional[int] = None
    ) -> "SortLimit":
        """Fluent ORDER BY (+ optional LIMIT) on top of this node.

        Each key is a column name or a ``(name, descending)`` pair.  A
        bare LIMIT (no sort keys) is ``order_by(limit=k)`` — the top-k
        boundary then orders rows by the deterministic tie-break alone.
        """
        return SortLimit(self, keys, limit)

    def children(self) -> Tuple["PlanNode", ...]:
        """The child nodes (for plan walkers)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------

    def canonical(self) -> str:
        """A deterministic structural encoding of this plan.

        Two plans produce the same canonical string iff they are built
        from the same node types with the same predicates, projections,
        literals, and table names in the same shape.  Predicate and
        expression ``repr``\\ s are structural and value-based (see
        :mod:`repro.relational.predicates`), which makes the encoding
        stable across processes — no ``id()`` or hash-seed dependence.
        """
        raise NotImplementedError

    def fingerprint(self) -> str:
        """A deterministic, hashable digest of the plan structure.

        The fingerprint is the SHA-256 hex digest of :meth:`canonical`.
        Structurally equal plans — even when built independently by
        different clients — share a fingerprint, which is the key the
        live subscription engine shares one materialization per plan by
        (:mod:`repro.live`).  The digest is cached per node; plans are
        immutable, so it never goes stale.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = _sha256(self.canonical().encode("utf-8"))
            cached = self.__dict__["_fingerprint"] = digest.hexdigest()
        return cached

    def referenced_tables(self) -> frozenset:
        """The names of all base tables this plan reads (via its scans)."""
        names = set()
        stack: list[PlanNode] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                names.add(node.table)
            stack.extend(node.children())
        return frozenset(names)


class Scan(PlanNode):
    """Read a base table from the database catalog."""

    __slots__ = ("table",)

    def __init__(self, table: str):
        if not table:
            raise QueryError("scan requires a table name")
        self.table = table

    def children(self) -> Tuple[PlanNode, ...]:
        return ()

    def canonical(self) -> str:
        return f"Scan({self.table!r})"

    def __repr__(self) -> str:
        return f"Scan({self.table})"


class Select(PlanNode):
    """``σθ(child)``."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PlanNode, predicate: Predicate):
        self.child = child
        self.predicate = predicate

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def canonical(self) -> str:
        return f"Select({self.child.canonical()}, {self.predicate!r})"

    def __repr__(self) -> str:
        return f"Select({self.child!r}, {self.predicate!r})"


class Project(PlanNode):
    """``πB(child)`` — *items* as accepted by relational ``project``."""

    __slots__ = ("child", "items")

    def __init__(self, child: PlanNode, items: Sequence[object]):
        if not items:
            raise QueryError("projection requires at least one column")
        self.child = child
        self.items = tuple(items)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def canonical(self) -> str:
        return f"Project({self.child.canonical()}, {list(self.items)!r})"

    def __repr__(self) -> str:
        return f"Project({self.child!r}, {list(self.items)!r})"


class Join(PlanNode):
    """``left ⋈θ right`` with optional qualification prefixes."""

    __slots__ = ("left", "right", "predicate", "left_name", "right_name")

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        predicate: Predicate,
        *,
        left_name: Optional[str] = None,
        right_name: Optional[str] = None,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.left_name = left_name
        self.right_name = right_name

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def canonical(self) -> str:
        return (
            f"Join({self.left.canonical()}, {self.right.canonical()}, "
            f"{self.predicate!r}, left_name={self.left_name!r}, "
            f"right_name={self.right_name!r})"
        )

    def __repr__(self) -> str:
        return (
            f"Join({self.left!r}, {self.right!r}, {self.predicate!r}, "
            f"left_name={self.left_name!r}, right_name={self.right_name!r})"
        )


class Union(PlanNode):
    """``left ∪ right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def canonical(self) -> str:
        return f"Union({self.left.canonical()}, {self.right.canonical()})"

    def __repr__(self) -> str:
        return f"Union({self.left!r}, {self.right!r})"


class Difference(PlanNode):
    """``left − right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def canonical(self) -> str:
        return (
            f"Difference({self.left.canonical()}, {self.right.canonical()})"
        )

    def __repr__(self) -> str:
        return f"Difference({self.left!r}, {self.right!r})"


class Aggregate(PlanNode):
    """``γ_{group_columns; specs}(child)`` — grouped RT-aware aggregation.

    *group_columns* name fixed attributes of the child; *specs* is an
    **ordered list** of ``(aggregate, argument, output_name)`` triples,
    one output column each.  The valid aggregate names are
    :func:`repro.engine.accumulators.known_aggregates`; this class does
    not enumerate them (the plan is validated when it is built).
    *argument* is the aggregated column (``None`` for
    ``count``); a missing *output_name* is normalized to the aggregate
    name at construction, so ``output_name=None`` and an explicit
    ``output_name="count"`` are the *same* plan.

    The original single-aggregate constructor arguments keep working and
    delegate to a one-element spec list; a one-spec node produces the
    same canonical string (and therefore the same fingerprint) as the
    pre-spec-list node did, so existing subscribers keep sharing
    materializations.  Like every plan node it is immutable and
    fingerprintable — two subscribers to the same GROUP BY query share
    one materialization and one delta-maintained state.

    **Semantics (bag).**  ‖γ(Q)‖rt is the fixed GROUP BY over the bag of
    Q's ongoing tuples whose RT holds rt, each bound at rt: COUNT counts
    them, SUM_DURATION sums their bound intervals' clamped lengths,
    MIN / MAX / AVG read a fixed numeric column (AVG exactly, as a
    fraction).  A group is in the result at rt only if a member is; a
    scalar aggregate (no *group_columns*) yields its constant row — 0
    per column — only when Q has no tuples at all, and then at every rt.
    :func:`repro.baselines.clifford.evaluate_pointwise` is this
    definition, run.

    The bag is of ongoing tuples, not of the rows they bind to: two
    equal tuples with overlapping reference times COUNT as two at an rt
    where the bound relation holds one row, so the result is not
    ``Q(‖D‖rt)`` and :func:`repro.baselines.clifford.evaluate_fixed`
    refuses the node.
    """

    __slots__ = ("child", "group_columns", "specs")

    def __init__(
        self,
        child: PlanNode,
        group_columns: Sequence[str],
        aggregate: Optional[str] = None,
        argument: Optional[str] = None,
        *,
        output_name: Optional[str] = None,
        specs: Optional[Sequence[object]] = None,
    ):
        if specs is None:
            if not aggregate:
                raise QueryError("aggregation requires an aggregate name")
            normalized = [(aggregate, argument, output_name or aggregate)]
        else:
            if (
                aggregate is not None
                or argument is not None
                or output_name is not None
            ):
                raise QueryError(
                    "pass either specs= or the single-aggregate arguments, "
                    "not both"
                )
            normalized = []
            for spec in specs:
                parts = tuple(spec)
                if len(parts) == 2:
                    name, arg = parts
                    out = None
                elif len(parts) == 3:
                    name, arg, out = parts
                else:
                    raise QueryError(
                        f"an aggregate spec is (aggregate, argument"
                        f"[, output_name]); got {spec!r}"
                    )
                if not name:
                    raise QueryError("aggregation requires an aggregate name")
                normalized.append((name, arg, out or name))
            if not normalized:
                raise QueryError("aggregation requires at least one spec")
        output_names = [out for _, _, out in normalized]
        if len(set(output_names)) != len(output_names):
            raise QueryError(
                f"duplicate aggregate output names: {output_names!r}"
            )
        self.child = child
        self.group_columns = tuple(group_columns)
        self.specs: Tuple[AggregateSpec, ...] = tuple(normalized)

    # --- single-spec accessors (back-compat for pre-spec-list callers) --

    @property
    def aggregate(self) -> str:
        """The first spec's aggregate name (single-spec plans)."""
        return self.specs[0][0]

    @property
    def argument(self) -> Optional[str]:
        """The first spec's argument (single-spec plans)."""
        return self.specs[0][1]

    @property
    def output_name(self) -> str:
        """The first spec's output column name (single-spec plans)."""
        return self.specs[0][2]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def canonical(self) -> str:
        if len(self.specs) == 1:
            # The pre-spec-list encoding, byte for byte: a one-spec node
            # must fingerprint identically to the node this class
            # replaced, so existing subscribers keep sharing state.
            aggregate, argument, output_name = self.specs[0]
            return (
                f"Aggregate({self.child.canonical()}, "
                f"by={list(self.group_columns)!r}, fn={aggregate!r}, "
                f"arg={argument!r}, out={output_name!r})"
            )
        return (
            f"Aggregate({self.child.canonical()}, "
            f"by={list(self.group_columns)!r}, "
            f"specs={list(self.specs)!r})"
        )

    def __repr__(self) -> str:
        return (
            f"Aggregate({self.child!r}, by={list(self.group_columns)!r}, "
            f"specs={list(self.specs)!r})"
        )


class Distinct(PlanNode):
    """``δ(child)`` — duplicate elimination.

    Ongoing relations are sets, so δ is a semantic no-op on any plan
    output — but it is part of the SQL surface (``SELECT DISTINCT``) and
    an explicit multiplicity barrier for the delta engine: the physical
    operator counts multiplicities and emits only 0↔positive transitions.
    """

    __slots__ = ("child",)

    def __init__(self, child: PlanNode):
        self.child = child

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def canonical(self) -> str:
        return f"Distinct({self.child.canonical()})"

    def __repr__(self) -> str:
        return f"Distinct({self.child!r})"


class SortLimit(PlanNode):
    """``ORDER BY keys [LIMIT k]`` over the child's **eventual order**.

    Ongoing values change with the reference time, so "the" order of a
    live result is taken as the order the values settle into for all
    sufficiently large rt (an ongoing integer with final affine form
    ``b + k·rt`` sorts by ``(k, b)``).  Ties break on a deterministic
    encoding of the whole row, making the order insensitive to input
    order — the delta path and a full re-evaluation agree byte for byte.

    *sort_keys* are ``(column, descending)`` pairs (bare names mean
    ascending).  Without *limit* the node is a set-semantics identity
    that merely renders sorted; with *limit* the physical operator
    maintains the top-k boundary incrementally in O(Δ log k).

    A limit picks ongoing tuples, not rows bound at an rt: a tuple whose
    reference time has ended still holds its place in the top k, so a
    limited result is not ``Q(‖D‖rt)`` and
    :func:`repro.baselines.clifford.evaluate_fixed` refuses it (an
    unlimited one is the identity on the set and is evaluated).  At rt
    it is the fixed top-k over the bag of Q's ongoing tuples, ranked
    by the eventual order, of which those whose RT holds rt are bound
    there — :func:`repro.baselines.clifford.evaluate_pointwise`.
    """

    __slots__ = ("child", "sort_keys", "limit")

    def __init__(
        self,
        child: PlanNode,
        sort_keys: Sequence[object] = (),
        limit: Optional[int] = None,
    ):
        normalized = []
        for key in sort_keys:
            if isinstance(key, str):
                normalized.append((key, False))
            else:
                parts = tuple(key)
                if len(parts) != 2 or not isinstance(parts[0], str):
                    raise QueryError(
                        f"a sort key is a column name or a "
                        f"(name, descending) pair; got {key!r}"
                    )
                normalized.append((parts[0], bool(parts[1])))
        if limit is not None:
            if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
                raise QueryError(f"LIMIT must be a positive integer, got {limit!r}")
        if not normalized and limit is None:
            raise QueryError("SortLimit requires sort keys or a limit")
        self.child = child
        self.sort_keys: Tuple[Tuple[str, bool], ...] = tuple(normalized)
        self.limit = limit

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def canonical(self) -> str:
        return (
            f"SortLimit({self.child.canonical()}, "
            f"keys={list(self.sort_keys)!r}, limit={self.limit!r})"
        )

    def __repr__(self) -> str:
        return (
            f"SortLimit({self.child!r}, keys={list(self.sort_keys)!r}, "
            f"limit={self.limit!r})"
        )


def scan(table: str) -> Scan:
    """Entry point of the fluent plan builder."""
    return Scan(table)
