"""Ongoing relations and the bind operator on relations (Section VII-A).

An ongoing relation is a finite set of tuples over a schema of fixed and
ongoing attributes, where every tuple additionally carries a reference time
``RT``.  Base relations assign the trivial reference time ``{(-inf, inf)}``;
query operators restrict it (Theorem 2) and drop tuples whose reference time
becomes empty.

The bind operator instantiates a relation at a reference time::

    ‖R‖rt = { x | ∃ r ∈ R: x.A = ‖r.A‖rt  and  rt ∈ r.RT }

and is the yardstick for every correctness test in this repository: for any
operator ``Op`` of the engine, ``‖Op(R)‖rt == OpF(‖R‖rt)`` at all rt
(:func:`repro.baselines.clifford.evaluate_fixed` runs the right-hand side).
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.timeline import TimePoint
from repro.relational.schema import Schema
from repro.relational.tuples import Binder, FixedTuple, OngoingTuple

__all__ = ["OngoingRelation", "ResultStore"]


class OngoingRelation:
    """An immutable ongoing relation: a schema plus a set of ongoing tuples.

    Duplicate tuples (same values *and* same reference time) are removed at
    construction; iteration order is the insertion order of the first
    occurrence, which keeps example output stable and diffable.  A tuple
    of the wrong arity, or with an ongoing value in a fixed column, raises
    :class:`~repro.errors.SchemaError`: the bind operator trusts the kinds.
    """

    __slots__ = ("_schema", "_tuples")

    def __init__(self, schema: Schema, tuples: Iterable[OngoingTuple] = ()):
        self._schema = schema
        deduplicated = dict.fromkeys(tuples)
        Binder.of(schema).check(deduplicated)
        self._tuples: Tuple[OngoingTuple, ...] = tuple(deduplicated)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence[object]],
        rt: IntervalSet = UNIVERSAL_SET,
    ) -> "OngoingRelation":
        """Build a base relation: every row gets the reference time *rt*.

        The default *rt* is the trivial reference time ``{(-inf, inf)}`` the
        database system assigns to base tuples (Section VII-A).
        """
        return cls(schema, (OngoingTuple(tuple(row), rt) for row in rows))

    @classmethod
    def from_deduplicated(
        cls, schema: Schema, tuples: Tuple[OngoingTuple, ...]
    ) -> "OngoingRelation":
        """Wrap already-unique, schema-conforming tuples without re-checking.

        The fast path of the delta engine (:mod:`repro.engine.delta`):
        operator states key their outputs by tuple value, so uniqueness
        and arity are guaranteed, and an incremental refresh must not pay
        an O(n) deduplication for an O(|delta|) change.
        """
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._tuples = tuples
        return relation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def tuples(self) -> Tuple[OngoingTuple, ...]:
        return self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[OngoingTuple]:
        return iter(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def column(self, name: str) -> List[object]:
        """All values of one attribute, in tuple order (handy in tests)."""
        index = self._schema.index_of(name)
        return [item.values[index] for item in self._tuples]

    def rt_cardinalities(self) -> List[int]:
        """Number of fixed intervals in each tuple's RT (Table IV metric)."""
        return [item.rt.cardinality for item in self._tuples]

    # ------------------------------------------------------------------
    # The bind operator
    # ------------------------------------------------------------------

    def instantiate(self, rt: TimePoint) -> FrozenSet[FixedTuple]:
        """``‖R‖rt`` — the fixed relation at reference time *rt*.

        Tuples whose reference time does not contain *rt* are omitted;
        the remaining tuples are instantiated componentwise by the
        schema's :class:`~repro.relational.tuples.Binder`.  The result is
        a set (fixed relations have set semantics).
        """
        return frozenset(Binder.of(self._schema).bind(self._tuples, rt))

    # ------------------------------------------------------------------
    # Value semantics and display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Set equality: same schema, same set of (values, RT) tuples."""
        if not isinstance(other, OngoingRelation):
            return NotImplemented
        return self._schema == other._schema and frozenset(self._tuples) == frozenset(
            other._tuples
        )

    def __hash__(self) -> int:
        return hash((self._schema, frozenset(self._tuples)))

    def __repr__(self) -> str:
        return (
            f"OngoingRelation(schema={self._schema!r}, "
            f"tuples={len(self._tuples)})"
        )

    def format(self, *, max_rows: int = 20) -> str:
        """A paper-style table rendering (used by the examples)."""
        header = " | ".join(self._schema.names) + " | RT"
        lines = [header, "-" * len(header)]
        for item in self._tuples[:max_rows]:
            lines.append(item.format())
        if len(self._tuples) > max_rows:
            lines.append(f"... ({len(self._tuples) - max_rows} more)")
        return "\n".join(lines)


class ResultStore:
    """A versioned, copy-on-read owner of a maintained result set.

    The store wraps a mutable *ordered mapping* whose keys are the unique
    tuples of the result (the delta engine's root derivation-count index,
    but any insertion-ordered mapping works).  Writers mutate the mapping
    in place — O(|Δ|) for a row-level delta — and :meth:`bump` the version
    after every change that alters the key *set*.  Readers never see the
    live mapping: :meth:`snapshot` materializes an immutable
    :class:`OngoingRelation` **lazily**, caches it per version, and hands
    the same object to every consumer until the next bump.

    This is the economics the paper's validity property buys (the refresh
    tail stays O(|Δ|)):

    * a refresh whose consumers never materialize — coalesced mailboxes,
      suppressed no-change notifications, delta-only subscribers — costs
      nothing here: no copy is taken;
    * N consumers sharing one maintained plan share **one** snapshot per
      version instead of N copies;
    * a snapshot, once taken, is frozen — later mutations of the store can
      never reach a relation already handed to a consumer (the copy
      happens *on read*, before the tuples escape).

    Thread safety: :attr:`lock` serializes mutation and materialization.
    Writers hold it across the mutation of the mapping plus the
    :meth:`bump`; readers hold it while copying.  :meth:`bump` itself does
    not take the lock — it is a writer-side step inside the writer's
    critical section.
    """

    __slots__ = (
        "schema",
        "lock",
        "_rows",
        "_version",
        "_snapshot",
        "_snapshot_version",
        "_stats",
    )

    def __init__(
        self,
        schema: Schema,
        rows: Mapping[OngoingTuple, object],
        *,
        stats: Optional[Dict[str, int]] = None,
        version: int = 0,
    ):
        self.schema = schema
        #: Serializes writers (mutate + bump) against readers (copy).
        self.lock = threading.Lock()
        self._rows = rows
        #: Owners that rebuild their store seed *version* past the old
        #: store's, so the counter stays monotonic across full refreshes
        #: and version-based change detection never misses a rebuild.
        self._version = version
        self._snapshot: Optional[OngoingRelation] = None
        self._snapshot_version = version - 1
        if stats is None:
            stats = {"snapshots_taken": 0, "snapshots_reused": 0}
        else:
            stats.setdefault("snapshots_taken", 0)
            stats.setdefault("snapshots_reused", 0)
        self._stats = stats

    @property
    def version(self) -> int:
        """Monotonic mutation counter; snapshots are cached per version."""
        return self._version

    def __len__(self) -> int:
        """Row count of the live result — O(1), no materialization."""
        return len(self._rows)

    @property
    def tuples(self) -> Tuple[OngoingTuple, ...]:
        """The live rows, copied under the lock — what a scan planned
        over this store reads (uncounted: not a consumer's snapshot)."""
        with self.lock:
            return tuple(self._rows)

    def bump(self) -> None:
        """Record that the result set changed (writer holds :attr:`lock`)."""
        self._version += 1

    def peek(self) -> Optional[OngoingRelation]:
        """The cached snapshot if it is current, else ``None`` (no copy)."""
        with self.lock:
            if self._snapshot_version == self._version:
                return self._snapshot
            return None

    def snapshot(self) -> OngoingRelation:
        """The result as an immutable relation; copied at most once per
        version, shared by every consumer of that version."""
        with self.lock:
            if (
                self._snapshot is not None
                and self._snapshot_version == self._version
            ):
                self._stats["snapshots_reused"] += 1
                return self._snapshot
            snapshot = OngoingRelation.from_deduplicated(
                self.schema, tuple(self._rows)
            )
            self._snapshot = snapshot
            self._snapshot_version = self._version
            self._stats["snapshots_taken"] += 1
            return snapshot

    def materialize(self) -> OngoingRelation:
        """An *uncached* eager copy — the pre-store rebuild path.

        Exists for the equivalence tests and benchmarks: byte-for-byte,
        ``materialize()`` is what every refresh used to pay before the
        store made snapshots lazy.  Not counted in the snapshot stats.
        """
        return OngoingRelation.from_deduplicated(self.schema, self.tuples)

    def __repr__(self) -> str:
        return (
            f"ResultStore(rows={len(self._rows)}, version={self._version}, "
            f"snapshot={'fresh' if self._snapshot_version == self._version else 'stale'})"
        )
