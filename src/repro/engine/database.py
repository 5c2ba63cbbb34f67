"""The database catalog: named ongoing tables.

A :class:`Table` is a mutable container of ongoing tuples over a fixed
schema.  Inserts assign the trivial reference time ``{(-inf, inf)}`` — the
reference time of base tuples is set by the system, never by users
(Section VII-A).  ``Table.as_relation()`` snapshots the current contents as
an immutable :class:`~repro.relational.relation.OngoingRelation` for query
processing.

:class:`Database` is the catalog plus the query entry point: ``query(plan)``
plans and executes a logical plan, ``explain(plan)`` shows the chosen
physical operators.

**Modification hooks.**  Ongoing query results only become stale on
*explicit* modifications — never because time passes (Section IX-C).  To
let derived layers (materialized views, the live subscription engine in
:mod:`repro.live`) exploit this, every table carries a monotonically
increasing ``version`` that is bumped exactly once per modification, and
the database fans ``(table, version, delta)`` change events out to
registered delta listeners (:meth:`Table.add_delta_listener`,
:meth:`Database.add_delta_listener`).  The
:class:`~repro.engine.delta.Delta` names the rows that changed —
inserted and deleted ongoing tuples; write paths that cannot name them
(bulk ``replace_all``, ``drop_table``) report the full-flagged delta,
which downstream consumers answer with a full re-evaluation.  Compound
modifications (e.g. a current update = delete + insert) wrap themselves
in :meth:`Table.batch` so observers see a single coalesced event.

**The base heap.**  A table's rows exist once, in a counted,
insertion-ordered map ``row → multiplicity``.  Every write mutates it in
place in O(|Δ|) under the write lock and — because the multiplicities
are in its hand right then — also tells the delta which rows entered or
left the *set* (``Delta.appeared`` / ``Delta.vanished``), so scans keep
no copy of the table to find that out.

**Thread safety.**  Every database owns one re-entrant write lock
(:attr:`Database.lock`), shared by all its tables.  Each write path —
including a whole :meth:`Table.batch` block — runs under it, and the
modification hooks fire *while it is held*, so listeners observe
modifications in a single serialized order and a snapshot taken under the
lock can never tear.  Readers of materialized ongoing results never need
the lock: results are immutable relations, and serving a new reference
time is pure instantiation (the paper's core property).  The concurrent
serving layer (:mod:`repro.serve`) additionally holds this lock during
full re-evaluations so the tables it reads cannot drift mid-plan.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Collection
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.intervalset import UNIVERSAL_SET
from repro.engine.delta import (
    Delta,
    DeltaBuilder,
    FULL_DELTA,
    NonIncrementalDelta,
)
from repro.engine.plan import PlanNode
from repro.errors import QueryError, SchemaError
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

__all__ = [
    "CommitStamp",
    "Table",
    "Database",
    "DeltaListener",
]


class CommitStamp(NamedTuple):
    """One committed modification batch: monotonic tick + wall-free clock.

    ``tick`` orders commits database-wide (each :meth:`Table._bump` claims
    the next tick under the shared write lock); ``at`` is the
    ``time.monotonic()`` instant the batch committed, which the live layer
    subtracts from delivery time to measure write→deliver freshness
    (``repro_freshness_seconds``) and from "now" to measure staleness of
    still-pending deltas.  Stamps never leave the process, so the
    monotonic clock — immune to wall-clock steps — is the right base.
    """

    tick: int
    at: float

    def age(self, now: Optional[float] = None) -> float:
        """Seconds elapsed since this commit (non-negative)."""
        reference = time.monotonic() if now is None else now
        return max(0.0, reference - self.at)


def _standalone_commit_source() -> Callable[[], CommitStamp]:
    """Commit stamps for a table created outside any database."""
    ticks = itertools.count(1)
    return lambda: CommitStamp(next(ticks), time.monotonic())


#: A modification hook: ``listener(table_name, version, delta)`` with the
#: coalesced row-level :class:`~repro.engine.delta.Delta` of the
#: modification (full-flagged when the rows are unknown).  Advancing the
#: reference time never triggers a call — only explicit modifications do.
DeltaListener = Callable[[str, int, Delta], None]


class _HeapRows(Collection):
    """A table's row multiset, read in place: every stored occurrence in
    insertion order of its first copy.  A live view — hold the table's
    write lock while iterating if writers may run."""

    __slots__ = ("_table",)

    def __init__(self, table: "Table"):
        self._table = table

    def __iter__(self) -> Iterator[OngoingTuple]:
        heap = self._table._heap
        if len(heap) == self._table._size:  # no duplicates: the keys are it
            return iter(heap)
        return itertools.chain.from_iterable(
            map(itertools.repeat, heap, heap.values())
        )

    def __len__(self) -> int:
        return self._table._size

    def __contains__(self, row: object) -> bool:
        return row in self._table._heap


class Table:
    """A named, mutable base table of an ongoing database."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        *,
        lock: Optional[threading.RLock] = None,
        commit_source: Optional[Callable[[], CommitStamp]] = None,
    ):
        self.name = name
        self.schema = schema
        #: The write lock — shared with the owning database's
        #: :attr:`Database.lock` so multi-table invariants hold; a
        #: standalone table gets its own.  Re-entrant: nested batches and
        #: modification hooks that write again stay on one thread's claim.
        self.lock = lock if lock is not None else threading.RLock()
        #: Where commit ticks come from: the owning database's counter
        #: (so ticks order commits across tables), or a private one for a
        #: standalone table.
        self._commit_source = (
            commit_source
            if commit_source is not None
            else _standalone_commit_source()
        )
        #: The stamp of the most recent modification batch (``None``
        #: before the first write).  Set inside :meth:`_bump` *before* the
        #: listeners fire, so modification hooks — which run under the
        #: write lock — read the stamp of exactly the event they are
        #: handling.
        self.last_commit: Optional[CommitStamp] = None
        #: The base heap: row → multiplicity, in insertion order of each
        #: row's first copy.  The only copy of the table's rows.
        self._heap: Dict[OngoingTuple, int] = {}
        self._size = 0
        #: Caches of the current version, dropped by every modification:
        #: the snapshot, and the access paths built over it keyed by
        #: ``(kind, column)``.
        self._snapshot: Optional[OngoingRelation] = None
        self._indexes: Dict[Tuple[str, str], object] = {}
        self._version = 0
        self._delta_listeners: List[DeltaListener] = []
        self._batch_depth = 0
        self._batch_dirty = False
        self._pending_delta: Optional[DeltaBuilder] = None

    # ------------------------------------------------------------------
    # Modification hooks
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic modification counter (0 for a freshly created table).

        Bumped exactly once per modification path — a bulk insert, a
        current delete, or a whole :meth:`batch` block each count as one
        modification.  No-op writes (e.g. a current delete that matches
        nothing) do not bump the version.
        """
        return self._version

    def add_delta_listener(self, listener: DeltaListener) -> DeltaListener:
        """Register a typed hook: ``listener(name, version, delta)``."""
        self._delta_listeners.append(listener)
        return listener

    def remove_delta_listener(self, listener: DeltaListener) -> None:
        """Deregister a delta listener (no error if absent)."""
        try:
            self._delta_listeners.remove(listener)
        except ValueError:
            pass

    @contextmanager
    def batch(self) -> Iterator["Table"]:
        """Coalesce all modifications in the block into one change event.

        Nested batches coalesce into the outermost one — including their
        row deltas, so a current update (delete + insert) arrives at delta
        listeners as one delete+insert pair.  If the block does not modify
        the table, no version bump and no event happen at all.

        The write lock is held for the whole block: concurrent writers on
        other threads wait, so a compound modification (current update =
        delete + insert) is atomic for every observer.
        """
        self.lock.acquire()
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            try:
                if self._batch_depth == 0 and self._batch_dirty:
                    self._batch_dirty = False
                    self._bump()
            finally:
                self.lock.release()

    def _changed(self, delta: Delta = FULL_DELTA) -> None:
        """Record one modification: drop the caches, bump or defer."""
        self._drop_caches()
        if self._pending_delta is None:
            self._pending_delta = DeltaBuilder()
        self._pending_delta.add(delta)
        if self._batch_depth > 0:
            self._batch_dirty = True
        else:
            self._bump()

    def _bump(self) -> None:
        self._version += 1
        self.last_commit = self._commit_source()
        delta = (
            self._pending_delta.build()
            if self._pending_delta is not None
            else FULL_DELTA
        )
        self._pending_delta = None
        for listener in tuple(self._delta_listeners):
            listener(self.name, self._version, delta)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _drop_caches(self) -> None:
        """Forget what was derived from the previous version — and with
        it the last references to rows that version alone held."""
        self._snapshot = None
        self._indexes.clear()

    def _add(self, rows: Collection[OngoingTuple]) -> List[OngoingTuple]:
        """Count *rows* in; return those whose multiplicity left zero."""
        heap = self._heap
        appeared = []
        for row in rows:
            held = heap.get(row, 0)
            heap[row] = held + 1
            if not held:
                appeared.append(row)
        self._size += len(rows)
        return appeared

    def insert(self, *values: object) -> None:
        """Insert one tuple with the trivial reference time."""
        if len(values) != len(self.schema):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(values)}"
            )
        self.insert_tuples((OngoingTuple(tuple(values), UNIVERSAL_SET),))

    def insert_many(self, rows: Iterable[Sequence[object]]) -> None:
        """Bulk insert; every row gets the trivial reference time.

        All-or-nothing: every row is validated before any is stored, so a
        malformed row mid-batch cannot leave phantom rows in the table
        without a version bump or delta event.
        """
        added: List[OngoingTuple] = []
        for row in rows:
            if len(row) != len(self.schema):
                raise SchemaError(
                    f"table {self.name!r} expects {len(self.schema)} values, "
                    f"got {len(row)}"
                )
            added.append(OngoingTuple(tuple(row), UNIVERSAL_SET))
        self.insert_tuples(added)

    def insert_tuples(self, tuples: Iterable[OngoingTuple]) -> None:
        """Insert pre-built ongoing tuples (used by temporal modifications)."""
        added = tuple(tuples)
        if added:
            with self.lock:
                self._changed(Delta(added, appeared=self._add(added)))

    def delete_where(self, keep) -> int:
        """Physically remove tuples failing *keep* (a tuple -> bool callable).

        Returns the number of removed tuples.  Used by the Torp-style
        modification layer; ordinary queries never delete.  *keep* is
        opaque, so finding the rows is one pass over the heap; removing
        them is O(removed).
        """
        with self.lock:
            removed = [row for row in self.rows() if not keep(row)]
            if removed:
                self.apply_delta(Delta.delete(removed))
            return len(removed)

    def _load(self, rows: Iterable[OngoingTuple]) -> None:
        """Swap the whole heap for *rows*, counted."""
        heap: Dict[OngoingTuple, int] = {}
        size = 0
        for row in rows:
            heap[row] = heap.get(row, 0) + 1
            size += 1
        self._heap = heap
        self._size = size

    def replace_all(self, tuples: Iterable[OngoingTuple]) -> None:
        """Swap the table contents (bulk-load path of the dataset builders).

        The swap names no rows: it reports the full-flagged delta and
        observers re-evaluate from scratch.
        """
        with self.lock:
            self._load(tuples)
            self._changed(FULL_DELTA)

    def restore(self, rows: Iterable[OngoingTuple], version: int) -> None:
        """Install a checkpointed state.  Loading is not a modification:
        no listener fires and no commit tick is claimed."""
        with self.lock:
            self._load(rows)
            self._version = version
            self._drop_caches()

    def apply_delta(self, delta: Delta) -> None:
        """Apply a typed row delta in place, in O(|delta|).

        The entry of WAL replay and of the Torp-style rewrites: the heap
        moves by the delta's *net* effect per row (a batch that inserts
        and deletes the same row nets to nothing) and the *same* delta
        goes to the modification hooks, so derived results (maintainers,
        live subscriptions) refresh incrementally — replay through this
        method is indistinguishable from the original modification.
        Net inserts of a new row land at the end of the heap.

        Raises :class:`~repro.engine.delta.NonIncrementalDelta` — before
        anything moved — when the delta is full-flagged (it names no
        rows) or deletes rows this table does not hold.
        """
        if delta.full:
            raise NonIncrementalDelta(
                "full-flagged delta carries no rows to apply"
            )
        net: Dict[OngoingTuple, int] = {}
        for row in delta.inserted:
            net[row] = net.get(row, 0) + 1
        for row in delta.deleted:
            net[row] = net.get(row, 0) - 1
        with self.lock:
            heap = self._heap
            absent = sum(
                max(0, -change - heap.get(row, 0))
                for row, change in net.items()
                if change < 0
            )
            if absent:
                raise NonIncrementalDelta(
                    f"delta deletes {absent} row(s) absent from the target state"
                )
            appeared = []
            vanished = []
            for row, change in net.items():
                if not change:
                    continue
                held = heap.get(row, 0)
                if held + change:
                    heap[row] = held + change
                    if not held:
                        appeared.append(row)
                else:
                    del heap[row]
                    vanished.append(row)
                self._size += change
            self._changed(
                Delta(
                    delta.inserted,
                    delta.deleted,
                    appeared=appeared,
                    vanished=vanished,
                )
            )

    def __len__(self) -> int:
        return self._size

    def rows(self) -> Collection[OngoingTuple]:
        """The raw row multiset (duplicates preserved), read in place.

        A sized, iterable view of the heap — no copy is taken, so a
        caller that iterates while writers may run holds :attr:`lock`.
        The deduplicated :meth:`as_relation` is the immutable snapshot.
        """
        return _HeapRows(self)

    def as_relation(self) -> OngoingRelation:
        """An immutable snapshot of the current contents (cached)."""
        with self.lock:
            if self._snapshot is None:
                self._snapshot = OngoingRelation.from_deduplicated(
                    self.schema, tuple(self._heap)
                )
            return self._snapshot

    def interval_index(self, attribute: str):
        """A centered interval tree over *attribute*'s envelopes.

        Cached per table version, like :meth:`as_relation`: repeated cold
        evaluations of temporal selections between modifications share one
        build.  Returns ``None`` when the attribute cannot carry an
        interval index (fixed kind, or non-interval values).
        """
        from repro.engine.indexes import IntervalIndex

        def build(relation):
            try:
                return IntervalIndex(relation, attribute)
            except QueryError:
                return None

        return self._cached_index("interval", attribute, build)

    def partition_index(self, column: str):
        """*column*'s rows grouped by value — ``value → [rows]``, each
        bucket in snapshot order (:func:`~repro.engine.indexes.equality_buckets`).

        What an equality selection over a scan probes.  Cached per table
        version and dropped by the next write, like :meth:`interval_index`.
        Returns ``None`` when the column cannot carry buckets (an ongoing
        kind, or an ongoing value in it).
        """
        from repro.engine.indexes import equality_buckets

        return self._cached_index(
            "partition",
            column,
            lambda relation: equality_buckets(relation, column),
        )

    def _cached_index(self, kind: str, column: str, build):
        with self.lock:
            key = (kind, column)
            try:
                return self._indexes[key]
            except KeyError:
                index = self._indexes[key] = build(self.as_relation())
                return index


class Database:
    """A catalog of ongoing tables plus the query interface."""

    def __init__(self, name: str = "ongoing"):
        self.name = name
        #: The database-wide write lock.  Every table of this catalog
        #: shares it, so a multi-table write sequence under ``with
        #: db.lock:`` is atomic for all observers, and full plan
        #: re-evaluations (:mod:`repro.engine.maintenance`) hold it to
        #: read all base tables at one consistent instant.
        self.lock = threading.RLock()
        self._tables: Dict[str, Table] = {}
        self._delta_listeners: List[DeltaListener] = []
        self._commit_ticks = itertools.count(1)
        #: The stamp of the most recent commit in *any* table of this
        #: catalog (``None`` before the first write).  Claimed under the
        #: shared write lock, so ticks strictly order commits
        #: database-wide and listeners read the stamp of the event that
        #: invoked them.
        self.last_commit: Optional[CommitStamp] = None

    def _next_commit(self) -> CommitStamp:
        stamp = CommitStamp(next(self._commit_ticks), time.monotonic())
        self.last_commit = stamp
        return stamp

    def _restore_commit_ticks(self, last_tick: int) -> None:
        """Make the next commit claim tick ``last_tick + 1`` (recovery)."""
        self._commit_ticks = itertools.count(last_tick + 1)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path, **kwargs) -> "Database":
        """Open (or create) a durable database rooted at directory *path*.

        Loads the latest checkpoint, replays the write-ahead-log suffix,
        and returns a database whose every modification is WAL-logged
        from here on.  See
        :func:`repro.durable.recovery.open_database` for the keyword
        arguments (``fsync`` policy, ``session=`` to resume live
        subscriptions, ...).
        """
        from repro.durable.recovery import open_database

        return open_database(path, **kwargs)

    def checkpoint(self):
        """Write an atomic checkpoint (durable databases only).

        Persists every table heap plus the live-subscription manifest,
        then prunes WAL segments the checkpoint makes obsolete.  Returns
        the path of the published checkpoint directory.
        """
        durability = getattr(self, "_durability", None)
        if durability is None:
            raise QueryError(
                "this database is not durable; open it with Database.open(path)"
            )
        return durability.checkpoint()

    def close(self) -> None:
        """Close the live session (if any) and the durable layer (if any).

        Safe to call on a plain in-memory database, and idempotent.
        """
        session = getattr(self, "_live_session", None)
        if session is not None and not session.closed:
            session.close()
        durability = getattr(self, "_durability", None)
        if durability is not None:
            durability.close()

    # ------------------------------------------------------------------
    # Modification hooks
    # ------------------------------------------------------------------

    def add_delta_listener(self, listener: DeltaListener) -> DeltaListener:
        """Register a catalog-wide modification hook.

        *listener* is called as ``listener(table_name, version, delta)``
        after any table of this database is modified; *delta* names the
        changed rows (or is full-flagged when they are unknown).  The
        live engine and materialized views subscribe here so refreshes
        cost work proportional to the modification.  Returns *listener*
        so the call can be used inline.
        """
        self._delta_listeners.append(listener)
        return listener

    def remove_delta_listener(self, listener: DeltaListener) -> None:
        """Deregister a catalog-wide delta listener (no error if absent)."""
        try:
            self._delta_listeners.remove(listener)
        except ValueError:
            pass

    def table_version(self, name: str) -> int:
        """The modification counter of the named table."""
        return self.table(name).version

    def table_versions(self) -> Dict[str, int]:
        """Snapshot of every table's modification counter."""
        return {name: table.version for name, table in self._tables.items()}

    def _table_delta(self, name: str, version: int, delta: Delta) -> None:
        for listener in tuple(self._delta_listeners):
            listener(name, version, delta)

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create an empty table; the name must be unused."""
        with self.lock:
            if name in self._tables:
                raise QueryError(f"table {name!r} already exists")
            table = Table(
                name, schema, lock=self.lock, commit_source=self._next_commit
            )
            table.add_delta_listener(self._table_delta)
            self._tables[name] = table
            # DDL does not flow through the delta listeners (there are no
            # rows to describe), so the durable layer hooks it explicitly.
            durability = getattr(self, "_durability", None)
            if durability is not None:
                durability.log_create(table)
            return table

    def register(self, name: str, relation: OngoingRelation) -> Table:
        """Create a table pre-loaded with *relation*'s tuples."""
        table = self.create_table(name, relation.schema)
        table.insert_tuples(relation.tuples)
        return table

    def drop_table(self, name: str) -> None:
        with self.lock:
            if name not in self._tables:
                raise QueryError(f"no table named {name!r}")
            table = self._tables.pop(name)
            table.remove_delta_listener(self._table_delta)
            # Dropping is a modification of the catalog: results derived
            # from the table can no longer be refreshed, so observers must
            # hear about it once.  There is no row-level delta for a
            # vanished table — the full flag forces dependents onto the
            # re-evaluation path (where they will surface the
            # missing-table error).
            self._next_commit()
            self._table_delta(name, table.version + 1, FULL_DELTA)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(
                f"no table named {name!r}; catalog has {sorted(self._tables)}"
            ) from None

    def relation(self, name: str) -> OngoingRelation:
        """Snapshot of the named table (what scans read)."""
        return self.table(name).as_relation()

    def tables(self) -> Dict[str, Table]:
        return dict(self._tables)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, plan: PlanNode, *, optimize: bool = True) -> OngoingRelation:
        """Evaluate a logical plan once: the cold build a subscription,
        a resume and a fallback refresh start from
        (:meth:`~repro.engine.delta.DeltaEvaluator.refresh_full`), with
        the operator state dropped afterwards.

        With *optimize* (default) the algebraic rewrites (selection
        split + push-down) run before physical planning.  No lock is
        taken beyond the table snapshots the scans take at planning.
        """
        from repro.engine.delta import DeltaEvaluator

        return DeltaEvaluator(plan, self, optimize=optimize).refresh_full()

    def explain(self, plan: PlanNode, *, optimize: bool = True) -> str:
        """The physical plan chosen for *plan* (one operator per line)."""
        from repro.engine.planner import plan_query

        return plan_query(plan, self, optimize=optimize).explain()

    def sql(self, statement: str) -> OngoingRelation:
        """Execute an OSQL statement (see :mod:`repro.sqlish`)."""
        from repro.sqlish import run

        return run(statement, self)

    def explain_analyze(
        self, plan_or_sql, *, optimize: bool = True, format: str = "text"
    ):
        """Run *plan_or_sql* once and render the physical plan tree with
        per-operator live counters.

        Accepts a logical :class:`~repro.engine.plan.PlanNode` or an OSQL
        string.  The plan is evaluated through the delta engine (building
        per-operator state exactly as a live subscription would), so every
        node line shows its state rows/bytes and the time the evaluation
        spent in it.  With ``format="json"`` the same report comes back as
        plain data (the structured per-node dicts the text renderer
        consumes) for ``/explain/<fingerprint>`` and external tooling.
        For counters that accumulate across refreshes, prefer
        :meth:`~repro.live.subscription.Subscription.explain_analyze` on a
        live subscription.
        """
        from repro.engine.delta import DeltaEvaluator
        from repro.obs.explain import explain_renderer

        renderer = explain_renderer(format)
        if isinstance(plan_or_sql, str):
            from repro.sqlish import compile_statement

            plan = compile_statement(plan_or_sql, self)
            label = plan_or_sql.strip()
        else:
            plan = plan_or_sql
            label = ""
        if optimize:
            from repro.engine.rewrite import push_down_selections

            plan = push_down_selections(plan, self)
        fingerprint = plan.fingerprint()
        evaluator = DeltaEvaluator(plan, self, optimize=optimize)
        with self.lock:
            evaluator.refresh_full()
        return renderer(
            evaluator.node_report(), label=label, fingerprint=fingerprint
        )

    def live_session(self, **session_kwargs):
        """The database's lazily created live session (see :mod:`repro.live`).

        The first call creates the session; *session_kwargs* configure it
        then — e.g. ``delivery_workers=4`` to turn on the concurrent
        delivery layer (:mod:`repro.serve`) — and are rejected
        afterwards (one database, one long-lived session).  A closed
        session is replaced on the next call.
        """
        from repro.live import LiveSession

        # Under the write lock: two threads racing the first call must
        # not each register a session (the loser would linger as a
        # never-closable duplicate delta listener).
        with self.lock:
            session = getattr(self, "_live_session", None)
            if session is None or session.closed:
                session = LiveSession(self, **session_kwargs)
                self._live_session = session
            elif session_kwargs:
                raise QueryError(
                    "this database's live session already exists; close() "
                    "it before configuring a new one"
                )
            return session

    def subscribe(self, statement: str, **kwargs):
        """Register a live OSQL subscription (see :mod:`repro.live`).

        Convenience wrapper over :meth:`live_session`; keyword arguments
        are forwarded to
        :meth:`~repro.live.SubscriptionManager.subscribe_sql`.
        """
        return self.live_session().subscribe_sql(statement, **kwargs)
