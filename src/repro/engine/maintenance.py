"""One plan's maintenance record: operator state, what changed, how it refreshed.

The paper's Sec. IX-C says a materialized ongoing result needs a refresh
only after an *explicit modification* and is otherwise valid at every
reference time.  So beyond its operator state a maintained plan has one
mutable fact — *what was modified since my last refresh* — and one set of
counters about how it was refreshed.  :class:`IncrementalMaintainer`
holds both for its one consumer, the live session
(:mod:`repro.live.manager`), which keeps one maintainer per plan
fingerprint and nothing else about the plan.

**The pending record** (:attr:`IncrementalMaintainer.pending`) is one
immutable value — the modified tables, the number of change events, the
commit stamp of the *oldest* of them, while the operator state is warm
the accumulated row deltas per table, and whether the plan must
*rebuild* (a table it reads was dropped, or a provider re-evaluated or
failed — the one "rows unknown" decision, and it lives here only):

* :meth:`~IncrementalMaintainer.note_change` replaces it with a grown
  one for every modification of a table the plan reads (others are
  ignored), whether or not the state is warm;
* :meth:`~IncrementalMaintainer.refresh` *claims* it whole
  (:meth:`~IncrementalMaintainer.take_pending`) and propagates its rows
  through the cached operator state, falling back to a logged full
  re-evaluation only when the record says rebuild, the state is cold or
  an operator's rule refuses the delta
  (:class:`~repro.engine.delta.NonIncrementalDelta`) — however large the
  batch;
* :meth:`~IncrementalMaintainer.evaluate` *drops* it whole under the
  database write lock, which serializes it against ``note_change``
  (modification hooks fire with that lock held): every modification is
  either inside the re-read tables or inside the next record, never
  both, never neither.

The :class:`RefreshOutcome` says what a refresh answered for — the
tables, events and oldest stamp of the record it claimed or dropped — so
a caller never keeps a second account of what was pending: a mark that
leaves *with* the rows it describes cannot be dropped wrongly.

**A maintained plan is a table to the plans that contain it.**  A
maintainer created with *providers* — maintainers of proper sub-trees of
its plan (:func:`providers_of`) — plans each such sub-tree as a stateless
scan over the provider's result store instead of building its state a
second time, and every refresh of a provider hands its result-level
delta (``None`` from a re-evaluation: rebuild) to its *consumers*
under the name :func:`~repro.engine.delta.shared_source` gives it,
exactly as a table's delta arrives under the table's name.  Two
invariants make that sound:

* **one cut** — a consumer and the plans it reads answer for the same
  commits.  Their owner sets the pending records of all of them aside in
  one critical section of the lock that serializes ``note_change``
  (:func:`claim_round`), refreshes providers before consumers, and the
  provider's delta goes to the consumer's *claimed* record — so no
  result is ever ``provider(t₁) ⋈ table(t₂)``;
* **clean or private** — a cold build (:meth:`evaluate`, which holds the
  database write lock, so nothing can be noted meanwhile) reads a
  provider's store only while the provider is
  :attr:`~IncrementalMaintainer.clean` — nothing pending, nothing
  claimed, no refresh in flight or failed — and otherwise plans that
  sub-tree over the base tables, as a plan without providers does.

The tables a plan is *routed* by stay those of its whole logical plan,
shared or not, so the events, stamps and tables its outcomes report do
not depend on what it shares.

Lock order, for every consumer: ``database.lock → session lock →
maintainer lock``.  :attr:`IncrementalMaintainer.lock` guards the pending
record and the counters; readers of :attr:`IncrementalMaintainer.result`
and :attr:`IncrementalMaintainer.pending` need no lock at all — the
result is a **version-aware lazy view** of the versioned store
(:class:`~repro.relational.relation.ResultStore`: a delta refresh mutates
it in O(|Δ|), the immutable snapshot consumers read is copied on demand,
at most once per version) and the record is replaced by a new tuple on
every change, never updated in place (only its row accumulators are,
under the lock).
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.delta import (
    Delta,
    DeltaBuilder,
    DeltaEvaluator,
    NonIncrementalDelta,
    shared_source,
)
from repro.engine.plan import PlanNode, Scan
from repro.relational.relation import OngoingRelation, ResultStore

__all__ = ["IncrementalMaintainer", "RefreshOutcome"]

logger = logging.getLogger("repro.engine.delta")


class _Pending(NamedTuple):
    """What was modified since the last refresh (see the module docstring).

    ``rows`` holds one builder per *source* the operator tree scans — a
    base table, or a provider's store under its
    :func:`~repro.engine.delta.shared_source` name — and is complete
    exactly when the operator state was warm for the record's whole life
    — and a state only turns warm in
    :meth:`IncrementalMaintainer.evaluate`, which drops the record — so a
    warm refresh can always trust the rows it claims.  The builders are
    the one mutable part: touched only under the maintainer lock, or by
    the refresh that claimed the record.  ``rebuild`` says the rows do
    not tell the whole story — a source was dropped, or a provider
    re-evaluated — and leaves with the claim, as the rows do.
    """

    tables: FrozenSet[str]
    events: int
    commit: Optional[object]
    rows: Dict[str, DeltaBuilder]
    rebuild: bool = False


def _nothing_pending() -> _Pending:
    return _Pending(frozenset(), 0, None, {})


def _fold(older: _Pending, newer: _Pending) -> _Pending:
    """One record answering for both, *older* first."""
    if not older.events and not older.rows and not older.rebuild:
        return newer
    rows = older.rows
    for source, builder in newer.rows.items():
        held = rows.get(source)
        if held is None:
            rows[source] = builder
        else:
            held.add(builder.build())
    return _Pending(
        older.tables | newer.tables,
        older.events + newer.events,
        newer.commit if older.commit is None else older.commit,
        rows,
        older.rebuild or newer.rebuild,
    )


@dataclass(frozen=True)
class RefreshOutcome:
    """What one maintenance step did, and what it answered for.

    ``delta`` is the exact result-level change when the refresh
    propagated row deltas through cached operator state, and ``None``
    when it was a full re-evaluation (a rebuild, cold state or a failed
    propagation — automatic and logged).  ``changed`` says
    whether the result set differs from the one served before the
    refresh — on the delta path that is ``not delta.is_empty()``, on the
    full path an explicit old-vs-new comparison (O(|result|) on a path
    that is already O(|result|)).  Neither field requires the caller to
    materialize a snapshot: consumers that only need to know *whether* to
    notify never pay a copy.

    ``tables``, ``events`` and ``commit`` are the pending record the step
    consumed — the modified tables, how many change events it folded
    together, and the stamp of the oldest of them (``None`` when no
    stamped write was pending): whatever was noted before the step and is
    not listed here is still pending after it.
    """

    delta: Optional[Delta]
    changed: bool
    tables: FrozenSet[str]
    events: int
    commit: Optional[object]


class IncrementalMaintainer:
    """Incremental maintenance of one logical plan, with automatic fallback.

    The maintainer owns the plan's :class:`DeltaEvaluator` (and through
    it the versioned result store), the pending record, and the refresh
    counters.  All consumers drive it through three entry points:

    * :meth:`note_change` — record one modification (called from the
      database's modification hooks, under the database write lock);
    * :meth:`evaluate` — full (re-)evaluation, (re)building delta state;
    * :meth:`refresh` — one maintenance step: propagate the pending
      deltas, or fall back to a full re-evaluation automatically.

    *providers* are maintainers of proper sub-trees of *plan* kept by
    the same owner (:func:`providers_of`): this plan scans their result
    stores instead of building those sub-trees, and is handed their
    deltas (see the module docstring for the two invariants).

    Thread safety: :attr:`lock` guards the pending record and the counters.  A
    full re-evaluation runs under the owning database's write lock, which
    also serializes it against :meth:`note_change` (modification hooks
    fire with that lock held) — so deltas subsumed by the re-read tables
    are dropped atomically and can never be applied twice.  Callers
    must serialize :meth:`refresh`/:meth:`evaluate` per maintainer (a
    live session refreshes on one thread at a time); readers of
    :attr:`result` need no lock at all — the store serializes snapshot
    copies internally and hands out immutable relations.
    """

    def __init__(
        self,
        plan,
        database,
        *,
        label: str,
        fingerprint: Optional[str] = None,
        tracer=None,
        providers: Sequence["IncrementalMaintainer"] = (),
    ):
        self.plan = plan
        self.database = database
        self.label = label
        #: The plan fingerprint, named by the fallback log line; defaults
        #: to the label so standalone maintainers still carry identity.
        self.fingerprint = fingerprint or label
        #: Optional :class:`~repro.obs.trace.TraceRecorder`, threaded
        #: through to the evaluator's per-operator spans.
        self.tracer = tracer
        #: Guards the pending record and the counters.
        self.lock = threading.RLock()
        #: Whoever consumes this plan's refreshes — a live session keeps
        #: the plan's subscriptions here, under its own lock; the
        #: maintainer itself never reads it.
        self.subscribers: list = []
        #: Times the plan was evaluated: every :meth:`evaluate` (the
        #: first one included) and every delta application.
        self.evaluations = 0
        #: Refreshes that propagated deltas through cached state.
        self.delta_refreshes = 0
        #: *Refreshes* that had to re-evaluate the plan — a rebuild,
        #: cold state, a failed propagation.  A direct
        #: :meth:`evaluate` (the evaluation that materializes a plan) is
        #: not a refresh and counts under :attr:`evaluations` only.
        self.full_refreshes = 0
        #: Incremental attempts that fell back to a full re-evaluation.
        self.delta_fallbacks = 0
        #: The plan's one evaluator, for the maintainer's whole life: its
        #: store serves readers through every rebuild (``refresh_full``
        #: swaps the store in only once the new one is complete), and its
        #: snapshot counters survive them.
        self._evaluator = DeltaEvaluator(plan, database, tracer=tracer)
        self._relevant: FrozenSet[str] = plan.referenced_tables()
        self._pending = _nothing_pending()
        #: The record :meth:`claim` set aside for the next refresh.
        self._claimed = _nothing_pending()
        #: ``True`` while the store does not answer for a record already
        #: taken: never evaluated, a refresh in flight, or one that failed.
        self._behind = True
        #: The maintained plans this one reads instead of building their
        #: sub-trees again (fixed for its life; each cold build uses the
        #: ones that are :attr:`clean`), and the plans that read this one
        #: — both written only under the owner's lock, by the constructor
        #: and :meth:`unlink`.
        self.providers: Tuple["IncrementalMaintainer", ...] = tuple(providers)
        self.consumers: List["IncrementalMaintainer"] = []
        #: Providers refresh before consumers: the longest chain below.
        self.depth = 1 + max((p.depth for p in self.providers), default=-1)
        for provider in self.providers:
            provider.consumers.append(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def result(self) -> Optional[OngoingRelation]:
        """The maintained result as an immutable snapshot (lazy).

        Reading this is the only operation that materializes: the store
        copies its row set at most once per version and every consumer of
        that version shares the copy.  A relation returned here is frozen
        forever — later refreshes mutate the store, never the snapshot.
        ``None`` before the first successful evaluation.
        """
        return self._evaluator.result

    @property
    def snapshots_taken(self) -> int:
        """Snapshot copies actually materialized (one per read version)."""
        return self._evaluator.snapshot_stats["snapshots_taken"]

    @property
    def snapshots_reused(self) -> int:
        """Reads served by an already-materialized snapshot (no copy)."""
        return self._evaluator.snapshot_stats["snapshots_reused"]

    @property
    def warm(self) -> bool:
        """``True`` when operator state exists and deltas can be applied."""
        return self._evaluator.warm

    @property
    def store(self) -> Optional[ResultStore]:
        """The versioned result store consumers scan (``None`` before
        the first evaluation; replaced by every re-evaluation)."""
        return self._evaluator.store

    @property
    def clean(self) -> bool:
        """``True`` when the store answers for every modification noted
        so far: nothing pending, nothing claimed, and the last refresh
        completed.  Only then may another plan's cold build read it."""
        with self.lock:
            return not (
                self._behind or self._claimed.events or self._pending.events
            )

    def unlink(self) -> Tuple["IncrementalMaintainer", ...]:
        """Stop reading other plans: detach from every provider and
        return them, for the owner to release those nobody else holds."""
        providers, self.providers = self.providers, ()
        for provider in providers:
            provider.consumers.remove(self)
        return providers

    def state_bytes(self) -> int:
        """Estimated operator-state memory, in storage-layout bytes (0
        while the state is cold)."""
        return self._evaluator.state_bytes()

    def node_report(self):
        """Per-operator live counters (see ``DeltaEvaluator.node_report``);
        empty while the state is cold."""
        return self._evaluator.node_report()

    def explain_analyze(self, *, format: str = "text"):
        """The physical plan annotated with live maintenance counters.

        Renders the current operator tree with per-node state rows,
        estimated state bytes, cumulative ``apply_delta`` wall time and
        delta sizes, and per-node fallback counts — plus a header with
        the plan-level refresh totals.  A cold plan renders the header
        and the reason instead of a tree.  ``format="json"`` returns the
        same report as plain data.
        """
        from repro.obs.explain import explain_renderer

        renderer = explain_renderer(format)
        with self.lock:
            totals = {
                "evaluations": self.evaluations,
                "full_refreshes": self.full_refreshes,
                "delta_refreshes": self.delta_refreshes,
                "delta_fallbacks": self.delta_fallbacks,
                "state_bytes": self.state_bytes(),
            }
        return renderer(
            self.node_report(),
            label=self.label,
            fingerprint=self.fingerprint,
            totals=totals,
            cold_reason="not yet evaluated, or the last refresh failed",
        )

    @property
    def pending(self) -> _Pending:
        """The pending record: ``tables``, ``events`` and the oldest
        ``commit`` stamp of the modifications no refresh has answered
        for yet.  One consistent value, readable without the lock."""
        return self._pending

    @property
    def owed(self) -> _Pending:
        """The record the next :meth:`refresh` answers for: the claimed
        one if a cut was taken, else the pending one."""
        claimed = self._claimed
        return claimed if claimed.events else self._pending

    @property
    def dirty(self) -> bool:
        """``True`` iff a table the plan reads was modified since the
        last refresh — never because time passed."""
        return self._claimed.events > 0 or self._pending.events > 0

    def pending_snapshot(self) -> Dict[str, Delta]:
        """The accumulated-but-unapplied deltas (for introspection)."""
        with self.lock:
            return {
                table: builder.build()
                for table, builder in self._pending.rows.items()
            }

    # ------------------------------------------------------------------
    # Delta intake
    # ------------------------------------------------------------------

    def note_change(
        self, table: str, delta: Optional[Delta], commit=None
    ) -> None:
        """Record one modification of *table* for the next :meth:`refresh`.

        A table the plan does not read is ignored.  Otherwise the record
        grows by the table, one event and — if it has none yet — the
        *commit* stamp: a refresh answers for every write folded into
        it, so freshness is measured against the oldest one waiting.
        The rows are only worth holding while a later refresh can
        consume them, i.e. while the operator state is warm (a cold
        plan's next refresh is a full evaluation anyway) and scans the
        table itself — what it reads through a provider arrives as that
        provider's delta (:meth:`_derive`).  *delta* ``None`` says the
        table was dropped: the record then asks for a rebuild.
        """
        if table not in self._relevant:
            return
        with self.lock:
            tables, events, oldest, rows, rebuild = self._pending
            if table not in tables:
                tables = tables | {table}
            if delta is None:
                rebuild = True
            elif table in self._evaluator.sources:
                self._add_rows(rows, table, delta)
            self._pending = _Pending(
                tables,
                events + 1,
                commit if oldest is None else oldest,
                rows,
                rebuild,
            )

    @staticmethod
    def _add_rows(
        rows: Dict[str, DeltaBuilder], source: str, delta: Delta
    ) -> None:
        builder = rows.get(source)
        if builder is None:
            builder = rows[source] = DeltaBuilder()
        builder.add(delta)

    def _derive(self, source: str, delta: Optional[Delta]) -> None:
        """A provider refreshed: take its result-level *delta* (``None``
        = it re-evaluated or failed, so this plan must rebuild) into the
        record cut together with the provider's — the claimed one — or,
        when no cut was taken, the pending one.  Ignored unless the
        current operator tree scans the provider's store."""
        with self.lock:
            if source not in self._evaluator.sources:
                return
            if delta is not None:
                self._add_rows(self.owed.rows, source, delta)
            elif self._claimed.events:
                self._claimed = self._claimed._replace(rebuild=True)
            else:
                self._pending = self._pending._replace(rebuild=True)

    def _hand_down(self, delta: Optional[Delta]) -> None:
        if self.consumers:
            source = shared_source(self.fingerprint)
            for consumer in tuple(self.consumers):
                consumer._derive(source, delta)

    def claim(self) -> None:
        """Set everything owed aside as the record the next
        :meth:`refresh` answers for — alone, whatever is noted until
        then.  The owner calls this for a consumer and the plans it
        reads in one critical section (:func:`claim_round`)."""
        with self.lock:
            self._claimed = self.take_pending()

    def take_pending(self, *, cut: bool = False) -> _Pending:
        """Atomically claim what is owed, leaving none of it: the record
        :meth:`claim` set aside folded with the pending one — or, with
        *cut*, the claimed record alone when there is one."""
        with self.lock:
            taken, self._claimed = self._claimed, _nothing_pending()
            if not (cut and taken.events):
                taken = _fold(taken, self._pending)
                self._pending = _nothing_pending()
            if taken.events:
                self._behind = True
            return taken

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def evaluate(self) -> RefreshOutcome:
        """Full (re-)evaluation; (re)builds the delta state.

        Runs under the database write lock: the tables are read at one
        consistent instant, and everything owed — all of it subsumed
        by that read — is dropped in the same critical section, so a
        concurrent writer's modification is either inside the fresh
        result (its hook ran before we took the lock, and the outcome
        answers for it) or inside the next record, never both.  Readers
        stay served throughout: the evaluator keeps its previous store
        until the rebuilt one is complete.

        A provider's store stands in for its sub-tree only if the
        provider is :attr:`clean` right now — with the write lock held
        nothing can be noted, so it stays clean while it is read — and
        the rebuilt store is a new object: consumers are told to rebuild
        (also when the evaluation fails — the old store then lags).
        """
        with self.database.lock:
            # The previously served result, for the changed-comparison of
            # the full path; materializing it here is O(|result|) on a
            # path that is already O(|result|).
            previous = self.result
            dropped = self.take_pending()
            evaluator = self._evaluator
            shared = {
                provider.fingerprint: provider.store
                for provider in self.providers
                if provider.clean
            }
            try:
                result = evaluator.refresh_full(shared)
            finally:
                self._hand_down(None)
            with self.lock:
                self._behind = False
                self.evaluations += 1
            changed = previous is None or result != previous
            return RefreshOutcome(
                None, changed, dropped.tables, dropped.events, dropped.commit
            )

    def _reevaluate(self, claimed: _Pending) -> RefreshOutcome:
        """The fall-through of :meth:`refresh`: a refresh that
        re-evaluates.  It answers for the record the refresh had already
        *claimed* and for whatever :meth:`evaluate` dropped on top — the
        events that arrived between the claim and the write lock."""
        outcome = self.evaluate()
        with self.lock:
            self.full_refreshes += 1
        return RefreshOutcome(
            None,
            outcome.changed,
            claimed.tables | outcome.tables,
            claimed.events + outcome.events,
            outcome.commit if claimed.commit is None else claimed.commit,
        )

    def refresh(self) -> RefreshOutcome:
        """One maintenance step; returns the :class:`RefreshOutcome`.

        ``outcome.delta`` is the exact result-level change when the
        refresh propagated the pending deltas through cached operator
        state, and ``None`` when the refresh was a full re-evaluation —
        because the record asked for a rebuild, the state was cold, or an
        operator's rule refused the delta
        (:class:`~repro.engine.delta.NonIncrementalDelta`).  A warm plan
        without a rebuild always tries the delta first, however many rows
        are pending.  The fallback is automatic
        and logged; callers only need the outcome to know which path ran
        and whether to notify.  The delta path costs O(|Δ|) end to end —
        no snapshot is materialized here.

        Consumers hear of every outcome *before* this plan counts as
        :attr:`clean` again: the exact delta, or — after a
        re-evaluation, or when the refresh raises and the store lags
        from here on — that they must rebuild.
        """
        claimed = self.take_pending(cut=True)
        try:
            return self._propagate(claimed)
        except BaseException:
            self._hand_down(None)
            raise

    def _propagate(self, claimed: _Pending) -> RefreshOutcome:
        evaluator = self._evaluator
        if not evaluator.warm:
            with self.lock:
                self.delta_fallbacks += 1
            return self._reevaluate(claimed)
        try:
            if claimed.rebuild:
                raise NonIncrementalDelta(
                    "a table it reads was dropped, or a plan it reads "
                    "re-evaluated"
                ).annotate(delta_shape="rebuild")
            delta = evaluator.apply(
                {table: rows.build() for table, rows in claimed.rows.items()}
            )
        except NonIncrementalDelta as exc:
            logger.info(
                "delta propagation for %s (plan %s) fell back to full "
                "re-evaluation (operator=%s, table=%s, delta=%s): %s",
                self.label,
                self.fingerprint[:12],
                getattr(exc, "operator", None),
                getattr(exc, "table", None),
                getattr(exc, "delta_shape", None),
                exc,
            )
            with self.lock:
                self.delta_fallbacks += 1
            return self._reevaluate(claimed)
        self._hand_down(delta)
        with self.lock:
            self._behind = False
            self.evaluations += 1
            self.delta_refreshes += 1
        return RefreshOutcome(
            delta,
            not delta.is_empty(),
            claimed.tables,
            claimed.events,
            claimed.commit,
        )


def providers_of(
    plan: PlanNode, plans: Mapping[str, IncrementalMaintainer]
) -> List[IncrementalMaintainer]:
    """The maintainers in *plans* (by fingerprint) of the largest proper
    sub-trees of *plan* — what a new maintainer of *plan* can read
    instead of building, at most one per
    :func:`~repro.engine.delta.shared_source` name.  A bare scan is never
    one: it holds no state to share."""
    found: Dict[str, IncrementalMaintainer] = {}
    stack = list(plan.children())
    while stack:
        node = stack.pop()
        maintainer = (
            None if isinstance(node, Scan) else plans.get(node.fingerprint())
        )
        if maintainer is None:
            stack.extend(node.children())
        else:
            found.setdefault(shared_source(maintainer.fingerprint), maintainer)
    return list(found.values())


def claim_round(dirty: Iterable[IncrementalMaintainer]) -> List[str]:
    """Take the cut of one flush round and order it.

    The caller holds the lock that serializes ``note_change`` for all of
    *dirty*.  Every plan that reads, or is read by, another one has its
    record claimed here — so a consumer and its providers answer for the
    same commits however long the round takes; a plan on its own keeps
    claiming inside its refresh, as late as it can.  Returns the
    fingerprints in refresh order: each plan after every plan it reads,
    first noted first at equal depth.
    """
    dirty = list(dirty)
    for maintainer in dirty:
        if maintainer.providers or maintainer.consumers:
            maintainer.claim()
    # A stable sort: first noted stays first at equal depth.
    dirty.sort(key=lambda maintainer: maintainer.depth)
    return [maintainer.fingerprint for maintainer in dirty]
