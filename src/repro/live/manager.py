"""The subscription manager: modification-driven refresh orchestration.

:class:`SubscriptionManager` (aliased :class:`LiveSession`) is the facade
of the live engine, and it is **one pipeline**:

1. **registration** — :meth:`~SubscriptionManager.subscribe` rewrites the
   plan and attaches the subscription to the plan's
   :class:`~repro.engine.maintenance.IncrementalMaintainer` — one per
   fingerprint, created and evaluated by the first subscriber, shared by
   every later one — routes the tables it reads to it, and attaches the
   callback to the bus;
2. **intake** — the database's modification hook hands each plan that
   reads the modified table the typed row delta
   (:class:`~repro.engine.delta.Delta`) and its commit stamp, remembers
   where :meth:`~SubscriptionManager.flush` has to look, and wakes the
   serve loop.  Intake never refreshes;
3. **flush** — :meth:`~SubscriptionManager.flush` refreshes each dirty
   plan **once**, however many modifications accumulated, by
   *propagating* the coalesced deltas through the plan's cached operator
   state (work proportional to the modification, not the database).  A
   refresh that cannot be incremental — cold state, a dropped table or
   a re-evaluated provider, or a delta an operator cannot absorb —
   falls back to a full re-evaluation automatically, logged and counted;
4. **delivery** — every subscription whose result changed is notified on
   the bus, in its own mailbox; one whose result did not change stays
   silent.

There are two ways to run step 3, and no others: call :meth:`flush`
yourself, or :meth:`~SubscriptionManager.serve` and let the background
loop (:mod:`repro.live.serving`) call it after a debounce window.

The control flow enforces the paper's property by construction: the only
path that re-evaluates a plan starts at a base-table change event.  There
is no timer, no polling loop, and no clock — advancing the reference time
is pure instantiation work on already-materialized ongoing results.

**One thread refreshes.**  Steps 1–3 run on whichever thread calls them
— a flush round is a plain loop over the dirty plans on the caller's
thread or the serve loop's — and step 4 goes through the session's one
:class:`~repro.serve.bus.EventBus`, where ``delivery_workers`` says which
thread calls back: ``0`` (the default) runs each callback inside the
flush that notified it; ``N`` enqueues notifications to per-subscriber
bounded mailboxes (a full one merges at once: the flush never waits for
a subscriber, and nothing is evicted) and N worker threads run the
callbacks, so one slow callback no longer stalls the flush.  The mailbox
options are checked — and persisted by a checkpoint — either way.  The
threads a session can own are therefore the serve loop and the delivery
workers.

:meth:`~SubscriptionManager.close` stops the loop, performs a final
flush, drains every queue, and joins all workers.  Freshness accounting
and the metrics scrape live in :mod:`repro.live.metrics`; decoding a
checkpointed subscription in :mod:`repro.durable.snapshot`.

What a session knows about a plan is that one maintainer: *what was
modified since its last refresh* is the maintainer's pending record
(claimed whole by the refresh that answers for it), *how it was
refreshed* is the maintainer's counters (summed by :meth:`stats`, retired
into the session's totals when the last subscriber leaves).  Beside it
the session keeps only ``table → fingerprints`` routing and the set of
fingerprints to look at.

**Join state exists once.**  A plan that contains a plan the session
already maintains (``J2 = J1 ⋈ B`` after ``J1``) does not build that
sub-tree again: its maintainer is created with the other one as a
*provider* and scans its result store (``SeqScan @<fingerprint>`` in
``explain_analyze()``), and each refresh of the provider hands its
result-level delta on as if it were a table's.  The bookkeeping is the
maintainers' (:mod:`repro.engine.maintenance`); the session does three
things for it: :meth:`_attach_plan` looks the providers up,
:meth:`_release_plan` keeps a plan while a subscriber *or a consumer*
holds it, and :meth:`flush` takes **one cut** per round — in the
critical section that snapshots the dirty set, which intake's
``note_change`` calls share, it claims the pending record of every plan
that reads or is read by another, and then refreshes providers before
consumers.  Routing stays by the tables of the whole logical plan, so
what a notification reports does not depend on what its plan shares.

Thread-safety: session state (plans, routing, dirty set, stats,
registrations) is guarded by one session lock; write intake runs under
the database write lock (modification hooks fire while it is held), and
the lock order is always ``database.lock → session lock → maintainer
lock``.  Calling :meth:`flush`, :meth:`stop_serving` or
:meth:`close` from inside an ``on_refresh`` callback is safe — a nested
flush is folded into the running one, and no loop ever waits for or
joins the thread it is called on.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.timeline import TimePoint
from repro.engine.database import Database
from repro.engine.delta import Delta
from repro.engine.maintenance import (
    IncrementalMaintainer,
    claim_round,
    providers_of,
)
from repro.engine.plan import PlanNode
from repro.engine.rewrite import push_down_selections
from repro.errors import QueryError
from repro.obs.explain import explain_renderer
from repro.obs.registry import Registry
from repro.obs.slo import FreshnessSLO
from repro.obs.trace import NULL_TRACER, TraceRecorder
from repro.serve.bus import EventBus
from repro.serve.queues import check_capacity

from repro.live.events import RefreshNotification
from repro.live.metrics import SessionMetrics
from repro.live.serving import ServeLoop
from repro.live.subscription import Subscription

__all__ = ["SubscriptionManager", "LiveSession"]

logger = logging.getLogger("repro.live.manager")

#: ``(stats key, maintainer attribute)``: the counters a plan keeps about
#: its own refreshes.  ``stats()`` reports each as the live plans' sum
#: plus what dropped plans retired — one list for both, so a refresh is
#: counted once, where it happens.
_PLAN_COUNTERS = (
    ("repro_live_evaluations_total", "evaluations"),
    ("repro_live_delta_refreshes_total", "delta_refreshes"),
    ("repro_live_full_refreshes_total", "full_refreshes"),
    ("repro_store_snapshots_taken_total", "snapshots_taken"),
    ("repro_store_snapshots_reused_total", "snapshots_reused"),
)

#: What ``backpressure=`` accepts.  Both names mean the one behaviour — a
#: full mailbox merges at once and nobody waits — and are kept because
#: the ledger's session passes ``"block"``, its burst workload
#: ``"coalesce"``, and checkpoints persist a subscription's name for it
#: (ROADMAP 3b's ``pool_v2`` may drop the keyword).
_BACKPRESSURE = ("block", "coalesce")


def _check_backpressure(name: Optional[str]) -> None:
    """Refuse a ``backpressure`` name no session accepts (``None`` is a
    subscription keeping the session's)."""
    if name == "drop_oldest":
        raise ValueError(
            "the drop_oldest backpressure policy was removed (a full mailbox "
            "never evicts); choose 'coalesce', which merges instead"
        )
    if name is not None and name not in _BACKPRESSURE:
        raise ValueError(
            f"unknown backpressure policy {name!r}; choose one of {_BACKPRESSURE}"
        )


class SubscriptionManager:
    """Registers ongoing queries and refreshes them on modifications only.

    Usage::

        session = SubscriptionManager(database)          # or LiveSession
        sub = session.subscribe_sql(
            "SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/01, 09/01)'",
            on_refresh=lambda event: push_to_client(event.rows),
            reference_time=today,
        )
        sub.instantiate(today + 30)   # cheap, no re-evaluation, still correct
        current_delete(db.table("B"), match, at=today)   # marks sub dirty
        session.flush()               # one re-evaluation, one notification

    For high-traffic serving, turn on the concurrent layer::

        session = LiveSession(db, delivery_workers=4)
        session.serve()               # background modification-driven flush
    """

    def __init__(
        self,
        database: Database,
        *,
        delivery_workers: int = 0,
        flush_shards: int = 0,
        queue_capacity: int = 64,
        backpressure: str = "coalesce",
        registry: Optional["Registry"] = None,
        freshness_slo: Optional[FreshnessSLO] = None,
        trace: object = False,
    ):
        if flush_shards != 0:
            # Not an option: PR 23 deleted sharded flushing (one thread
            # refreshes).  The keyword survives only because the ledger's
            # lifecycle still passes ``flush_shards=0``; ROADMAP 3b's
            # ``pool_v2`` drops that key, and this guard with it.
            raise QueryError(
                "flush_shards was removed in PR 23 (one thread refreshes); "
                "the keyword only accepts 0"
            )
        # Not an option either: checked, then stored nowhere.
        _check_backpressure(backpressure)
        self.database = database
        self.delivery_workers = delivery_workers
        #: The session's metrics registry.  Counters are on by default:
        #: the freshness histogram plus a pull-at-snapshot collector
        #: that maps the session/serve/store stats onto the canonical
        #: ``repro_<layer>_<what>_total`` names.  Pass a shared
        #: :class:`~repro.obs.registry.Registry` to aggregate several
        #: sessions onto one scrape surface.
        self.metrics = registry if registry is not None else Registry()
        #: Optional freshness objective (:class:`~repro.obs.slo.FreshnessSLO`).
        #: Every observed write→deliver latency feeds it and ``/health``
        #: reports its error-budget burn.  It only observes: the serve
        #: loop's window does not read it.
        self.freshness_slo = freshness_slo
        #: Opt-in span recording (``trace=True`` / a capacity int / a
        #: :class:`~repro.obs.trace.TraceRecorder`).  ``None`` when off.
        if isinstance(trace, TraceRecorder):
            self.tracer: Optional[TraceRecorder] = trace
        elif trace:
            capacity = trace if isinstance(trace, int) and trace > 1 else 4096
            self.tracer = TraceRecorder(capacity=capacity)
        else:
            self.tracer = None
        #: Where the session's own spans go: the recorder, or the shared
        #: disabled one whose ``span()`` is a no-op context manager — so
        #: every traced stage below is one call site, traced or not.
        self._spans: TraceRecorder = (
            self.tracer if self.tracer is not None else NULL_TRACER
        )
        #: Where notifications travel.  Built before the session registers
        #: anywhere: options no mailbox accepts fail here, with nothing
        #: to undo.
        self.bus = EventBus(
            workers=delivery_workers,
            capacity=queue_capacity,
            tracer=self.tracer,
        )
        #: Guards all session state below (never held while delivering).
        self._lock = threading.RLock()
        #: fingerprint → the plan's one record (:meth:`_attach_plan` /
        #: :meth:`_release_plan` are the only writers of this and the
        #: next two).
        self._plans: Dict[str, IncrementalMaintainer] = {}
        #: table → fingerprints of the plans that read it.
        self._routes: Dict[str, Set[str]] = {}
        #: Where :meth:`flush` has to look: the fingerprints intake
        #: touched since the last round, in first-touched order (a dict
        #: for its order — rounds refresh deterministically).  Only a
        #: hint: *what* is pending is the maintainer's record.
        self._dirty: Dict[str, None] = {}
        self._subscriptions: Dict[int, Subscription] = {}
        #: The session's own counters.  The :data:`_PLAN_COUNTERS` keys
        #: hold what dropped plans retired, so totals stay monotonic.
        self._stats = {
            "repro_live_events_total": 0,
            "repro_live_flushes_total": 0,
            "repro_live_suppressed_notifications_total": 0,
            "repro_live_notifications_total": 0,
            "repro_live_refresh_errors_total": 0,
            "repro_live_cache_hits_total": 0,
            **{key: 0 for key, _ in _PLAN_COUNTERS},
        }
        self._closed = False
        self._flushing = False
        self._reentrant_flush_requested = False
        #: The background flush loop (started by serve(), stopped by
        #: stop_serving()/close()); its saturation depth is at least one
        #: full mailbox.
        self._serve_loop = ServeLoop(self, capacity=queue_capacity)
        #: Freshness observer + registry collector (registers itself on
        #: :attr:`metrics`; :meth:`close` unregisters it).
        self._observer = SessionMetrics(self)
        self.bus.on_delivered = self._observer.on_delivered
        database.add_delta_listener(self._intake)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def subscribe(
        self,
        plan: PlanNode,
        *,
        on_refresh: Optional[Callable[[RefreshNotification], None]] = None,
        reference_time: Optional[TimePoint] = None,
        name: Optional[str] = None,
        backpressure: Optional[str] = None,
        queue_capacity: Optional[int] = None,
        statement: Optional[str] = None,
    ) -> Subscription:
        """Register an ongoing query plan as a live subscription.

        Structurally equal plans — same fingerprint — share one
        materialization: the first subscriber pays the evaluation, later
        ones attach for free (a cache hit).  *on_refresh* is invoked after
        every modification-driven refresh **that changed this result**;
        a flush whose propagated delta turns out empty (an irrelevant row
        was modified) stays silent.
        *reference_time* (the caller-chosen instantiation point, mutable
        on the returned handle) selects the fixed rows delivered with
        each notification.

        *queue_capacity* overrides the session-wide mailbox size for this
        subscriber only (an audit consumer that wants every notification
        separately gets room for them while dashboards merge).
        *backpressure* is kept with the subscription but selects nothing:
        ``"block"`` and ``"coalesce"`` both merge into a full mailbox at
        once.  Both are checked here whatever ``delivery_workers`` is — a
        checkpoint persists them for a session that may have workers.

        *statement* records the OSQL source this plan came from
        (:meth:`subscribe_sql` fills it in) so a durable checkpoint can
        recompile the subscription on :meth:`resume`; plan-object
        subscriptions are checkpointed as their plan in the manifest's
        data encoding instead (:func:`~repro.durable.snapshot.encode_plan`:
        a literal the tagged storage codec cannot hold, such as a float,
        makes that checkpoint raise).
        """
        self._require_open()
        # Checked here and not left to the bus: a subscription without a
        # callback never reaches it, yet a checkpoint persists its options
        # for a resume that may supply one.
        _check_backpressure(backpressure)
        if queue_capacity is not None:
            check_capacity(queue_capacity)
        # Rewrite before fingerprinting: pushed-down selections shrink the
        # cached operator state, and the fingerprint of the *rewritten*
        # plan is the canonical sharing key — two subscribers whose plans
        # normalize to the same shape share one materialization.
        plan = push_down_selections(plan, self.database)
        # The database lock spans plan registration and the first
        # evaluation: no modification can slip between them, so the
        # freshly built operator state is exactly as-of the registration.
        with self.database.lock:
            with self._lock:
                maintainer, created = self._attach_plan(plan)
            try:
                if created:
                    maintainer.evaluate()
                subscription = Subscription(
                    self,
                    maintainer,
                    reference_time=reference_time,
                    name=name,
                    statement=statement,
                    backpressure=backpressure,
                    queue_capacity=queue_capacity,
                )
                # Give the subscription its mailbox *before* attaching it
                # (and before releasing the write lock): once attached, a
                # flush on another thread may notify immediately.
                if on_refresh is not None:
                    subscription._unsubscribe_bus = self.bus.subscribe(
                        subscription.id,
                        on_refresh,
                        capacity=queue_capacity,
                    )
            except Exception:
                # Roll the registration back: a plan that failed to
                # evaluate, or that nobody ended up subscribed to, must
                # not be cache-hit by a later subscribe of the same plan.
                with self._lock:
                    self._release_plan(maintainer)
                raise
            with self._lock:
                maintainer.subscribers.append(subscription)
                self._subscriptions[subscription.id] = subscription
        return subscription

    def _attach_plan(self, plan: PlanNode) -> Tuple[IncrementalMaintainer, bool]:
        """The maintainer of *plan*'s fingerprint and whether this call
        registered it — the one place a plan enters the session (session
        lock held; the caller evaluates a new one before anyone can
        reach it)."""
        fingerprint = plan.fingerprint()
        maintainer = self._plans.get(fingerprint)
        if maintainer is not None:
            self._stats["repro_live_cache_hits_total"] += 1
            return maintainer, False
        maintainer = self._plans[fingerprint] = IncrementalMaintainer(
            plan,
            self.database,
            label=f"plan {fingerprint[:12]}",
            fingerprint=fingerprint,
            tracer=self.tracer,
            providers=providers_of(plan, self._plans),
        )
        for table in plan.referenced_tables():
            self._routes.setdefault(table, set()).add(fingerprint)
        return maintainer, True

    def _release_plan(self, maintainer: IncrementalMaintainer) -> None:
        """Unregister *maintainer*'s plan unless somebody is still
        subscribed to it or another plan still reads it — the one place
        a plan leaves the session (session lock held).  Its routes go
        (so a table no live plan reads drops out of the routing map),
        its dirty mark goes, its counters retire into the session totals
        so :meth:`stats` never goes backward, and the plans it read are
        released in turn."""
        if maintainer.subscribers or maintainer.consumers:
            return
        fingerprint = maintainer.fingerprint
        del self._plans[fingerprint]
        for table in maintainer.plan.referenced_tables():
            readers = self._routes[table]
            readers.discard(fingerprint)
            if not readers:
                del self._routes[table]
        self._dirty.pop(fingerprint, None)
        for key, attribute in _PLAN_COUNTERS:
            self._stats[key] += getattr(maintainer, attribute)
        for provider in maintainer.unlink():
            self._release_plan(provider)

    def subscribe_sql(self, statement: str, **kwargs) -> Subscription:
        """Compile an OSQL statement and register it (see :meth:`subscribe`).

        Every statement compiles to a pure plan — including GROUP BY
        aggregates, whose refreshes re-aggregate only the groups a
        modification touched (:class:`~repro.engine.executor.AggregateOp`).
        """
        from repro.sqlish import compile_statement

        return self.subscribe(
            compile_statement(statement, self.database),
            statement=statement,
            **kwargs,
        )

    def resume(
        self,
        manifest: Optional[List[Dict[str, object]]] = None,
        *,
        on_refresh: Union[
            None,
            Callable[[RefreshNotification], None],
            Dict[str, Callable[[RefreshNotification], None]],
        ] = None,
    ) -> List[Subscription]:
        """Re-attach checkpointed subscriptions after ``Database.open``.

        *manifest* is the ``subscriptions`` list of a checkpoint manifest
        (see :func:`~repro.durable.snapshot.capture_subscriptions`);
        ``None`` consumes the one the durable open recovered — consuming
        it guarantees a second ``resume()`` (or a second session on the
        same database) cannot re-attach, and re-enqueue pending
        notifications for, the same subscribers twice.

        *on_refresh* supplies the callbacks a manifest cannot persist:
        either one callable for every resumed subscription or a dict
        keyed by subscription name.  Subscriptions resumed without a
        callback still refresh (their shared result is maintained); they
        just deliver nothing.

        Each entry re-subscribes through the ordinary :meth:`subscribe`
        path — statement entries recompile against the current catalog,
        plan entries decode from data, and a format-1 entry that holds its
        plan as Python objects is refused by name and skipped
        (:func:`~repro.durable.snapshot.restore_subscription` reads the
        entry; the manifest format is that module's alone) — so recovery
        reuses every registration invariant instead of a parallel code
        path.  An entry whose plan cannot be rebuilt is logged and
        skipped, never fatal.  A captured undelivered notification is
        handed to the bus **exactly once**: into the subscriber's mailbox
        with delivery workers, to the callback right here without.
        """
        from repro.durable.snapshot import restore_subscription

        self._require_open()
        durability = self.database._durability
        if manifest is None:
            if durability is None:
                raise QueryError(
                    "resume() without a manifest requires a durable "
                    "database (Database.open)"
                )
            manifest = durability.recovered_manifest
            durability.recovered_manifest = []
        resumed: List[Subscription] = []
        for entry in manifest:
            restored = restore_subscription(self, entry, on_refresh)
            if restored is None:
                continue
            subscription, pending = restored
            if durability is not None:
                durability.resumed_subscriptions += 1
            if pending is not None:
                self.bus.restore_pending(subscription.id, (pending,))
                with self._lock:
                    self._stats["repro_live_notifications_total"] += 1
                if durability is not None:
                    durability.reenqueued_notifications += 1
            resumed.append(subscription)
        return resumed

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach *subscription*; the last subscriber of a plan drops its
        materialization, routes, and dirty state."""
        with self._lock:
            if self._subscriptions.pop(subscription.id, None) is None:
                return
            # Let go of the thunk: it holds the mailbox, whose callback
            # may hold this subscription's notifications — a cycle.
            unsubscribe_bus = subscription._unsubscribe_bus
            subscription._unsubscribe_bus = None
        if unsubscribe_bus is not None:
            unsubscribe_bus()
        maintainer = subscription._detach()
        if maintainer is None:
            return
        with self._lock:
            try:
                maintainer.subscribers.remove(subscription)
            except ValueError:
                pass
            self._release_plan(maintainer)

    def close(self) -> None:
        """Close every subscription, stop and join all serving workers.

        The shutdown is *clean*: the serve loop stops first, the database
        hook is removed (no new intake), one final flush answers for
        whatever was owed, queued notifications drain to their
        subscribers, and only then do workers exit.  Safe to
        call from an ``on_refresh`` callback: neither the serve loop nor
        a delivery worker waits for or joins the thread it runs on.

        The parts that point back at the session (the serve loop, the
        metrics observer and the bus's delivery hook into it) let go of
        it, so a closed session is freed by reference counting once
        nothing outside holds it.
        """
        if self._closed:
            return
        self.stop_serving()
        self.database.remove_delta_listener(self._intake)
        try:
            self.flush()  # deliver what is owed before teardown
        except QueryError:  # pragma: no cover — close() raced close()
            pass
        self.bus.drain(timeout=10.0)
        for subscription in list(self._subscriptions.values()):
            self.unsubscribe(subscription)
        self.bus.close(drain=True)
        self.bus.on_delivered = None
        self._observer.close()
        self._serve_loop.close()
        self._closed = True

    def __enter__(self) -> "SubscriptionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` ran."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise QueryError("this live session is closed")

    # ------------------------------------------------------------------
    # Modification intake
    # ------------------------------------------------------------------

    def _intake(
        self, table: str, version: int, delta: Optional[Delta]
    ) -> None:
        """Database modification hook: hand the row delta (``None``: the
        table was dropped) to every plan that reads *table*, mark those
        plans dirty, wake the serve loop.

        Runs with the database write lock held (hooks fire inside the
        write), so intake is serialized across writer threads and a
        snapshotting flush can never observe half-recorded events.  It
        never refreshes: that is :meth:`flush`'s job, on the caller's
        thread or the serve loop's.
        """
        rows = 0 if delta is None else len(delta)
        with self._spans.span("write", table=table, rows=rows):
            # The hook runs inside the write, after Table._bump stamped
            # the batch — database.last_commit IS this modification's
            # stamp.
            commit = self.database.last_commit
            with self._lock:
                self._stats["repro_live_events_total"] += 1
                affected = self._routes.get(table, ())
                for fingerprint in affected:
                    self._dirty[fingerprint] = None
                    self._plans[fingerprint].note_change(table, delta, commit)
            if affected:
                # The serve loop (if running) owns flushing: it debounces
                # and flushes on its own thread, never inline under the
                # database write lock.
                self._serve_loop.wake()

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of plans the next flush round will look at."""
        with self._lock:
            return len(self._dirty)

    def flush(self) -> int:
        """Refresh every dirty shared result exactly once and notify.

        Coalesces however many modifications accumulated since the last
        flush into a single refresh per affected plan.  Each refresh
        first tries the incremental path — propagating the accumulated
        row deltas through the plan's cached operator state — and falls
        back to a full re-evaluation automatically (logged on the
        ``repro.engine.delta`` logger) when the plan or the delta is not
        incrementalizable.  Returns the number of refreshes performed.

        Subscriptions whose result did not change are not notified; on
        the incremental path that is decided by the propagated delta
        being empty, on the fallback path by comparing the re-evaluated
        relation with the previous one.

        Error isolation: a plan whose refresh raises (e.g. its base
        table was dropped) does not abort the flush — the remaining dirty
        plans still refresh, the failing plan keeps serving its last
        materialization, and the error is counted in :meth:`stats` under
        ``"repro_live_refresh_errors_total"`` and logged on
        ``repro.live.manager`` with the plan's fingerprint and the tick
        of the oldest commit it owes.  Whatever else escapes one plan's
        refresh — the refresh *machinery* failing, not the plan — is
        counted and logged the same way and leaves the plan marked for
        the next round; the round's other plans still refresh.

        Re-entrant calls (an ``on_refresh`` callback modified tables and
        called ``flush()`` — or another thread did while this flush was
        running) do not run a nested flush: the request is recorded and
        the running flush drains the new events in order before
        returning.
        """
        self._require_open()
        with self._lock:
            if self._flushing:
                self._reentrant_flush_requested = True
                return 0
            self._flushing = True
        refreshed = 0
        try:
            while True:
                with self._lock:
                    # One critical section with intake: the round's dirty
                    # set and the cut of every plan that shares state.
                    self._reentrant_flush_requested = False
                    dirty, self._dirty = self._dirty, {}
                    ordered = claim_round(self._plans[key] for key in dirty)
                if dirty:
                    with self._spans.span("flush", plans=len(dirty)):
                        for fingerprint in ordered:
                            try:
                                refreshed += self._refresh_one(fingerprint)
                            except Exception as exc:  # noqa: BLE001 — isolate per plan
                                self._refresh_escaped(fingerprint, exc)
                    with self._lock:
                        self._stats["repro_live_flushes_total"] += 1
                with self._lock:
                    # Decide and release atomically: a concurrent flush()
                    # either set the re-entrant flag before this check (we
                    # drain its events now) or will observe _flushing ==
                    # False and run its own flush — a request can never
                    # land in the gap and strand dirty events.
                    if self._dirty and self._reentrant_flush_requested:
                        continue
                    self._flushing = False
                    return refreshed
        except BaseException:
            with self._lock:
                self._flushing = False
            raise

    def _refresh_escaped(self, fingerprint: str, exc: BaseException) -> None:
        """The refresher's escape hatch: :meth:`_refresh_one` isolates
        expected refresh errors itself, so an exception reaching the
        round loop (or the serve loop, which passes no fingerprint) means
        the refresh *machinery* failed.  Count it, keep the plan marked
        while its record is still owed, and log it — a refresher failing
        silently would otherwise surface only as growing staleness."""
        with self._lock:
            self._stats["repro_live_refresh_errors_total"] += 1
            maintainer = self._plans.get(fingerprint)
            if maintainer is not None and maintainer.dirty:
                self._dirty[fingerprint] = None
        owed = None if maintainer is None else maintainer.owed.commit
        _log_refresh_failure("refresh machinery failed", fingerprint, owed, exc)

    def _refresh_one(self, fingerprint: str) -> bool:
        """Refresh one plan and notify its subscriptions.

        Returns ``True`` when a refresh was performed.  The dirty set
        only said where to look — what the refresh answers for (tables,
        coalesced events, oldest commit stamp) is the pending record it
        claims, reported back on the outcome.
        """
        with self._lock:
            maintainer = self._plans.get(fingerprint)
        if maintainer is None:  # every subscriber left while dirty
            return False
        announced = maintainer.owed  # at least this; a late claim may hold more
        if not announced.events:
            # Nothing to answer for: the write that left this mark landed
            # after an earlier round snapshotted the dirty set but before
            # its refresh claimed the record — its rows went with that
            # claim.
            return False
        with self._spans.span(
            "refresh",
            fingerprint=fingerprint[:12],
            tables=announced.tables,
            coalesced=announced.events,
        ):
            try:
                outcome = maintainer.refresh()
            except Exception as exc:  # noqa: BLE001 — isolate per plan
                with self._lock:
                    self._stats["repro_live_refresh_errors_total"] += 1
                _log_refresh_failure(
                    "refresh failed", fingerprint, announced.commit, exc
                )
                return False
            for subscription in list(maintainer.subscribers):
                if not outcome.changed:
                    subscription._mark_unchanged(outcome.events)
                    with self._lock:
                        self._stats[
                            "repro_live_suppressed_notifications_total"
                        ] += 1
                    continue
                delivered = subscription._notify(
                    outcome.tables,
                    outcome.events,
                    delta=outcome.delta,
                    commit=outcome.commit,
                )
                with self._lock:
                    self._stats["repro_live_notifications_total"] += delivered
            return True

    # ------------------------------------------------------------------
    # Background serving
    # ------------------------------------------------------------------

    def serve(
        self,
        *,
        debounce: float = 0.005,
        debounce_min: Optional[float] = None,
        debounce_max: Optional[float] = None,
    ) -> "SubscriptionManager":
        """Start the background flush loop; returns ``self``.

        The loop sleeps until a modification event wakes it (there is no
        polling of data and no clock-driven refresh — an idle database
        costs nothing), waits the debounce window so a burst of writes
        coalesces into one flush round, then flushes.  Idempotent; a
        second call only updates the debounce configuration.

        **Adaptive debounce**: pass *debounce_min*/*debounce_max* to
        scale the window with load instead of fixing it — an idle system
        reacts at *debounce_min* latency, a genuinely backlogged one
        waits up to *debounce_max* (reached at ``queue_capacity``) so
        more writes coalesce into each flush round and the queues get
        room to drain (:mod:`repro.live.serving` has the policy).  The
        fixed *debounce* is ignored while a band is set.
        """
        self._require_open()
        self._serve_loop.start(debounce, debounce_min, debounce_max)
        return self

    def current_debounce(self) -> float:
        """The window the serve loop would sleep right now (adaptive
        debounce reads the live queue depth; fixed returns the constant
        without probing the queues at all; a closed session returns the
        band's floor)."""
        return self._serve_loop.current_debounce()

    def stop_serving(self) -> None:
        """Stop the background flush loop (idempotent); pending events
        stay queued for the next explicit :meth:`flush` or :meth:`close`."""
        self._serve_loop.stop()

    @property
    def serving(self) -> bool:
        """``True`` while the background flush loop runs."""
        return self._serve_loop.running

    def _queue_depth(self) -> int:
        """Load signal for the adaptive debounce: undelivered
        notifications plus dirty plans awaiting refresh."""
        return self.pending + self.bus.backlog()

    # ------------------------------------------------------------------
    # Freshness accounting
    # ------------------------------------------------------------------

    @property
    def freshness_histogram(self):
        """The ``repro_freshness_seconds`` histogram family — exposed so
        operators (and the ``/health`` endpoint) can read quantiles."""
        return self._observer.freshness

    def subscription_staleness(self) -> Dict[str, float]:
        """Age (seconds) of the oldest pending unapplied change, per
        subscription name (``0.0`` = fully caught up; computed at call
        time, so the write/flush hot paths pay nothing for it)."""
        return self._observer.staleness()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def shared_results(self) -> List[IncrementalMaintainer]:
        """The maintainer of every materialized plan, by fingerprint."""
        with self._lock:
            return [self._plans[key] for key in sorted(self._plans)]

    def explain_analyze(
        self, fingerprint: Optional[str] = None, *, format: str = "text"
    ):
        """EXPLAIN ANALYZE across the session's shared plans.

        *fingerprint* selects plans by prefix (the truncated form shown
        in stats and the ``/explain/<fingerprint>`` endpoint matches);
        ``None`` reports every materialized plan.  ``format="text"``
        joins the per-plan renderings with blank lines;
        ``format="json"`` returns a list of report dicts (see
        :func:`~repro.obs.explain.explain_analyze_data`).  A bad
        *format* raises :class:`ValueError`, a prefix nothing matches
        :class:`~repro.errors.QueryError`.
        """
        explain_renderer(format)
        matches = [
            shared
            for shared in self.shared_results()
            if fingerprint is None
            or shared.fingerprint.startswith(fingerprint)
        ]
        if fingerprint is not None and not matches:
            raise QueryError(
                f"no shared result matches fingerprint prefix {fingerprint!r}"
            )
        if format == "json":
            return [shared.explain_analyze(format="json") for shared in matches]
        return "\n\n".join(shared.explain_analyze() for shared in matches)

    def stats(self) -> Dict[str, object]:
        """A snapshot of the session's counters (all modification-driven).

        The metric keys are the **canonical names** the session also
        publishes through :attr:`metrics`
        (``repro_<layer>_<what>[_total]`` — e.g.
        ``repro_live_events_total``; :mod:`repro.live.metrics` lists
        them).  Non-metric context keys keep their plain names:
        ``table_fanout``, ``serving``, ``delivery_workers``.

        The refresh and result-store counters (``evaluations`` /
        ``delta_refreshes`` / ``full_refreshes``, snapshot copy/reuse)
        are each plan's own, summed over the live plans plus what
        dropped plans retired — ``full_refreshes`` counts *refreshes*
        that had to re-evaluate, so the evaluation that materializes a
        plan is an ``evaluations`` only.  The bus adds its queued /
        delivered / dropped / coalesced counts (without delivery workers
        everything is delivered as it is queued); ``delivered`` counts
        callbacks that returned.  The bus's backlog and the dirty plans
        are :meth:`~repro.serve.bus.EventBus.backlog` and
        :attr:`pending`.
        """
        with self._lock:
            data: Dict[str, object] = {
                **self._stats,
                "repro_live_subscriptions": len(self._subscriptions),
                "repro_live_shared_results": len(self._plans),
                "table_fanout": {
                    table: len(readers)
                    for table, readers in self._routes.items()
                },
            }
            for key, attribute in _PLAN_COUNTERS:
                data[key] += sum(
                    getattr(maintainer, attribute)
                    for maintainer in self._plans.values()
                )
        data["delivery_workers"] = self.delivery_workers
        data["serving"] = self.serving
        bus_stats = self.bus.stats()
        data["repro_serve_queued_notifications_total"] = bus_stats["queued"]
        data["repro_serve_delivered_notifications_total"] = bus_stats["delivered"]
        data["repro_serve_dropped_notifications_total"] = bus_stats["dropped"]
        data["repro_serve_coalesced_notifications_total"] = bus_stats["coalesced"]
        return data


def _log_refresh_failure(
    what: str, fingerprint: str, owed, exc: BaseException
) -> None:
    """Log one isolated refresh failure with what an operator needs to
    find it: the plan's fingerprint and the oldest commit stamp it owed."""
    logger.error(
        "%s: plan %s, owed commit tick %s",
        what,
        fingerprint[:12] or "?",
        getattr(owed, "tick", None),
        exc_info=exc,
    )


#: The user-facing name of the facade: one live session over one database.
LiveSession = SubscriptionManager
