"""The subscription manager: modification-driven refresh orchestration.

:class:`SubscriptionManager` (aliased :class:`LiveSession`) is the facade
of the live engine, and it is **one pipeline**:

1. **registration** — :meth:`~SubscriptionManager.subscribe` rewrites the
   plan, shares one :class:`~repro.live.cache.SharedResult` per
   fingerprint (:class:`~repro.live.cache.ResultCache`), records which
   tables it reads (:class:`~repro.live.dependencies.DependencyIndex`)
   and attaches the callback to the bus;
2. **intake** — the database's modification hook marks the dependent
   fingerprints dirty, hands each its typed row delta
   (:class:`~repro.engine.delta.Delta`) and wakes the serve loop.
   Intake never refreshes;
3. **flush** — :meth:`~SubscriptionManager.flush` refreshes each dirty
   plan **once**, however many modifications accumulated, by
   *propagating* the coalesced deltas through the plan's cached operator
   state (work proportional to the modification, not the database).  A
   refresh that cannot be incremental — budget-evicted state, an untyped
   bulk change, a delta an operator cannot absorb, or the cost model
   measuring a full run to be cheaper — falls back to a full
   re-evaluation automatically, logged and counted;
4. **delivery** — every subscription whose result changed is notified on
   the bus (one that did not change stays silent unless it opted into
   ``notify_on_no_change``).

There are two ways to run step 3, and no others: call :meth:`flush`
yourself, or :meth:`~SubscriptionManager.serve` and let the background
loop (:mod:`repro.live.serving`) call it after a debounce window.

The control flow enforces the paper's property by construction: the only
path that re-evaluates a plan starts at a base-table change event.  There
is no timer, no polling loop, and no clock — advancing the reference time
is pure instantiation work on already-materialized ongoing results.

The pipeline is the same whatever the constructor selects for its two
stages that can run on other threads (:mod:`repro.serve`):

* ``delivery_workers=N`` delivers through an
  :class:`~repro.serve.bus.AsyncEventBus`: notifications enqueue to
  per-subscriber bounded mailboxes (``backpressure`` policy: ``block`` /
  ``drop_oldest`` / ``coalesce``) and N worker threads run the callbacks
  — one slow callback no longer stalls the flush.  The default
  synchronous :class:`~repro.live.events.EventBus` runs them inline and
  answers the queueing questions (backlog, drain, pending capture) with
  constants, so nothing downstream asks which bus it holds;
* ``flush_shards=N`` routes each flush round's dirty fingerprints to N
  FIFO refresh workers (:class:`~repro.serve.scheduler.FlushScheduler`)
  — independent shared results refresh in parallel, each result serially
  consistent.

:meth:`~SubscriptionManager.close` stops the loop, performs a final
flush, drains every queue, and joins all workers.  Freshness accounting
and the metrics scrape live in :mod:`repro.live.metrics`; decoding a
checkpointed subscription in :mod:`repro.durable.snapshot`.

Thread-safety: session state (dirty sets, stats, cache, dependency
index, registrations) is guarded by one session lock; write intake runs
under the database write lock (modification hooks fire while it is
held), and the lock order is always ``database.lock → session lock →
maintainer lock``.  Calling :meth:`flush`, :meth:`stop_serving` or
:meth:`close` from inside an ``on_refresh`` callback is safe — a nested
flush is folded into the running one, and no loop ever waits for or
joins the thread it is called on.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Union

from repro.core.timeline import TimePoint
from repro.engine.database import CommitStamp, Database
from repro.engine.delta import Delta
from repro.engine.plan import PlanNode
from repro.engine.rewrite import push_down_selections
from repro.errors import QueryError
from repro.obs.registry import Registry
from repro.obs.slo import FreshnessSLO
from repro.obs.trace import NULL_TRACER, TraceRecorder

from repro.live.cache import ResultCache, SharedResult
from repro.live.dependencies import DependencyIndex, referenced_tables
from repro.live.events import ChangeEvent, EventBus, RefreshNotification
from repro.live.metrics import SessionMetrics
from repro.live.serving import ServeLoop
from repro.live.subscription import Subscription

__all__ = ["SubscriptionManager", "LiveSession"]

logger = logging.getLogger("repro.live.manager")


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

        session = LiveSession(db, delivery_workers=4, flush_shards=4)
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
        state_budget_bytes: Optional[int] = None,
        registry: Optional["Registry"] = None,
        freshness_slo: Optional[FreshnessSLO] = None,
        trace: object = False,
    ):
        if delivery_workers < 0 or flush_shards < 0:
            raise QueryError(
                "delivery_workers and flush_shards must be non-negative"
            )
        if state_budget_bytes is not None and state_budget_bytes < 0:
            raise QueryError("state_budget_bytes must be non-negative")
        self.database = database
        #: Per-maintainer cap on evictable operator-state memory
        #: (storage-layout bytes).  Exceeding it evicts the plan's delta
        #: state after the refresh — the result keeps serving from the
        #: versioned store, and the next refresh rebuilds on miss
        #: (``state_evictions``/``state_rebuilds`` in :meth:`stats`).
        #: ``None`` = unbounded.
        self.state_budget_bytes = state_budget_bytes
        self.delivery_workers = delivery_workers
        self.flush_shards = flush_shards
        #: The session's metrics registry.  Counters are on by default:
        #: native hot-path families plus a pull-at-snapshot collector
        #: that maps the session/serve/store stats onto the canonical
        #: ``repro_<layer>_<what>_total`` names.  Pass a shared
        #: :class:`~repro.obs.registry.Registry` to aggregate several
        #: sessions onto one scrape surface.
        self.metrics = registry if registry is not None else Registry()
        #: Optional freshness objective (:class:`~repro.obs.slo.FreshnessSLO`).
        #: Every observed write→deliver latency feeds it, ``/health``
        #: reports its error-budget burn, and the adaptive serve-loop
        #: debounce tightens toward its floor while the budget burns.
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
        #: Guards all session state below (never held while delivering).
        self._lock = threading.RLock()
        self._cache = ResultCache()
        self._dependencies = DependencyIndex()
        self._subscriptions: Dict[int, Subscription] = {}
        #: fingerprint → tables modified since that result's last refresh.
        self._dirty: Dict[str, Set[str]] = {}
        #: fingerprint → number of change events since last refresh.
        self._dirty_events: Dict[str, int] = {}
        #: fingerprint → commit stamp of the *oldest* unapplied
        #: modification (set once per dirty cycle via ``setdefault``,
        #: popped by the refresh).  The conservative base for both the
        #: freshness histogram and the staleness gauges.
        self._dirty_commits: Dict[str, CommitStamp] = {}
        self._stats = {
            "repro_live_events_total": 0,
            "repro_live_flushes_total": 0,
            "repro_live_evaluations_total": 0,
            "repro_live_delta_refreshes_total": 0,
            "repro_live_full_refreshes_total": 0,
            "repro_live_suppressed_notifications_total": 0,
            "repro_live_notifications_total": 0,
            "repro_live_refresh_errors_total": 0,
            "repro_shard_worker_failures_total": 0,
        }
        #: Store/budget counters of shared results whose last subscriber
        #: left — folded into stats() so the totals stay monotonic.
        self._retired_store_stats = {
            "snapshots_taken": 0,
            "snapshots_reused": 0,
            "state_evictions": 0,
            "state_rebuilds": 0,
            "cost_full_refreshes": 0,
            "cost_adaptations": 0,
        }
        self._unsubscribe_bus: Dict[int, Callable[[], None]] = {}
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
        if delivery_workers > 0:
            from repro.serve.bus import AsyncEventBus

            self.bus: EventBus = AsyncEventBus(
                workers=delivery_workers,
                capacity=queue_capacity,
                policy=backpressure,
                tracer=self.tracer,
                on_delivered=self._observer.on_delivered,
            )
        else:
            self.bus = EventBus(on_delivered=self._observer.on_delivered)
        if flush_shards > 0:
            from repro.serve.scheduler import FlushScheduler

            self._scheduler: Optional["FlushScheduler"] = FlushScheduler(
                self._refresh_one,
                shards=flush_shards,
                on_error=self._on_shard_failure,
            )
        else:
            self._scheduler = None
        self._listener = database.add_delta_listener(self._intake)

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
        notify_on_no_change: bool = False,
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
        was modified) stays silent unless *notify_on_no_change* is set.
        *reference_time* (the caller-chosen instantiation point, mutable
        on the returned handle) selects the fixed rows delivered with
        each notification.

        With ``delivery_workers`` enabled, *backpressure* and
        *queue_capacity* override the session-wide mailbox policy for
        this subscriber only (a must-not-miss audit consumer can
        ``block`` while dashboards ``coalesce``).

        *statement* records the OSQL source this plan came from
        (:meth:`subscribe_sql` fills it in) so a durable checkpoint can
        recompile the subscription on :meth:`resume`; plan-object
        subscriptions are checkpointed as a pickled plan instead.
        """
        self._require_open()
        # Rewrite before fingerprinting: pushed-down selections shrink the
        # cached operator state, and the fingerprint of the *rewritten*
        # plan is the canonical sharing key — two subscribers whose plans
        # normalize to the same shape share one materialization.
        plan = push_down_selections(plan, self.database)
        # The database lock spans dependency registration and the first
        # evaluation: no modification can slip between them, so the
        # freshly built operator state is exactly as-of the registration.
        with self.database.lock:
            with self._lock:
                shared, created = self._cache.get_or_create(
                    plan,
                    self.database,
                    state_budget_bytes=self.state_budget_bytes,
                    registry=self.metrics,
                    tracer=self.tracer,
                )
                if created:
                    self._dependencies.add(
                        shared.fingerprint, referenced_tables(plan)
                    )
            if created:
                try:
                    shared.evaluate()
                except Exception:
                    # Roll the registration back: a dead entry must not be
                    # cache-hit by a later subscribe of the same plan.
                    with self._lock:
                        self._cache.remove(shared.fingerprint)
                        self._dependencies.remove(shared.fingerprint)
                    raise
                with self._lock:
                    self._stats["repro_live_evaluations_total"] += 1
            subscription = Subscription(
                self,
                shared,
                on_refresh=on_refresh,
                reference_time=reference_time,
                name=name,
                notify_on_no_change=notify_on_no_change,
                statement=statement,
                backpressure=backpressure,
                queue_capacity=queue_capacity,
            )
            # Register the bus listener *before* attaching the
            # subscription (and before releasing the write lock): once
            # attached, a flush on another thread may notify immediately,
            # and a topic with no listener yet would drop that delivery.
            unsubscribe = None
            if on_refresh is not None:
                topic = f"refresh:{subscription.id}"
                try:
                    unsubscribe = self.bus.subscribe(
                        topic,
                        on_refresh,
                        capacity=queue_capacity,
                        policy=backpressure,
                    )
                except Exception:
                    with self._lock:
                        if created and not shared.subscribers:
                            self._cache.remove(shared.fingerprint)
                            self._dependencies.remove(shared.fingerprint)
                    raise
            with self._lock:
                shared.subscribers.append(subscription)
                self._subscriptions[subscription.id] = subscription
                if unsubscribe is not None:
                    self._unsubscribe_bus[subscription.id] = unsubscribe
        return subscription

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
        plan entries unpickle
        (:func:`~repro.durable.snapshot.restore_subscription` reads the
        entry; the manifest format is that module's alone) — so recovery
        reuses every registration invariant instead of a parallel code
        path.  An entry whose plan cannot be rebuilt is logged and
        skipped, never fatal.  A captured undelivered notification is
        re-enqueued **exactly once**: into the subscriber's mailbox on
        the asynchronous bus, or delivered inline on the synchronous one.
        """
        from repro.durable.snapshot import restore_subscription

        self._require_open()
        durability = getattr(self.database, "_durability", None)
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
                self.bus.restore_pending(
                    f"refresh:{subscription.id}", (pending,)
                )
                with self._lock:
                    self._stats["repro_live_notifications_total"] += 1
                if durability is not None:
                    durability.reenqueued_notifications += 1
            resumed.append(subscription)
        return resumed

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach *subscription*; the last subscriber of a plan drops its
        materialization, dependency links, and dirty state."""
        with self._lock:
            if self._subscriptions.pop(subscription.id, None) is None:
                return
            unsubscribe_bus = self._unsubscribe_bus.pop(subscription.id, None)
        if unsubscribe_bus is not None:
            unsubscribe_bus()
        shared = subscription._shared
        subscription._detach()
        if shared is None:
            return
        with self._lock:
            try:
                shared.subscribers.remove(subscription)
            except ValueError:
                pass
            if not shared.subscribers:
                # The last subscriber leaving must fully unregister the
                # plan: cache entry, dependency links (so the table →
                # fingerprint index drops tables no live plan reads
                # anymore), and any accumulated dirty/delta state.  Its
                # store/budget counters retire into the session totals so
                # stats() never goes backward.
                retired = self._retired_store_stats
                retired["snapshots_taken"] += shared.snapshots_taken
                retired["snapshots_reused"] += shared.snapshots_reused
                retired["state_evictions"] += shared.state_evictions
                retired["state_rebuilds"] += shared.state_rebuilds
                retired["cost_full_refreshes"] += shared.cost_full_refreshes
                retired["cost_adaptations"] += shared.cost_adaptations
                self._cache.remove(shared.fingerprint)
                self._dependencies.remove(shared.fingerprint)
                self._dirty.pop(shared.fingerprint, None)
                self._dirty_events.pop(shared.fingerprint, None)
                self._dirty_commits.pop(shared.fingerprint, None)

    def close(self) -> None:
        """Close every subscription, stop and join all serving workers.

        The shutdown is *clean*: the serve loop stops first, the database
        hook is removed (no new intake), a session with worker threads
        runs one final flush for whatever was owed, queued notifications
        drain to their subscribers, and only then do workers exit.  Safe
        to call from an ``on_refresh`` callback: neither the serve loop
        nor a delivery worker waits for or joins the thread it runs on.
        """
        if self._closed:
            return
        self.stop_serving()
        self.database.remove_delta_listener(self._listener)
        if self._scheduler is not None or self.delivery_workers:
            try:
                self.flush()  # deliver what is owed before teardown
            except QueryError:  # pragma: no cover — close() raced close()
                pass
            self.bus.drain(timeout=10.0)
        for subscription in list(self._subscriptions.values()):
            self.unsubscribe(subscription)
        if self._scheduler is not None:
            self._scheduler.close()
        self.bus.close(drain=True)
        self._observer.close()
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

    def _intake(self, table: str, version: int, delta: Delta) -> None:
        """Database modification hook: mark dependents dirty, accumulate
        the row delta per dirty plan, wake the serve loop.

        Runs with the database write lock held (hooks fire inside the
        write), so intake is serialized across writer threads and a
        snapshotting flush can never observe half-recorded events.  It
        never refreshes: that is :meth:`flush`'s job, on the caller's
        thread or the serve loop's.
        """
        with self._spans.span("write", table=table, rows=len(delta)):
            # The hook runs inside the write, after Table._bump stamped
            # the batch — database.last_commit IS this modification's
            # stamp.
            commit = self.database.last_commit
            self.bus.publish(
                "change", ChangeEvent(table, version, delta, commit=commit)
            )
            with self._lock:
                self._stats["repro_live_events_total"] += 1
                affected = self._dependencies.affected(table)
                for fingerprint in affected:
                    self._dirty.setdefault(fingerprint, set()).add(table)
                    self._dirty_events[fingerprint] = (
                        self._dirty_events.get(fingerprint, 0) + 1
                    )
                    if commit is not None:
                        # Keep the *oldest* pending stamp: a refresh
                        # answers for every coalesced write, so freshness
                        # must be measured against the first one still
                        # waiting.
                        self._dirty_commits.setdefault(fingerprint, commit)
                    shared = self._cache.get(fingerprint)
                    if shared is not None:
                        shared.note_change(table, delta)
                        for subscription in shared.subscribers:
                            subscription.stats.pending_events += 1
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
        """Number of shared results currently marked dirty."""
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

        With ``flush_shards`` enabled the dirty plans are routed to their
        owning shard workers and refresh **in parallel** — each
        fingerprint still refreshes exactly once per round, in order,
        because its shard queue is FIFO and pinned to one worker.

        Subscriptions whose result did not change are not notified
        (unless they set ``notify_on_no_change``); on the incremental
        path that is decided by the propagated delta being empty, on the
        fallback path by comparing the re-evaluated relation with the
        previous one.

        Error isolation: a plan whose refresh raises (e.g. its base
        table was dropped) does not abort the flush — the remaining dirty
        plans still refresh, the failing plan keeps serving its last
        materialization, and the error is published on the bus's
        ``"error"`` topic as ``(fingerprint, exception)`` and counted in
        :meth:`stats` under ``"repro_live_refresh_errors_total"``.

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
                    self._reentrant_flush_requested = False
                    dirty = self._dirty
                    dirty_events = self._dirty_events
                    self._dirty = {}
                    self._dirty_events = {}
                if dirty:
                    tracer = self._spans
                    events = sum(dirty_events.values()) if tracer.enabled else 0
                    with tracer.span("flush", plans=len(dirty), events=events):
                        refreshed += self._run_round(dirty, dirty_events)
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

    def _run_round(
        self, dirty: Dict[str, Set[str]], dirty_events: Dict[str, int]
    ) -> int:
        """Refresh one snapshot of dirty fingerprints, serial or sharded."""
        if self._scheduler is not None:
            return self._scheduler.flush(
                {
                    fingerprint: frozenset(tables)
                    for fingerprint, tables in dirty.items()
                },
                dirty_events,
            )
        refreshed = 0
        for fingerprint, changed_tables in dirty.items():
            if self._refresh_one(
                fingerprint,
                frozenset(changed_tables),
                dirty_events.get(fingerprint, 0),
            ):
                refreshed += 1
        return refreshed

    def _on_shard_failure(
        self, shard: int, fingerprint: str, exc: BaseException
    ) -> None:
        """Shard-worker escape hatch: :meth:`_refresh_one` isolates
        expected refresh errors itself, so an exception reaching the
        shard worker means the refresh *machinery* failed.  Count it and
        announce it on the listener-error topic — a silently dying shard
        would otherwise surface only as growing staleness."""
        with self._lock:
            self._stats["repro_shard_worker_failures_total"] += 1
        try:
            self.bus.publish(
                EventBus.LISTENER_ERROR_TOPIC,
                ("flush-shard", f"shard-{shard}:{fingerprint[:12]}", exc),
            )
        except Exception:  # noqa: BLE001 — reporting must never re-raise
            logger.exception("shard failure announcement failed")

    def _refresh_one(
        self, fingerprint: str, changed_tables: FrozenSet[str], coalesced: int
    ) -> bool:
        """Refresh one shared result and notify its subscriptions.

        The single refresh routine behind serial flushes and shard
        workers alike; returns ``True`` when a refresh was performed.
        """
        tracer = self._spans
        tables = sorted(changed_tables) if tracer.enabled else ()
        with tracer.span(
            "refresh",
            fingerprint=fingerprint[:12],
            tables=tables,
            coalesced=coalesced,
        ):
            with self._lock:
                shared = self._cache.get(fingerprint)
                # Claim the oldest pending stamp: writes landing *during*
                # the refresh setdefault a fresh stamp for the next cycle.
                commit = self._dirty_commits.pop(fingerprint, None)
            if shared is None:  # all subscribers left while dirty
                return False
            epoch = shared.change_count()
            try:
                outcome = shared.refresh()
            except Exception as exc:  # noqa: BLE001 — isolate per plan
                with self._lock:
                    self._stats["repro_live_refresh_errors_total"] += 1
                self.bus.publish("error", (fingerprint, exc))
                return False
            result_delta = outcome.delta
            changed = outcome.changed
            if result_delta is None:
                with self._lock:
                    # The full re-evaluation read the tables under the
                    # write lock and subsumed every change event offered
                    # before it ran; its dirty mark is only kept when a
                    # *new* event arrived meanwhile (the change counter
                    # moved) — dropping that one would lose an update,
                    # re-flushing an already subsumed one would only
                    # waste a suppressed refresh.
                    if shared.change_count() == epoch:
                        self._dirty.pop(fingerprint, None)
                        self._dirty_events.pop(fingerprint, None)
                    self._stats["repro_live_full_refreshes_total"] += 1
                    self._stats["repro_live_evaluations_total"] += 1
            else:
                with self._lock:
                    self._stats["repro_live_delta_refreshes_total"] += 1
                    self._stats["repro_live_evaluations_total"] += 1
            for subscription in list(shared.subscribers):
                if not changed and not subscription.notify_on_no_change:
                    subscription._mark_unchanged(coalesced)
                    with self._lock:
                        self._stats[
                            "repro_live_suppressed_notifications_total"
                        ] += 1
                    continue
                delivered = subscription._notify(
                    changed_tables, coalesced, delta=result_delta, commit=commit
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
        waits up to *debounce_max* so more writes coalesce into each
        flush round and the queues get room to drain
        (:mod:`repro.live.serving` has the policy).  The fixed *debounce*
        is ignored while a band is set.
        """
        self._require_open()
        self._serve_loop.start(debounce, debounce_min, debounce_max)
        return self

    def current_debounce(self) -> float:
        """The window the serve loop would sleep right now (adaptive
        debounce reads the live queue depth; fixed returns the constant
        without probing the queues at all)."""
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

    def _fanout(self) -> int:
        """How many queues can legitimately hold one item each after a
        single write: every subscription's mailbox, every shared plan."""
        with self._lock:
            return len(self._subscriptions) + len(self._cache)

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

    def shared_results(self) -> List[SharedResult]:
        with self._lock:
            return [
                entry
                for fingerprint in sorted(self._cache.fingerprints())
                for entry in (self._cache.get(fingerprint),)
                if entry is not None
            ]

    def explain_analyze(
        self, fingerprint: Optional[str] = None, *, format: str = "text"
    ):
        """EXPLAIN ANALYZE across the session's shared plans.

        *fingerprint* selects plans by prefix (the truncated form shown
        in stats and the ``/explain/<fingerprint>`` endpoint matches);
        ``None`` reports every materialized plan.  ``format="text"``
        joins the per-plan renderings with blank lines;
        ``format="json"`` returns a list of report dicts (see
        :func:`~repro.obs.explain.explain_analyze_data`).
        """
        if format not in ("text", "json"):
            raise QueryError(
                f"unknown explain format {format!r}; use 'text' or 'json'"
            )
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
        ``repro_live_events_total``, ``repro_serve_delivery_backlog``;
        :mod:`repro.live.metrics` lists them).  Non-metric context keys
        keep their plain names: ``table_fanout``, ``shard_flushes``,
        ``shard_failures``, ``serving``, ``delivery_workers``,
        ``flush_shards``.

        Beyond the refresh counters, the serving layer adds: queued /
        dropped / coalesced notification counts and the delivery backlog
        (on the synchronous bus every notification is delivered as it is
        queued, nothing drops, coalesces or waits) plus per-shard flush
        counts; the result-store layer adds snapshot copy/reuse and
        state evict/rebuild counters summed over all shared results; the
        cost model adds its deliberate full-refresh count
        (``repro_live_cost_full_refreshes_total``).
        """
        with self._lock:
            retired = self._retired_store_stats
            snapshots_taken = retired["snapshots_taken"]
            snapshots_reused = retired["snapshots_reused"]
            state_evictions = retired["state_evictions"]
            state_rebuilds = retired["state_rebuilds"]
            cost_full_refreshes = retired["cost_full_refreshes"]
            cost_adaptations = retired["cost_adaptations"]
            for fingerprint in self._cache.fingerprints():
                entry = self._cache.get(fingerprint)
                if entry is None:
                    continue
                snapshots_taken += entry.snapshots_taken
                snapshots_reused += entry.snapshots_reused
                state_evictions += entry.state_evictions
                state_rebuilds += entry.state_rebuilds
                cost_full_refreshes += entry.cost_full_refreshes
                cost_adaptations += entry.cost_adaptations
            data: Dict[str, object] = {
                **self._stats,
                "repro_live_subscriptions": len(self._subscriptions),
                "repro_live_shared_results": len(self._cache),
                "repro_live_cache_hits_total": self._cache.hits,
                "repro_live_cache_misses_total": self._cache.misses,
                "repro_live_dirty_plans": len(self._dirty),
                "repro_live_cost_full_refreshes_total": cost_full_refreshes,
                "repro_live_cost_adaptations_total": cost_adaptations,
                "table_fanout": self._dependencies.table_fanout(),
                "repro_store_snapshots_taken_total": snapshots_taken,
                "repro_store_snapshots_reused_total": snapshots_reused,
                "repro_store_state_evictions_total": state_evictions,
                "repro_store_state_rebuilds_total": state_rebuilds,
            }
        data["delivery_workers"] = self.delivery_workers
        data["flush_shards"] = self.flush_shards
        data["serving"] = self.serving
        if self.delivery_workers:
            bus_stats = self.bus.stats()
            data["repro_serve_queued_notifications_total"] = bus_stats["queued"]
            data["repro_serve_delivered_notifications_total"] = bus_stats[
                "delivered"
            ]
            data["repro_serve_dropped_notifications_total"] = bus_stats["dropped"]
            data["repro_serve_coalesced_notifications_total"] = bus_stats[
                "coalesced"
            ]
            data["repro_serve_delivery_backlog"] = bus_stats["backlog"]
        else:
            notifications = data["repro_live_notifications_total"]
            data["repro_serve_queued_notifications_total"] = notifications
            data["repro_serve_delivered_notifications_total"] = notifications
            data["repro_serve_dropped_notifications_total"] = 0
            data["repro_serve_coalesced_notifications_total"] = 0
            data["repro_serve_delivery_backlog"] = 0
        data["shard_flushes"] = (
            self._scheduler.flush_counts() if self._scheduler is not None else ()
        )
        data["shard_failures"] = (
            self._scheduler.failure_counts()
            if self._scheduler is not None
            else ()
        )
        return data


#: The user-facing name of the facade: one live session over one database.
LiveSession = SubscriptionManager
