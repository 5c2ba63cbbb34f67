"""Client-side handles of the live engine: subscriptions and their stats.

A :class:`Subscription` is one client's registration of an ongoing query.
It does **not** own a materialization — it points at the
:class:`~repro.engine.maintenance.IncrementalMaintainer` the session
keeps for its plan fingerprint, so any number of clients with
structurally equal plans share one evaluation (the server-side half of
the paper's amortization argument, Figs. 11–12: evaluate once, let every
subscriber instantiate cheaply at its own reference time).

The handle exposes exactly the two cheap operations the paper promises
stay valid as time passes: reading the ongoing result and instantiating
it at an arbitrary reference time.  Neither touches the database or
triggers re-evaluation.

A refresh binds nothing on the subscriber's behalf: it hands over the
change and the pinned snapshot (:class:`~repro.live.events.RefreshNotification`)
and whoever reads pays for what it reads.  A consumer that wants a
*bound* row set kept current asks for a :class:`BoundRows` — one
O(|result|) bind when it is created, O(|Δ|) per notification after.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.timeline import TimePoint
from repro.engine.maintenance import IncrementalMaintainer
from repro.engine.plan import PlanNode
from repro.errors import QueryError
from repro.relational.relation import OngoingRelation
from repro.relational.tuples import Binder, FixedTuple

from repro.live.events import RefreshNotification

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.live.manager import SubscriptionManager

__all__ = ["Subscription", "SubscriptionStats", "BoundRows"]


@dataclass
class SubscriptionStats:
    """Per-subscription bookkeeping, all modification-driven.

    ``refreshes`` counts re-evaluations of the shared result observed by
    this subscription; ``notifications`` counts ``on_refresh`` deliveries;
    ``coalesced_events`` counts base-table change events that were folded
    into those refreshes; ``pending_events`` those no refresh has
    answered for yet (a read of the plan's pending record, ``0`` once the
    subscription is closed); ``instantiations`` counts every O(|result|)
    bind made for this subscriber — :meth:`Subscription.instantiate`, the
    first read of a notification's ``rows``, building (or rebuilding) a
    :class:`BoundRows`; a consumer of ``changes_at`` alone stays at 0.
    There is deliberately no clock anywhere in here.
    """

    refreshes: int = 0
    notifications: int = 0
    coalesced_events: int = 0
    instantiations: int = 0
    #: Refresh rounds whose propagated delta was empty for this
    #: subscription's result — never delivered.
    suppressed: int = 0
    _maintainer: Optional[IncrementalMaintainer] = field(default=None, repr=False)

    @property
    def pending_events(self) -> int:
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.pending.events


class Subscription:
    """A client's live registration of an ongoing query plan.

    Thread-delivery semantics (when the session runs the concurrent
    serving layer, :mod:`repro.serve`): :meth:`_notify` runs on the one
    thread running the flush round, and ``on_refresh`` callbacks run on
    the one delivery worker owning this subscriber's mailbox — both
    FIFO, so per-subscription bookkeeping and delivery stay in refresh
    order without extra locking.
    """

    #: Process-wide id source; ``itertools.count`` hands out ids atomically,
    #: so concurrent ``subscribe()`` calls can never collide on an id.
    _ids = itertools.count(1)

    def __init__(
        self,
        manager: "SubscriptionManager",
        maintainer: IncrementalMaintainer,
        *,
        reference_time: Optional[TimePoint] = None,
        name: Optional[str] = None,
        statement: Optional[str] = None,
        backpressure: Optional[str] = None,
        queue_capacity: Optional[int] = None,
    ):
        self.id = next(Subscription._ids)
        self.name = name or f"subscription-{self.id}"
        self.manager = manager
        #: The reference time a notification's ``rows`` and
        #: ``changes_at()`` bind at; ``None`` delivers the ongoing result
        #: only.  Caller-chosen and mutable — changing it never requires
        #: a re-evaluation; a notification keeps the one in force when
        #: its refresh was notified.
        self.reference_time = reference_time
        #: How this subscription was registered, for durable checkpoints:
        #: the OSQL source (recompiled on resume) and the per-subscriber
        #: mailbox overrides.  ``None`` means "plan object only" /
        #: "session defaults" respectively.  ``backpressure`` is the name
        #: the subscriber gave and selects nothing: every full mailbox
        #: merges at once.
        self.statement = statement
        self.backpressure = backpressure
        self.queue_capacity = queue_capacity
        self.stats = SubscriptionStats(_maintainer=maintainer)
        self._maintainer: Optional[IncrementalMaintainer] = maintainer
        #: Takes this subscription's mailbox off the bus; set by the
        #: session when it subscribed with a callback, ``None`` without
        #: one — then nobody listens and nothing is published.
        self._unsubscribe_bus: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """``False`` once :meth:`close` ran."""
        return self._maintainer is not None

    @property
    def plan(self) -> PlanNode:
        return self._require_maintainer().plan

    @property
    def fingerprint(self) -> str:
        """The plan fingerprint — the key subscribers share a result by."""
        return self._require_maintainer().fingerprint

    @property
    def result(self) -> OngoingRelation:
        """The shared materialized ongoing result (never re-evaluates).

        One store read per access: the snapshot is copied lazily, at most
        once per version, and shared by every subscriber of the plan.
        """
        result = self._require_maintainer().result
        if result is None:
            raise QueryError(
                f"subscription {self.name!r} has no materialized result yet"
            )
        return result

    def _require_maintainer(self) -> IncrementalMaintainer:
        if self._maintainer is None:
            raise QueryError(f"subscription {self.name!r} is closed")
        return self._maintainer

    def explain_analyze(self, *, format: str = "text"):
        """The plan tree annotated with live per-operator counters.

        Renders the shared result's physical plan with, per node, the
        state row/byte footprint, cumulative ``apply_delta`` wall time,
        delta row traffic, and fallback count — plus the maintainer's
        refresh totals.  Reads counters only; never refreshes.
        ``format="json"`` returns the same report as plain data for
        external tooling.
        """
        return self._require_maintainer().explain_analyze(format=format)

    def node_report(self):
        """Per-operator live counters as plain dicts (see
        :meth:`~repro.engine.maintenance.IncrementalMaintainer.node_report`)."""
        return self._require_maintainer().node_report()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def instantiate(self, rt: TimePoint) -> FrozenSet[FixedTuple]:
        """The fixed result at reference time *rt*, served from the cache.

        This is the cheap operation: a scan of the stored ongoing result,
        keeping tuples whose reference time contains *rt* and binding
        their ongoing attributes.  Advancing *rt* never triggers a
        re-evaluation (the core paper property).
        """
        self.stats.instantiations += 1
        return self.result.instantiate(rt)

    def bound_rows(self, rt: Optional[TimePoint] = None) -> "BoundRows":
        """The result bound at *rt* (default: :attr:`reference_time`) as
        a row set the caller keeps current by folding notifications into
        it — see :class:`BoundRows`.  The session keeps no reference."""
        return BoundRows(self, self.reference_time if rt is None else rt)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Deregister from the manager; the last subscriber drops the
        plan's materialization and its routes.  Idempotent."""
        if self._maintainer is not None:
            self.manager.unsubscribe(self)

    # Called by the manager --------------------------------------------

    def _detach(self) -> Optional[IncrementalMaintainer]:
        """Let go of the plan; returns the maintainer it pointed at."""
        maintainer = self._maintainer
        self._maintainer = self.stats._maintainer = None
        return maintainer

    def _mark_unchanged(self, coalesced: int) -> None:
        """Record a flush that left this result unchanged (no delivery)."""
        self.stats.suppressed += 1
        self.stats.coalesced_events += coalesced

    def _notify(
        self,
        changed_tables: FrozenSet[str],
        coalesced: int,
        delta=None,
        commit=None,
    ) -> int:
        """Record one refresh; hand its notification to this
        subscription's mailbox on the bus.

        Returns 1 when the callback returned (or, with delivery workers,
        the mailbox accepted the notification) and 0 otherwise — nobody
        listens — so the session's counters stay truthful.  *delta* is
        the result-level change when the refresh ran incrementally;
        *commit* is the stamp of the oldest modification batch this
        refresh answers, carried on the notification for freshness
        accounting.
        """
        self.stats.refreshes += 1
        self.stats.coalesced_events += coalesced
        if self._unsubscribe_bus is None:
            return 0
        notification = RefreshNotification(
            subscription=self,
            result=self.result,  # pins the version a later ``rows`` binds
            reference_time=self.reference_time,
            changed_tables=tuple(sorted(changed_tables)),
            delta=delta,
            commit=commit,
        )
        with self.manager._spans.span("enqueue", subscription=self.name):
            delivered = int(self.manager.bus.publish(self.id, notification))
        self.stats.notifications += delivered
        return delivered

    def __repr__(self) -> str:
        state = "active" if self.active else "closed"
        return f"Subscription({self.name!r}, {state}, stats={self.stats})"


class BoundRows:
    """A subscriber's result bound at one reference time, kept current
    by the consumer that wanted it: O(|result|) once, O(|Δ|) per refresh.

    Obtained from :meth:`Subscription.bound_rows`; the consumer calls
    :meth:`apply` with every notification it receives, in order, and
    reads :attr:`rows`.  The fold counts: two ongoing tuples of one
    result may bind to the same fixed tuple at :attr:`rt`, and that
    tuple stays in :attr:`rows` until both are gone.

    Create it where no notification of the subscription is still on its
    way (right after ``subscribe``, or from within the callback): a
    repeated or missed delta is detected only when it drives a count
    below zero.  A full mailbox merges notifications and never drops
    one, so the fold holds however full the mailbox gets.
    """

    __slots__ = ("rt", "_stats", "_counts")

    def __init__(self, subscription: Subscription, rt: Optional[TimePoint]):
        if rt is None:
            raise QueryError(
                f"subscription {subscription.name!r} has no reference time "
                "to bind rows at; pass one"
            )
        self.rt = rt
        self._stats = subscription.stats
        self._counts: Dict[FixedTuple, int] = {}
        self._rebuild(subscription.result)

    def _rebuild(self, result: OngoingRelation) -> None:
        self._stats.instantiations += 1
        counts = self._counts
        counts.clear()  # in place: a ``rows`` view somebody holds stays live
        for row in Binder.of(result.schema).bind(result.tuples, self.rt):
            counts[row] = counts.get(row, 0) + 1

    @property
    def rows(self) -> AbstractSet[FixedTuple]:
        """The bound result — the fixed tuples with a positive count —
        as a live set view (O(1)); ``frozenset(bound.rows)`` keeps one."""
        return self._counts.keys()

    def apply(
        self, notification: RefreshNotification
    ) -> Tuple[FrozenSet[FixedTuple], FrozenSet[FixedTuple]]:
        """Fold one notification in; returns the fixed tuples that
        ``(appeared, vanished)`` at :attr:`rt` — a ``0 ↔ positive`` move
        of a count, the same rule operator state commits by.  Rebuilds
        from ``notification.result`` when the notification does not know
        its precise change.
        """
        changes = notification.changes_at(self.rt)
        if changes is None:
            before = frozenset(self._counts)
            self._rebuild(notification.result)
            return frozenset(self.rows - before), before - self.rows
        net = Counter(changes.inserted)
        net.subtract(changes.deleted)
        counts = self._counts
        moved = {
            row: counts.get(row, 0) + change for row, change in net.items() if change
        }
        if min(moved.values(), default=0) < 0:
            raise QueryError(
                "a delta removes rows this bound set never held: a "
                "notification was lost, repeated or folded out of order"
            )
        appeared = frozenset(row for row in moved if row not in counts)
        vanished = frozenset(row for row, count in moved.items() if not count)
        for row, count in moved.items():
            if count:
                counts[row] = count
            else:
                del counts[row]
        return appeared, vanished
