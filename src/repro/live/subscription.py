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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional, TYPE_CHECKING

from repro.core.timeline import TimePoint
from repro.engine.maintenance import IncrementalMaintainer
from repro.engine.plan import PlanNode
from repro.errors import QueryError
from repro.relational.relation import OngoingRelation
from repro.relational.tuples import FixedTuple

from repro.live.events import RefreshNotification

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.live.manager import SubscriptionManager

__all__ = ["Subscription", "SubscriptionStats"]


@dataclass
class SubscriptionStats:
    """Per-subscription bookkeeping, all modification-driven.

    ``refreshes`` counts re-evaluations of the shared result observed by
    this subscription; ``notifications`` counts ``on_refresh`` deliveries;
    ``coalesced_events`` counts base-table change events that were folded
    into those refreshes; ``pending_events`` those no refresh has
    answered for yet (a read of the plan's pending record, ``0`` once the
    subscription is closed); ``instantiations`` counts the cheap serving
    operation.  There is deliberately no clock anywhere in here.
    """

    refreshes: int = 0
    notifications: int = 0
    coalesced_events: int = 0
    instantiations: int = 0
    #: Refresh rounds whose propagated delta was empty for this
    #: subscription's result — suppressed unless ``notify_on_no_change``.
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
    flush-shard worker owning this plan's fingerprint, and ``on_refresh``
    callbacks run on the one delivery worker owning this subscriber's
    mailbox — both FIFO, so per-subscription bookkeeping and delivery
    stay in refresh order without extra locking.
    """

    #: Process-wide id source; ``itertools.count`` hands out ids atomically,
    #: so concurrent ``subscribe()`` calls can never collide on an id.
    _ids = itertools.count(1)

    def __init__(
        self,
        manager: "SubscriptionManager",
        maintainer: IncrementalMaintainer,
        *,
        on_refresh: Optional[Callable[[RefreshNotification], None]] = None,
        reference_time: Optional[TimePoint] = None,
        name: Optional[str] = None,
        notify_on_no_change: bool = False,
        statement: Optional[str] = None,
        backpressure: Optional[str] = None,
        queue_capacity: Optional[int] = None,
    ):
        self.id = next(Subscription._ids)
        self.name = name or f"subscription-{self.id}"
        self.manager = manager
        self.on_refresh = on_refresh
        #: The reference time instantiated rows are delivered at; ``None``
        #: delivers the ongoing result only.  Caller-chosen and mutable —
        #: changing it never requires a re-evaluation.
        self.reference_time = reference_time
        #: Subscription-level change filter: by default a flush whose
        #: propagated delta leaves this result unchanged (an irrelevant
        #: row was touched) delivers *no* refresh notification.  Set to
        #: ``True`` to hear about every flush of a dirty dependency.
        self.notify_on_no_change = notify_on_no_change
        #: How this subscription was registered, for durable checkpoints:
        #: the OSQL source (recompiled on resume) and the per-subscriber
        #: mailbox overrides.  ``None`` means "plan object only" /
        #: "session defaults" respectively.
        self.statement = statement
        self.backpressure = backpressure
        self.queue_capacity = queue_capacity
        self.stats = SubscriptionStats(_maintainer=maintainer)
        self._maintainer: Optional[IncrementalMaintainer] = maintainer

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
        """Record one refresh; deliver notifications via the event bus.

        Returns the number of callbacks actually delivered (0 when nobody
        listens), so the session's counters stay truthful.  *delta* is
        the result-level change when the refresh ran incrementally;
        *commit* is the stamp of the oldest modification batch this
        refresh answers, carried on the notification for freshness
        accounting.
        """
        self.stats.refreshes += 1
        self.stats.coalesced_events += coalesced
        bus = self.manager.bus
        topic = f"refresh:{self.id}"
        if bus.listener_count(topic) == 0 and bus.listener_count("refresh") == 0:
            return 0
        result = self.result  # one snapshot read serves the notification
        rows = None
        if self.reference_time is not None:
            rows = result.instantiate(self.reference_time)
        notification = RefreshNotification(
            subscription=self,
            result=result,
            rows=rows,
            changed_tables=tuple(sorted(changed_tables)),
            delta=delta,
            commit=commit,
        )
        with self.manager._spans.span(
            "enqueue", subscription=self.name, topic=topic
        ):
            delivered = bus.publish(topic, notification)
            delivered += bus.publish("refresh", notification)
        self.stats.notifications += delivered
        return delivered

    def __repr__(self) -> str:
        state = "active" if self.active else "closed"
        return f"Subscription({self.name!r}, {state}, stats={self.stats})"
