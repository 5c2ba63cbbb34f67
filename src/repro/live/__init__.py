"""repro.live — push-based ongoing queries: results that stay valid, clients
that stay subscribed.

The paper proves that an ongoing query result remains valid as the
reference time passes and only goes stale on *explicit* modifications.
That is precisely the contract a continuous-query/subscription service
needs, and this package is that service:

* :mod:`repro.live.events` — the :class:`RefreshNotification` record; it
  travels on the :class:`EventBus` (:mod:`repro.serve.bus`, re-exported
  here) to the one mailbox of the subscription whose result changed.  A
  notification hands over the change and the pinned snapshot; it is
  bound to a reference time when it is read — ``rows`` (the whole
  result, once, on first access) or ``changes_at(rt)`` (a
  :class:`BoundChanges`, O(|Δ|));
* :mod:`repro.live.subscription` — the client-side :class:`Subscription`
  handle (cheap :meth:`~Subscription.instantiate` at any reference time,
  per-subscription statistics) and :class:`BoundRows`, the counted fold
  a consumer keeps to hold a bound row set current from ``changes_at``;
* :mod:`repro.live.manager` — the :class:`SubscriptionManager` /
  :class:`LiveSession` facade, one pipeline: registration → typed-delta
  intake from the database hooks → batched coalescing flushes that
  *propagate* row deltas through cached operator state
  (:mod:`repro.engine.delta`) instead of re-evaluating → one
  notification per subscription whose result changed (an empty delta
  notifies nobody).  Per plan it holds one
  :class:`~repro.engine.maintenance.IncrementalMaintainer`, keyed by
  :meth:`~repro.engine.plan.PlanNode.fingerprint` — structurally equal
  plans from different clients share one evaluation — plus the
  ``table → fingerprints`` routing that tells a modification which
  plans it invalidates;
* :mod:`repro.live.serving` and :mod:`repro.live.metrics` — the
  session's internal parts: the background flush loop with its debounce
  policy, and the freshness accounting / registry scrape.

Design invariant: **no clock**.  Nothing in this package reads or
advances time; the only trigger for work is a base-table modification
event, and serving a subscriber at a new reference time is a pure
instantiation of an already-materialized ongoing result.

Quickstart::

    from repro.engine.database import Database
    from repro.live import LiveSession

    session = LiveSession(database)
    sub = session.subscribe_sql(
        "SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/01, 09/01)'",
        on_refresh=lambda event: print("refreshed:", len(event.result.tuples)),
    )
    sub.instantiate(rt)        # any rt, never re-evaluates
    ...                        # current_delete / insert on base tables
    session.flush()            # one coalesced delta propagation + notification

A consumer that wants bound rows reads ``event.rows`` (O(|result|), on
the read) or keeps them current in O(|Δ|)::

    bound = sub.bound_rows(rt)                 # one bind, here
    def on_refresh(event):
        appeared, vanished = bound.apply(event)    # folds event.changes_at(rt)
"""

from repro.serve.bus import EventBus

from repro.live.events import BoundChanges, RefreshNotification
from repro.live.manager import LiveSession, SubscriptionManager
from repro.live.subscription import BoundRows, Subscription, SubscriptionStats

__all__ = [
    "BoundChanges",
    "BoundRows",
    "EventBus",
    "LiveSession",
    "RefreshNotification",
    "Subscription",
    "SubscriptionManager",
    "SubscriptionStats",
]
