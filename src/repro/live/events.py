"""Change events and the notification bus of the live engine.

The paper's invariant — ongoing results never go stale because time passes,
only because of explicit modifications — means the *only* signal the live
engine needs is the stream of base-table modifications.  This module gives
that stream a shape:

* :class:`ChangeEvent` — an immutable ``(table, version)`` record emitted
  by the :class:`~repro.engine.database.Database` modification hooks;
* :class:`RefreshNotification` — what subscribers receive after their
  shared result was refreshed: the change and the pinned snapshot, bound
  to a reference time only when (and by whoever) reads it —
  :class:`BoundChanges` is the O(|Δ|) read;
* :class:`EventBus` — a tiny topic-based publish/subscribe fan-out with
  error isolation (a failing listener never starves its peers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.timeline import TimePoint
from repro.engine.delta import Delta
from repro.relational.tuples import FixedTuple

__all__ = ["ChangeEvent", "BoundChanges", "RefreshNotification", "EventBus"]


@dataclass(frozen=True)
class ChangeEvent:
    """One explicit modification of a base table.

    ``version`` is the table's monotonic modification counter *after* the
    change; coalesced modifications (a :meth:`~repro.engine.database.Table.batch`
    block, a current update) produce exactly one event.  ``delta`` names
    the changed rows when the write path could type them (``None`` for
    events observed through the untyped change-listener channel); the
    delta is carried for consumers and does not participate in event
    identity.
    """

    table: str
    version: int
    delta: Optional[Delta] = field(default=None, compare=False)
    #: The :class:`~repro.engine.database.CommitStamp` of the
    #: modification batch (``None`` for events synthesized outside a
    #: stamped write path).  Carried for freshness accounting; excluded
    #: from identity like the delta.
    commit: Optional[Any] = field(default=None, compare=False)


class BoundChanges(NamedTuple):
    """A result-level delta bound at one reference time.

    **Bags**, not sets: two ongoing tuples of one result may bind to the
    same fixed tuple at one reference time, so a consumer folding these
    into a row set has to count — a fixed tuple is in the bound result
    while its count is positive (:class:`~repro.live.subscription.BoundRows`
    is that fold).
    """

    inserted: Tuple[FixedTuple, ...]
    deleted: Tuple[FixedTuple, ...]


@dataclass(frozen=True)
class RefreshNotification:
    """Delivered to a subscription after its result was refreshed.

    A notification carries the change and the snapshot, not a bound
    copy: ``result`` is the immutable ongoing result of this refresh and
    ``reference_time`` the subscription's reference time *when the
    refresh was notified* (``None`` when it had not picked one).
    Binding happens when somebody reads, for the reader that asks:

    * :attr:`rows` — the whole result at ``reference_time``,
      O(|result|), bound on the first read and kept;
    * :meth:`changes_at` — only what this refresh changed, O(|Δ|).

    Subscribers can always instantiate later, at any reference time, via
    ``subscription.instantiate(rt)``; the ongoing result stays valid as
    time passes.

    ``delta`` is the *result-level* change this refresh applied — the
    ongoing tuples that entered and left the result — when the refresh
    ran on the incremental path; ``None`` means the result was fully
    re-evaluated and the precise change was not computed.
    """

    subscription: Any
    result: Any
    reference_time: Optional[TimePoint] = None
    #: Tables whose modifications were coalesced into this refresh.
    changed_tables: Tuple[str, ...] = ()
    delta: Optional[Delta] = field(default=None, compare=False)
    #: The :class:`~repro.engine.database.CommitStamp` of the *oldest*
    #: modification batch this refresh carries — the conservative base
    #: for write→deliver freshness (``repro_freshness_seconds``).
    commit: Optional[Any] = field(default=None, compare=False)
    _rows: Optional[FrozenSet[FixedTuple]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rows(self) -> Optional[FrozenSet[FixedTuple]]:
        """``result`` instantiated at ``reference_time`` (``None``
        without one), bound by the first reader and memoised — a
        notification nobody reads never pays it.  Two first readers
        racing bind twice, to equal sets.  Each bind is one of the
        subscription's ``stats.instantiations``.
        """
        rows = self._rows
        if rows is None and self.reference_time is not None:
            rows = self.result.instantiate(self.reference_time)
            object.__setattr__(self, "_rows", rows)
            self.subscription.stats.instantiations += 1
        return rows

    def changes_at(self, rt: Optional[TimePoint] = None) -> Optional[BoundChanges]:
        """What this refresh changed, bound at *rt* — O(|Δ|).

        *rt* defaults to the notification's ``reference_time``.  ``None``
        when the precise change is unknown (``delta`` is ``None`` or
        full-flagged): re-read :attr:`rows` (or ``result``) instead.  On
        a coalesced notification this is the merged delta, in which one
        tuple may both enter and leave.
        """
        delta = self.delta
        if delta is None or delta.full:
            return None
        if rt is None:
            rt = self.reference_time
            if rt is None:
                raise ValueError(
                    "changes_at() needs a reference time: the subscription "
                    "had none when this refresh was notified"
                )
        return BoundChanges(_bind(delta.inserted, rt), _bind(delta.deleted, rt))

    def coalesce_with(self, newer: "RefreshNotification") -> "RefreshNotification":
        """Merge a *newer* refresh of the same subscription into this one.

        Used by the serving layer's ``coalesce`` backpressure policy: a
        slow subscriber whose queue fills receives one notification that
        carries the latest result and reference time and the **merged
        result-level delta** — applying it to the state the subscriber
        last saw yields exactly the latest result, so no information is
        lost by skipping the intermediate delivery.  A missing delta on
        either side means the precise change is unknown; the merged delta
        is then ``None`` (subscribers fall back to reading ``result``).
        Nothing is bound here: merging costs the same whether or not a
        reader will ever ask for rows.
        """
        if newer.subscription is not self.subscription:
            raise ValueError(
                "refresh notifications of different subscriptions "
                "cannot be coalesced"
            )
        merged_delta = (
            self.delta.merge(newer.delta)
            if self.delta is not None and newer.delta is not None
            else None
        )
        # Freshness is measured against the *oldest* write the delivery
        # answers: coalescing keeps the older stamp so a skipped
        # intermediate delivery cannot make the subscriber look fresher
        # than it is.
        if self.commit is not None and newer.commit is not None:
            older_commit = min(self.commit, newer.commit)
        else:
            older_commit = self.commit or newer.commit
        return RefreshNotification(
            subscription=newer.subscription,
            result=newer.result,
            reference_time=newer.reference_time,
            changed_tables=tuple(
                sorted({*self.changed_tables, *newer.changed_tables})
            ),
            delta=merged_delta,
            commit=older_commit,
        )


def _bind(items, rt: TimePoint) -> Tuple[FixedTuple, ...]:
    """The ongoing tuples of one side of a delta that exist at *rt*, bound."""
    bound = (item.instantiate(rt) for item in items)
    return tuple(row for row in bound if row is not None)


class EventBus:
    """Topic-based synchronous fan-out with listener error isolation.

    Listener exceptions are swallowed per delivery and recorded on
    :attr:`errors` (a bounded list of ``(topic, listener, exception)``
    triples) so one misbehaving subscriber cannot prevent the remaining
    subscribers from hearing about a refresh.  Each failure is also
    announced on the :attr:`LISTENER_ERROR_TOPIC` topic as
    ``(topic, listener, exception)`` so operators can watch subscriber
    health without polling :attr:`errors`.

    Failures raised *while delivering on the listener-error topic itself*
    are recorded but never re-announced: without that guard, a
    listener-error listener that raises would re-enter the error publish
    and recurse until the stack blows — starving every other subscriber
    of the original delivery.  Failures on every *other* topic —
    including the :attr:`ERROR_TOPIC` refresh-failure channel — are
    announced with their originating topic carried through, so operators
    can tell a failing error-listener from a failing refresh-listener.
    """

    #: How many delivery errors to keep for inspection.
    MAX_ERRORS = 100

    #: The topic refresh/flush failures are published on (by the manager).
    ERROR_TOPIC = "error"

    #: The topic listener delivery failures are announced on (by the bus).
    LISTENER_ERROR_TOPIC = "listener-error"

    def __init__(
        self, *, on_delivered: Optional[Callable[[Any], None]] = None
    ) -> None:
        self._listeners: Dict[str, List[Callable[[Any], None]]] = {}
        self.errors: List[Tuple[str, Callable, Exception]] = []
        self.delivered = 0
        #: Optional hook invoked with the payload once per successful
        #: delivery, in lockstep with :attr:`delivered` — the session
        #: observes write→deliver freshness here, on either bus.
        self.on_delivered = on_delivered

    def subscribe(
        self,
        topic: str,
        listener: Callable[[Any], None],
        *,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> Callable[[], None]:
        """Register *listener* for *topic*; returns an unsubscribe thunk.

        *capacity* and *policy* size the subscriber's mailbox on the
        asynchronous bus; inline delivery queues nothing, so they are
        accepted and ignored here.
        """
        self._listeners.setdefault(topic, []).append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.get(topic, []).remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, topic: str, payload: Any) -> int:
        """Deliver *payload* to every listener of *topic*.

        Returns the number of successful deliveries.
        """
        ok = 0
        hook = self.on_delivered
        for listener in tuple(self._listeners.get(topic, ())):
            try:
                listener(payload)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                self._record_failure(topic, listener, exc)
            else:
                ok += 1
                if hook is not None:
                    hook(payload)
        self.delivered += ok
        return ok

    def _record_failure(
        self, topic: str, listener: Callable, exc: Exception
    ) -> None:
        """Record one delivery failure; announce it unless that would
        recurse through the error channel.

        Only failures raised *on the listener-error topic itself* are
        suppressed — announcing those would re-enter this publish and
        recurse.  A failing listener on any other topic (the refresh
        topics, but also the ``"error"`` refresh-failure channel) is
        announced with its originating *topic* carried in the payload;
        the old guard suppressed ``"error"``-topic failures entirely,
        silently dropping the topic along with the announcement.
        """
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append((topic, listener, exc))
        if topic != self.LISTENER_ERROR_TOPIC:
            self.publish(self.LISTENER_ERROR_TOPIC, (topic, listener, exc))

    def listener_count(self, topic: Optional[str] = None) -> int:
        if topic is not None:
            return len(self._listeners.get(topic, ()))
        return sum(len(group) for group in self._listeners.values())

    # ------------------------------------------------------------------
    # The queueing half of the bus contract.  Inline delivery never holds
    # a payload back, so each question has a constant answer here;
    # :class:`~repro.serve.bus.AsyncEventBus` gives the real ones.
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Undelivered payloads — none: :meth:`publish` ran them inline."""
        return 0

    def stats(self) -> Dict[str, int]:
        """The delivery counters under the asynchronous bus's keys:
        whatever was queued was delivered on the spot, so nothing was
        dropped or coalesced and nothing waits."""
        return {
            "queued": self.delivered,
            "delivered": self.delivered,
            "dropped": 0,
            "coalesced": 0,
            "backlog": 0,
        }

    def oldest_commit_age(
        self, topic: str, now: Optional[float] = None
    ) -> Optional[float]:
        """Age of the oldest payload queued for *topic* — nothing waits."""
        return None

    def capture_pending(self, topic: str) -> List[Tuple[Any, ...]]:
        """Undelivered payloads per listener of *topic* — nothing waits."""
        return []

    def restore_pending(self, topic: str, items: Tuple[Any, ...]) -> int:
        """Deliver recovered payloads to *topic* — inline, like any other."""
        return sum(self.publish(topic, item) for item in items)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for queued deliveries — there are none to wait for."""
        return True

    def close(self, *, drain: bool = True) -> None:
        """Stop delivery workers — the synchronous bus has none."""
