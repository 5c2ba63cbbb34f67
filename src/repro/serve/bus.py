"""The notification bus: one mailbox per subscription, delivered on the
publisher's thread or on workers.

A notification has one addressee — the subscription whose result
changed — so :class:`EventBus` is keyed by subscription: each key
(the session uses the subscription id) has at most one listener and its
:class:`~repro.serve.queues.Mailbox`, and :meth:`EventBus.publish`
reaches that one mailbox or none.  ``workers`` says which thread calls
the listener back:

* ``workers=0`` — ``publish`` calls the listener itself before it
  returns.  Nothing is ever queued; the mailbox only keeps the
  listener's counters.
* ``workers=N`` — ``publish`` *enqueues* and N delivery threads call the
  listeners, so one slow subscriber callback no longer stalls a flush.
  A full mailbox merges the payload into its tail at once: ``publish``
  never waits for a subscriber, whoever calls it.  A mailbox is pinned
  to exactly one worker, which yields **in-order, exactly-once delivery
  per subscription** (a merge drops no notification) with zero global
  coordination; workers round-robin across their mailboxes so no
  subscriber starves another.

Either way one method runs a listener (:meth:`EventBus._deliver`), so
isolation and accounting are the same on both paths: a raising listener
is recorded on :attr:`EventBus.errors`, counted in ``delivery_errors``
and logged on ``repro.serve.bus``, and the other subscribers — and its
own later payloads — are still delivered; ``delivered`` and the
``on_delivered`` hook count callbacks that *returned*.

``publish`` says whether the listener returned (``workers=0``) or the
mailbox accepted the payload (``workers=N``); call
:meth:`EventBus.drain` to wait until every queue is empty and every
in-flight callback returned — the flush/benchmark barrier.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

from repro.durable import faults
from repro.obs.trace import NULL_TRACER

from repro.serve.queues import Mailbox, REJECTED, check_capacity

__all__ = ["EventBus"]

logger = logging.getLogger("repro.serve.bus")

#: The per-mailbox counters :meth:`EventBus.stats` sums (a mailbox's
#: are retired into the bus's totals when its listener unsubscribes).
_COUNTERS = ("queued", "delivered", "dropped", "coalesced", "errors")


class _DeliveryWorker:
    """One delivery thread plus the ready queue of the mailboxes pinned
    to it."""

    def __init__(self, name: str, deliver: Callable[[Mailbox, Any], Any]):
        self.condition = threading.Condition()
        #: Mailboxes with queued items, FIFO for round-robin fairness.
        self.ready: Deque[Mailbox] = deque()
        self.open = True
        self.active = 0  # callbacks currently running
        self.thread = threading.Thread(
            target=self._run, args=(deliver,), name=name, daemon=True
        )
        self.thread.start()

    def schedule(self, mailbox: Mailbox) -> None:
        """Mark *mailbox* ready if it holds something and is not already."""
        with self.condition:
            if not mailbox.scheduled and len(mailbox):
                mailbox.scheduled = True
                self.ready.append(mailbox)
                self.condition.notify_all()

    def _run(self, deliver: Callable[[Mailbox, Any], Any]) -> None:
        while True:
            with self.condition:
                while self.open and not self.ready:
                    self.condition.wait()
                if not self.ready:
                    return
                mailbox = self.ready.popleft()
                item = mailbox._items.popleft()
                if len(mailbox._items):
                    self.ready.append(mailbox)  # round-robin: go to the back
                else:
                    mailbox.scheduled = False
                self.active += 1
            try:
                deliver(mailbox, item)
            finally:
                with self.condition:
                    self.active -= 1
                    self.condition.notify_all()

    def idle(self) -> bool:
        """No ready mailboxes and no callback in flight (condition held)."""
        return not self.ready and self.active == 0

    def stop(self, *, drain: bool, timeout: float = 10.0) -> None:
        # A callback closing its own bus runs *on* this worker: it can
        # neither wait for itself to go idle nor join itself.  Closing
        # the worker is enough — the loop delivers what is still queued
        # once the callback returns, then exits.
        own = threading.current_thread() is self.thread
        with self.condition:
            # Bounded: one subscriber callback stuck in I/O must not
            # hang shutdown forever — after the grace period the
            # remaining queue is abandoned (the thread is a daemon).
            drained = drain and (
                own or self.condition.wait_for(self.idle, timeout=timeout)
            )
            if not drained:
                for mailbox in self.ready:
                    mailbox.scheduled = False
                self.ready.clear()
            self.open = False
            self.condition.notify_all()
        if not own:
            self.thread.join(timeout=timeout)


class EventBus:
    """One mailbox per key, with listener error isolation.

    *workers* delivery threads call the listeners (``0``: the publishing
    thread does); *capacity* is the default mailbox size, overridable per
    subscriber.  A publish to a full mailbox merges into its tail
    (counted as coalesced, never as dropped) and never waits.  *tracer*
    records a ``deliver`` span per callback; *on_delivered* is invoked
    with the payload once per callback that returned, in lockstep with
    the ``delivered`` counter — the session observes write→deliver
    freshness there.

    Listener exceptions are swallowed per delivery, logged, and recorded
    on :attr:`errors` (a bounded list of ``(key, exception)`` pairs), so
    one misbehaving subscriber cannot keep the others from hearing about
    a refresh.
    """

    #: How many delivery errors to keep for inspection.
    MAX_ERRORS = 100

    def __init__(
        self,
        *,
        workers: int = 0,
        capacity: int = 64,
        tracer=None,
        on_delivered: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("a bus cannot have a negative number of workers")
        check_capacity(capacity)
        self.capacity = capacity
        self.on_delivered = on_delivered
        self.errors: List[Tuple[Hashable, Exception]] = []
        self._spans = tracer if tracer is not None else NULL_TRACER
        #: Guards writes to the mailbox map, :attr:`errors` and the
        #: retired totals; never held while a listener runs.  Taken
        #: before a mailbox's condition, never after.
        self._lock = threading.Lock()
        self._mailboxes: Dict[Hashable, Mailbox] = {}
        self._retired = dict.fromkeys(_COUNTERS, 0)
        self._closed = False
        self._workers = [
            _DeliveryWorker(f"delivery-{index}", self._deliver)
            for index in range(workers)
        ]
        self._next_worker = itertools.cycle(self._workers or (None,))
        #: What the mailboxes of a bus without workers synchronize on.
        self._inline = threading.Condition()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def subscribe(
        self,
        key: Hashable,
        listener: Callable[[Any], None],
        *,
        capacity: Optional[int] = None,
    ) -> Callable[[], None]:
        """Give *key* its mailbox, delivering to *listener*; returns an
        unsubscribe thunk.

        A key that already has a mailbox is refused (:class:`ValueError`):
        a notification has one addressee.  *capacity* overrides the bus
        default for this mailbox — an audit log that wants every
        notification separately can have room for them while a dashboard
        merges.  It is checked whatever ``workers`` is.
        """
        if self._closed:
            raise RuntimeError("the bus is closed")
        with self._lock:
            if key in self._mailboxes:
                raise ValueError(f"{key!r} already has a mailbox")
            worker = next(self._next_worker)
            mailbox = Mailbox(
                listener,
                condition=self._inline if worker is None else worker.condition,
                capacity=capacity if capacity is not None else self.capacity,
            )
            mailbox.key = key
            mailbox._worker = worker
            self._mailboxes[key] = mailbox

        def unsubscribe() -> None:
            with self._lock:
                if self._mailboxes.get(key) is not mailbox:
                    return
                del self._mailboxes[key]
                with mailbox.condition:
                    mailbox._close()
                    if mailbox.scheduled:
                        worker.ready.remove(mailbox)
                        mailbox.scheduled = False
                        # The worker may be idle now: wake a drain or a
                        # stop waiting for that.
                        mailbox.condition.notify_all()
                    for name in _COUNTERS:
                        self._retired[name] += getattr(mailbox, name)

        return unsubscribe

    # ------------------------------------------------------------------
    # Publishing and delivery
    # ------------------------------------------------------------------

    def publish(self, key: Hashable, payload: Any) -> bool:
        """Hand *payload* to *key*'s listener, if it has one.

        Without workers the listener runs now and the result says whether
        it returned.  With workers the payload is enqueued and the result
        says whether the mailbox accepted it (queued or coalesced — a
        coalesced payload's information still reaches the subscriber,
        merged into the notification already waiting); a closed bus
        accepts nothing.  It never waits for space, so one stuck
        subscriber delays neither the publisher nor anyone else, and a
        callback publishing from its own worker cannot wait on itself.
        """
        mailbox = self._mailboxes.get(key)
        if mailbox is None or self._closed:
            return False
        if not self._workers:
            with mailbox.condition:
                if mailbox.closed:  # unsubscribed since the lookup
                    return False
                mailbox.queued += 1
            return self._deliver(mailbox, payload)
        accepted = mailbox.put(payload) != REJECTED
        mailbox._worker.schedule(mailbox)
        return accepted

    def _deliver(self, mailbox: Mailbox, payload: Any) -> bool:
        """Call one listener with one payload; ``True`` when it returned.

        The only place a listener runs — on the publishing thread or on
        the mailbox's worker."""
        listener = mailbox.listener
        with self._spans.span(
            "deliver", listener=getattr(listener, "__name__", "?")
        ):
            try:
                listener(payload)
                # Crashpoint: the listener ran but the delivery is not yet
                # acknowledged.  action="exit" models a crash in the ack
                # window (the durability tests' lost-notification probe);
                # action="raise" is isolated like any listener error.
                faults.fire("delivery.pre_ack")
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                self._tally(mailbox, "errors")
                with self._lock:
                    if len(self.errors) < self.MAX_ERRORS:
                        self.errors.append((mailbox.key, exc))
                logger.exception("delivery to %r failed", mailbox.key)
                return False
        self._tally(mailbox, "delivered")
        hook = self.on_delivered
        if hook is not None:
            try:
                hook(payload)
            except Exception:  # noqa: BLE001 — accounting never stops delivery
                logger.exception("on_delivered hook failed")
        return True

    def _tally(self, mailbox: Mailbox, counter: str) -> None:
        """Count one delivery outcome on *mailbox* — or straight into the
        retired totals when its listener unsubscribed while (or from
        within) the callback, so the totals never lose a delivery."""
        with mailbox.condition:
            if not mailbox.closed:
                setattr(mailbox, counter, getattr(mailbox, counter) + 1)
                return
        with self._lock:
            self._retired[counter] += 1

    # ------------------------------------------------------------------
    # The queues, asked from outside
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Undelivered payloads across all mailboxes — the load signal
        the adaptive serve-loop debounce reads (cheaper than
        :meth:`stats`, which also walks the counters)."""
        with self._lock:
            return sum(len(mailbox) for mailbox in self._mailboxes.values())

    def stats(self) -> Dict[str, int]:
        """The delivery counters, monotonic over the bus's life, plus the
        current ``backlog`` and ``listeners`` (mailboxes)."""
        with self._lock:
            totals = dict(self._retired)
            backlog = 0
            for mailbox in self._mailboxes.values():
                with mailbox.condition:
                    for name in _COUNTERS:
                        totals[name] += getattr(mailbox, name)
                    backlog += len(mailbox._items)
            listeners = len(self._mailboxes)
        totals["delivery_errors"] = totals.pop("errors")
        return {
            "workers": len(self._workers),
            **totals,
            "backlog": backlog,
            "listeners": listeners,
        }

    def oldest_commit_age(
        self, key: Hashable, now: Optional[float] = None
    ) -> Optional[float]:
        """Age of the oldest commit-stamped payload still queued for
        *key*, or ``None`` when nothing stamped waits.

        Snapshot-time introspection for the staleness gauges — walks the
        mailbox only when asked, so delivery pays nothing.
        """
        mailbox = self._mailboxes.get(key)
        return None if mailbox is None else mailbox.oldest_commit_age(now)

    def capture_pending(self, key: Hashable) -> Tuple[Any, ...]:
        """*key*'s undelivered payloads, oldest first.

        The checkpoint capture path (non-destructive — the items stay
        queued for delivery).
        """
        mailbox = self._mailboxes.get(key)
        return () if mailbox is None else mailbox.capture()

    def restore_pending(self, key: Hashable, items: Tuple[Any, ...]) -> int:
        """Hand recovered payloads to *key*'s listener.

        The recovery path: with workers the payloads are appended behind
        anything already queued (never merged) and the owning
        worker woken; without, they are published like any other.
        Returns the number of accepted payloads.
        """
        mailbox = self._mailboxes.get(key)
        if mailbox is None:
            return 0
        if not self._workers:
            return sum(self.publish(key, item) for item in items)
        accepted = mailbox.restore(items)
        mailbox._worker.schedule(mailbox)
        return accepted

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queue is empty and no callback is in flight.

        Returns ``False`` when *timeout* elapsed first.  New payloads
        published while draining extend the wait — drain is a barrier for
        "everything accepted so far", meant to be called once producers
        paused (end of a flush round, shutdown, benchmark edges).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # One pass must observe every worker idle without waiting:
            # a callback on worker B may publish (or flush, which
            # publishes) to a mailbox on already checked worker A, so
            # any wait invalidates the passes before it.
            settled = True
            for worker in self._workers:
                if worker.thread is threading.current_thread():
                    # A callback draining its own bus: this worker is
                    # busy running the caller and cannot go idle.
                    continue
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                with worker.condition:
                    if worker.idle():
                        continue
                    settled = False
                    if not worker.condition.wait_for(
                        worker.idle, timeout=remaining
                    ):
                        return False
            if settled:
                return True

    def close(self, *, drain: bool = True) -> None:
        """Stop the delivery workers; by default deliver everything
        queued first.  A bus without workers has nothing to stop and
        keeps delivering."""
        if self._closed or not self._workers:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop(drain=drain)
