"""Threaded notification fan-out: the delivery pool and the async bus.

The synchronous :class:`~repro.live.events.EventBus` runs every listener
inline, so one slow subscriber callback stalls the whole flush.  The
serving layer replaces the *delivery* half with worker threads while
keeping the bus contract intact:

* :class:`DeliveryPool` — N worker threads servicing per-subscriber
  bounded :class:`~repro.serve.queues.Mailbox` queues.  A mailbox is
  pinned to exactly one worker, which yields **in-order, exactly-once
  delivery per subscription** (modulo the subscriber's own ``coalesce``
  policy) with zero global coordination; workers round-robin across
  their mailboxes so no subscriber starves another.
* :class:`AsyncEventBus` — a drop-in :class:`EventBus` whose ``publish``
  *enqueues* instead of calling listeners.  Error isolation carries
  over: a raising listener is recorded on :attr:`EventBus.errors` and
  announced on the ``listener-error`` topic (with the same recursion
  guard as the sync bus), and its mailbox keeps draining.

Publishing returns the number of *accepted* payloads; call
:meth:`AsyncEventBus.drain` to wait until every queue is empty and every
in-flight callback returned — the flush/benchmark barrier.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.durable import faults
from repro.live.events import EventBus

from repro.serve.queues import Mailbox, REJECTED

__all__ = ["DeliveryPool", "AsyncEventBus"]


class _DeliveryWorker:
    """One delivery thread plus the mailboxes pinned to it."""

    def __init__(self, name: str, tracer=None, on_delivered=None):
        self.condition = threading.Condition()
        #: Mailboxes with queued items, FIFO for round-robin fairness.
        self.ready: Deque[Mailbox] = deque()
        self.mailboxes: List[Mailbox] = []
        self.open = True
        self.active = 0  # callbacks currently running
        self.delivered = 0
        #: Optional span recorder — "deliver" spans per callback run.
        self.tracer = tracer
        #: Optional per-delivery hook, invoked with the payload exactly
        #: once per completed delivery attempt (in lockstep with the
        #: ``delivered`` counter, so freshness accounting built on it
        #: matches the delivered ground truth).
        self.on_delivered = on_delivered
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)

    def start(self) -> None:
        self.thread.start()

    def schedule(self, mailbox: Mailbox) -> None:
        """Mark *mailbox* ready (condition held by the caller via put)."""
        with self.condition:
            if not mailbox.scheduled and len(mailbox):
                mailbox.scheduled = True
                self.ready.append(mailbox)
                self.condition.notify_all()

    def _run(self) -> None:
        while True:
            with self.condition:
                while self.open and not self.ready:
                    self.condition.wait()
                if not self.open and not self.ready:
                    return
                mailbox = self.ready.popleft()
                item = mailbox._pop()
                if len(mailbox._items):
                    self.ready.append(mailbox)  # round-robin: go to the back
                else:
                    mailbox.scheduled = False
                self.active += 1
            try:
                self._deliver(mailbox, item)
            finally:
                hook = self.on_delivered
                if hook is not None:
                    try:
                        hook(item)
                    except Exception:  # noqa: BLE001 — never kill the worker
                        pass
                with self.condition:
                    self.active -= 1
                    self.delivered += 1
                    mailbox.delivered += 1
                    self.condition.notify_all()

    def _deliver(self, mailbox: Mailbox, item: Any) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "deliver", listener=getattr(mailbox.listener, "__name__", "?")
            ):
                self._deliver_impl(mailbox, item)
            return
        self._deliver_impl(mailbox, item)

    def _deliver_impl(self, mailbox: Mailbox, item: Any) -> None:
        try:
            mailbox.listener(item)
            # Crashpoint: the listener ran but the delivery is not yet
            # acknowledged.  action="exit" models a crash in the ack
            # window (the durability tests' lost-notification probe);
            # action="raise" is isolated like any listener error.
            faults.fire("delivery.pre_ack")
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            with self.condition:
                mailbox.errors += 1
            on_error = getattr(mailbox, "_on_error", None)
            if on_error is not None:
                try:
                    on_error(mailbox, item, exc)
                except Exception:  # noqa: BLE001 — never kill the worker
                    pass

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


class DeliveryPool:
    """N delivery workers fanning payloads out to pinned mailboxes."""

    #: How long a ``block``-policy post may wait before degrading to
    #: ``drop_oldest`` (liveness bound: a dead subscriber must not wedge
    #: the flush pipeline forever; the degrade is counted as dropped).
    BLOCK_TIMEOUT = 30.0

    def __init__(
        self,
        *,
        workers: int = 4,
        capacity: int = 64,
        policy: str = "coalesce",
        name: str = "delivery",
        block_timeout: float = BLOCK_TIMEOUT,
        tracer=None,
        on_delivered: Optional[Callable[[Any], None]] = None,
    ):
        if workers < 1:
            raise ValueError("a delivery pool needs at least one worker")
        self.capacity = capacity
        self.policy = policy
        self.block_timeout = block_timeout
        self._workers = [
            _DeliveryWorker(f"{name}-{index}", tracer=tracer, on_delivered=on_delivered)
            for index in range(workers)
        ]
        self._next_worker = itertools.count()
        self._closed = False
        for worker in self._workers:
            worker.start()
        self._worker_idents = {
            worker.thread.ident for worker in self._workers
        }

    def set_on_delivered(self, hook: Optional[Callable[[Any], None]]) -> None:
        """Install (or clear) the per-delivery payload hook on all workers.

        The hook fires exactly once per completed delivery attempt, in
        lockstep with the ``delivered`` counter; exceptions it raises are
        swallowed so it can never stall a worker.
        """
        for worker in self._workers:
            worker.on_delivered = hook

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        listener: Callable[[Any], None],
        *,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
        on_error: Optional[Callable[[Mailbox, Any, Exception], None]] = None,
    ) -> Mailbox:
        """Create a bounded mailbox for *listener*, pinned to one worker."""
        if self._closed:
            raise RuntimeError("delivery pool is closed")
        worker = self._workers[next(self._next_worker) % len(self._workers)]
        mailbox = Mailbox(
            listener,
            condition=worker.condition,
            capacity=capacity if capacity is not None else self.capacity,
            policy=policy if policy is not None else self.policy,
        )
        mailbox._on_error = on_error  # type: ignore[attr-defined]
        mailbox._worker = worker  # type: ignore[attr-defined]
        with worker.condition:
            worker.mailboxes.append(mailbox)
        return mailbox

    def unregister(self, mailbox: Mailbox) -> None:
        worker = mailbox._worker  # type: ignore[attr-defined]
        with worker.condition:
            mailbox._close()
            if mailbox.scheduled:
                try:
                    worker.ready.remove(mailbox)
                except ValueError:
                    pass
                mailbox.scheduled = False
            try:
                worker.mailboxes.remove(mailbox)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------

    def post(
        self, mailbox: Mailbox, payload: Any, *, timeout: Optional[float] = None
    ) -> str:
        """Admit *payload* and wake the owning worker; returns the outcome.

        ``block``-policy waits are always bounded: *timeout* defaults to
        :attr:`block_timeout`, and a post issued **from a delivery worker
        thread** (a callback publishing, an error announcement) never
        waits at all — a worker blocking on a mailbox only it can drain
        would deadlock itself and starve every subscriber pinned to it.
        """
        if timeout is None:
            timeout = (
                0.0
                if threading.get_ident() in self._worker_idents
                else self.block_timeout
            )
        outcome = mailbox.put(payload, timeout=timeout)
        mailbox._worker.schedule(mailbox)  # type: ignore[attr-defined]
        return outcome

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queue is empty and no callback is in flight.

        Returns ``False`` when *timeout* elapsed first.  New payloads
        posted while draining extend the wait — drain is a barrier for
        "everything accepted so far", meant to be called once producers
        paused (end of a flush round, shutdown, benchmark edges).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # One pass must observe every worker idle without waiting:
            # a delivery on worker B may post to a mailbox on already
            # checked worker A (error announcements, chained publishes),
            # so any wait invalidates the passes before it.
            settled = True
            for worker in self._workers:
                if worker.thread is threading.current_thread():
                    # A callback draining its own bus: this worker is
                    # busy running the caller and cannot go idle.
                    continue
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    remaining = 0
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

    def backlog(self) -> int:
        """Undelivered payloads across all mailboxes — the load signal
        the adaptive serve-loop debounce reads (cheaper than
        :meth:`stats`, which also walks the counter fields)."""
        total = 0
        for worker in self._workers:
            with worker.condition:
                for mailbox in worker.mailboxes:
                    total += len(mailbox._items)
        return total

    def close(self, *, drain: bool = True) -> None:
        """Stop all workers; by default deliver everything queued first."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop(drain=drain)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def stats(self) -> Dict[str, int]:
        queued = delivered = dropped = coalesced = errors = backlog = 0
        for worker in self._workers:
            with worker.condition:
                delivered_w = worker.delivered
                for mailbox in worker.mailboxes:
                    queued += mailbox.queued
                    dropped += mailbox.dropped
                    coalesced += mailbox.coalesced
                    errors += mailbox.errors
                    backlog += len(mailbox._items)
            delivered += delivered_w
        return {
            "workers": len(self._workers),
            "queued": queued,
            "delivered": delivered,
            "dropped": dropped,
            "coalesced": coalesced,
            "delivery_errors": errors,
            "backlog": backlog,
        }


class AsyncEventBus(EventBus):
    """An :class:`EventBus` whose deliveries ride a :class:`DeliveryPool`.

    ``publish`` enqueues to every topic listener's mailbox and returns
    the number of payloads *accepted* (queued or coalesced — a coalesced
    payload's information still reaches the subscriber, merged into the
    notification already waiting).  ``delivered`` counts callbacks that
    actually completed, as in the sync bus; the two differ only by the
    in-flight backlog and any dropped deliveries, both visible in
    :meth:`stats`.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        capacity: int = 64,
        policy: str = "coalesce",
        pool: Optional[DeliveryPool] = None,
        tracer=None,
        on_delivered: Optional[Callable[[Any], None]] = None,
    ):
        super().__init__(on_delivered=on_delivered)
        self.pool = pool or DeliveryPool(
            workers=workers, capacity=capacity, policy=policy, tracer=tracer
        )
        if on_delivered is not None:
            self.pool.set_on_delivered(on_delivered)
        self._mailboxes: Dict[str, List[Tuple[Callable, Mailbox]]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # EventBus API
    # ------------------------------------------------------------------

    def subscribe(
        self,
        topic: str,
        listener: Callable[[Any], None],
        *,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> Callable[[], None]:
        """Register *listener* with its own bounded delivery queue.

        *capacity*/*policy* override the pool defaults per subscriber —
        a dashboard can coalesce while an audit log blocks.
        """

        def record_error(mailbox: Mailbox, item: Any, exc: Exception) -> None:
            with self._lock:
                self._record_failure(topic, listener, exc)

        mailbox = self.pool.register(
            listener,
            capacity=capacity,
            policy=policy,
            on_error=record_error,
        )
        with self._lock:
            self._mailboxes.setdefault(topic, []).append((listener, mailbox))

        def unsubscribe() -> None:
            with self._lock:
                group = self._mailboxes.get(topic, [])
                for index, (candidate, box) in enumerate(group):
                    if candidate is listener and box is mailbox:
                        del group[index]
                        break
                else:
                    return
            self.pool.unregister(mailbox)

        return unsubscribe

    def publish(self, topic: str, payload: Any) -> int:
        """Enqueue *payload* for every listener of *topic*.

        Returns the number of accepted deliveries (queued or coalesced).
        """
        with self._lock:
            group = tuple(self._mailboxes.get(topic, ()))
        accepted = 0
        for _, mailbox in group:
            if self.pool.post(mailbox, payload) != REJECTED:
                accepted += 1
        return accepted

    def listener_count(self, topic: Optional[str] = None) -> int:
        with self._lock:
            if topic is not None:
                return len(self._mailboxes.get(topic, ()))
            return sum(len(group) for group in self._mailboxes.values())

    # ------------------------------------------------------------------
    # Serving extras
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Undelivered notifications across all subscriber mailboxes."""
        return self.pool.backlog()

    def oldest_commit_age(
        self, topic: str, now: Optional[float] = None
    ) -> Optional[float]:
        """Age of the oldest commit-stamped payload still queued for
        *topic*'s listeners, or ``None`` when nothing stamped waits.

        Snapshot-time introspection for the staleness gauges — walks the
        topic's mailboxes only when asked, so delivery pays nothing.
        """
        with self._lock:
            group = tuple(self._mailboxes.get(topic, ()))
        oldest: Optional[float] = None
        for _, mailbox in group:
            age = mailbox.oldest_commit_age(now)
            if age is not None and (oldest is None or age > oldest):
                oldest = age
        return oldest

    def capture_pending(self, topic: str) -> List[Tuple[Any, ...]]:
        """Undelivered payloads per listener of *topic*, oldest first.

        The checkpoint capture path (non-destructive — items stay queued
        for delivery): one tuple per subscribed listener, in
        subscription order.
        """
        with self._lock:
            group = tuple(self._mailboxes.get(topic, ()))
        return [mailbox.capture() for _, mailbox in group]

    def restore_pending(self, topic: str, items: Tuple[Any, ...]) -> int:
        """Re-enqueue captured payloads for every listener of *topic*.

        The recovery path: appends behind anything already queued
        (bypassing backpressure) and wakes the owning workers.  Returns
        the number of accepted payload deliveries.
        """
        with self._lock:
            group = tuple(self._mailboxes.get(topic, ()))
        accepted = 0
        for _, mailbox in group:
            restored = mailbox.restore(items)
            if restored:
                accepted += restored
                mailbox._worker.schedule(mailbox)  # type: ignore[attr-defined]
        return accepted

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every queued notification to finish delivering."""
        return self.pool.drain(timeout=timeout)

    def close(self, *, drain: bool = True) -> None:
        self.pool.close(drain=drain)

    def stats(self) -> Dict[str, int]:
        data = self.pool.stats()
        data["topics"] = self.listener_count()
        return data
