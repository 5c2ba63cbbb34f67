"""The serve loop: a session's background flush thread and its debounce.

:meth:`~repro.live.manager.SubscriptionManager.serve` hands flushing to a
:class:`ServeLoop`.  The loop sleeps until a modification event wakes it
(there is no polling of data and no clock-driven refresh — an idle
database costs nothing), waits one debounce window so a burst of writes
coalesces into one flush round, then calls the session's ordinary
:meth:`~repro.live.manager.SubscriptionManager.flush`.

This module is the only place that knows the **debounce policy**.  The
window is one ``(low, high)`` band; a fixed window is the band with
``low == high``.  Before each sleep the loop reads the session's queue
depth — undelivered notifications in the delivery mailboxes plus dirty
plans awaiting refresh — and interpolates linearly between the band
edges, saturating at ``queue_capacity``: an idle system reacts at *low*
latency, a backlogged one waits up to *high* so more writes coalesce
into each round and the queues get room to drain.  The window reads
nothing else: a :class:`~repro.obs.slo.FreshnessSLO` observes how fresh
the deliveries arrive, it does not steer the loop.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.live.manager import SubscriptionManager

#: Internal to :mod:`repro.live` — the session is the public face.
__all__: list = []


class ServeLoop:
    """One session's background flush thread, woken only by modifications.

    An internal part of :class:`~repro.live.manager.SubscriptionManager`:
    the session constructs it, wakes it from the modification intake and
    delegates ``serve()`` / ``stop_serving()`` / ``current_debounce()`` to
    it.
    """

    def __init__(self, session: "SubscriptionManager", *, capacity: int):
        self._session = session
        #: The depth at which the adaptive window saturates: one full
        #: mailbox.
        self._capacity = capacity
        self._band: Tuple[float, float] = (0.0, 0.0)
        self._wakeup = threading.Event()
        #: Guards start/stop; the loop itself only compares
        #: :attr:`_thread` with the thread it runs on.
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop`."""
        return self._thread is not None

    def start(
        self,
        debounce: float,
        debounce_min: Optional[float],
        debounce_max: Optional[float],
    ) -> None:
        """Set the debounce band and start the thread (idempotent: a
        second call only updates the band)."""
        if debounce_min is None and debounce_max is None:
            band = (max(0.0, debounce),) * 2
        elif debounce_min is None or debounce_max is None:
            raise QueryError(
                "adaptive debounce needs both debounce_min and debounce_max"
            )
        elif debounce_min < 0 or debounce_max < debounce_min:
            raise QueryError(
                "debounce band must satisfy 0 <= debounce_min <= "
                "debounce_max"
            )
        else:
            band = (debounce_min, debounce_max)
        with self._lock:
            self._band = band
            if self._thread is not None:
                return
            self._wakeup.clear()
            thread = threading.Thread(
                target=self._run, name="live-serve", daemon=True
            )
            self._thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop the loop (idempotent) and wait for its thread to exit.

        A refresh callback may call this on the serve thread itself
        (``on_refresh`` runs inside the flush without delivery workers): a thread
        cannot join itself, and need not — the loop sees it was replaced
        as soon as the flush that ran the callback returns.
        """
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._wakeup.set()  # hasten the loop's exit check
        if thread is not threading.current_thread():
            thread.join(timeout=10)

    def close(self) -> None:
        """Stop for good and let go of the session, which holds this
        loop (the session's ``close()`` calls it last)."""
        self.stop()
        self._session = None

    def wake(self) -> None:
        """A modification dirtied a plan: flush after the next window
        (nothing to do while no loop runs — start() clears the event)."""
        if self._thread is not None:
            self._wakeup.set()

    # ------------------------------------------------------------------
    # Debounce policy
    # ------------------------------------------------------------------

    def debounce_for_depth(self, depth: int) -> float:
        """The sleep window for one observed queue *depth*.

        Linear between the band edges, saturating at ``queue_capacity``;
        a fixed window (``low == high``) comes back unchanged.
        """
        low, high = self._band
        if depth <= 0 or high <= low:
            return low
        if depth >= self._capacity:
            return high
        return low + (high - low) * (depth / self._capacity)

    def current_debounce(self) -> float:
        """The window the loop would sleep right now (a fixed window is
        returned without probing the queues at all, and a closed
        session's floor: nothing is queued)."""
        low, high = self._band
        session = self._session
        if low == high or session is None:
            return low
        return self.debounce_for_depth(session._queue_depth())

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _run(self) -> None:
        me = threading.current_thread()
        while self._thread is me:
            # No timeout: an idle database costs nothing — the only
            # wakers are modification events and stop() (which sets the
            # event after replacing the thread).
            self._wakeup.wait()
            if self._thread is not me:
                return
            window = self.current_debounce()
            if window:
                time.sleep(window)
            # Clear *before* flushing: an event that lands after the
            # clear re-sets the flag and the next iteration flushes it —
            # wakeups are never lost, at worst coalesced (which is the
            # point of the debounce).
            self._wakeup.clear()
            if self._thread is not me:
                # stop() raced the debounce window and its wakeup was
                # just cleared — exit now rather than blocking on an
                # event nobody will ever set again.
                return
            try:
                self._session.flush()
            except Exception as exc:  # noqa: BLE001 — the loop must keep serving
                if self._session.closed:  # closed under us
                    return
                self._session._refresh_escaped("", exc)
