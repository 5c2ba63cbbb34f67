"""Per-subscriber bounded mailboxes that merge when full.

The serving layer never lets one slow client dictate the pace of the
whole flush pipeline: every subscriber owns a bounded :class:`Mailbox`,
and a put into a full one merges the newest item into the queue tail
(:meth:`~repro.live.events.RefreshNotification.coalesce_with` merges
their result-level deltas) at once.  A mailbox holds one subscription's
notifications, so any two of them merge: a full queue keeps *all*
information in fewer messages, and the publisher never waits for a
subscriber.  Only a closed mailbox (its addressee left) discards.  A
caller who wants every notification delivered separately gives the
mailbox room for them (a larger capacity).

A mailbox is pinned to exactly one delivery worker
(:mod:`repro.serve.bus`), which is what makes delivery **in-order per
subscription** without any global ordering machinery; the worker's
condition variable doubles as the mailbox lock, so producers and the
consumer synchronize on one primitive.  A bus without workers hands
each payload straight to the listener and keeps the mailbox for its
counters only — the capacity is checked all the same
(:func:`check_capacity`): it is persisted with a subscription, and a
later session may well have workers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

__all__ = ["Mailbox"]

#: Outcomes of :meth:`Mailbox.put` (for stats and tests).  The payload is
#: accepted in every case except ``REJECTED`` (a closed mailbox).
QUEUED = "queued"
COALESCED = "coalesced"
REJECTED = "rejected"


def check_capacity(capacity: int) -> None:
    """Reject a mailbox size no mailbox accepts — the one check,
    whichever thread will end up delivering."""
    if capacity < 1:
        raise ValueError("mailbox capacity must be at least 1")


class Mailbox:
    """One subscriber's bounded delivery queue.

    All state is guarded by *condition* — the owning delivery worker's
    condition variable, so the worker's ready queue and its mailboxes
    change under one lock.  The mailbox never runs listener code itself;
    it only stores payloads.
    """

    __slots__ = (
        "listener",
        "capacity",
        "condition",
        "scheduled",
        "closed",
        "queued",
        "delivered",
        "dropped",
        "coalesced",
        "errors",
        "_items",
        # Set by the bus at subscription time.
        "key",
        "_worker",
    )

    def __init__(
        self,
        listener: Callable[[Any], None],
        *,
        condition: threading.Condition,
        capacity: int = 64,
    ):
        check_capacity(capacity)
        self.listener = listener
        self.capacity = capacity
        self.condition = condition
        #: ``True`` while the mailbox sits in its worker's ready queue.
        self.scheduled = False
        self.closed = False
        # Counters (guarded by the condition like everything else).
        self.queued = 0
        self.delivered = 0
        self.dropped = 0
        self.coalesced = 0
        self.errors = 0
        self._items: Deque[Any] = deque()
        self.key: Any = None
        self._worker = None

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, payload: Any) -> str:
        """Admit *payload* without waiting.

        Returns the outcome: ``"queued"`` (a new queue slot),
        ``"coalesced"`` (merged into the waiting tail item — counted in
        ``coalesced``, *not* in ``queued``, so the two counters partition
        the admitted payloads), or ``"rejected"`` (the mailbox is closed;
        the payload is discarded and counted as dropped).

        Must be called **with the condition held** when the caller
        already holds it, or unheld otherwise — the method acquires it
        itself.
        """
        with self.condition:
            if self.closed:
                self.dropped += 1
                return REJECTED
            if len(self._items) >= self.capacity:
                self._items[-1] = self._items[-1].coalesce_with(payload)
                # A merge occupies no new queue slot: count it in
                # ``coalesced`` only, or ``queued`` double-counts
                # admitted notifications.
                self.coalesced += 1
                return COALESCED
            self._items.append(payload)
            self.queued += 1
            return QUEUED

    # ------------------------------------------------------------------
    # Durability side (checkpoint capture / recovery restore)
    # ------------------------------------------------------------------

    def capture(self) -> Tuple[Any, ...]:
        """Non-destructive snapshot of the queued payloads, oldest first.

        The checkpoint capture path: the durable layer records each
        subscriber's undelivered coalesced notifications here, while the
        items stay queued for normal delivery.
        """
        with self.condition:
            return tuple(self._items)

    def restore(self, items: Tuple[Any, ...]) -> int:
        """Re-enqueue previously captured payloads (recovery path).

        Appends behind anything already queued, never merging — a
        restore may transiently exceed ``capacity``; the next ordinary
        :meth:`put` merges into the tail as usual.  Counted in
        ``queued``.  Returns how many were accepted (0 on a closed
        mailbox).  The caller must schedule the owning
        worker afterwards (:meth:`~repro.serve.bus.EventBus.publish`
        does this for ordinary traffic).
        """
        accepted = tuple(items)
        if not accepted:
            return 0
        with self.condition:
            if self.closed:
                return 0
            self._items.extend(accepted)
            self.queued += len(accepted)
            return len(accepted)

    # ------------------------------------------------------------------
    # Unsubscribe side (called with the condition held)
    # ------------------------------------------------------------------

    def _close(self) -> int:
        """Drop all queued items; returns how many were discarded."""
        discarded = len(self._items)
        self._items.clear()
        self.closed = True
        self.dropped += discarded
        return discarded

    def __len__(self) -> int:
        with self.condition:
            return len(self._items)

    def oldest_commit_age(self, now: Optional[float] = None) -> Optional[float]:
        """Age (seconds) of the oldest queued payload that carries a
        commit stamp, or ``None`` when nothing stamped is pending.

        Computed only when asked — the introspection behind the
        ``/subscriptions`` endpoint and the staleness gauges — so the
        delivery hot path pays nothing for it.
        """
        if now is None:
            now = time.monotonic()
        oldest: Optional[float] = None
        with self.condition:
            for item in self._items:
                commit = getattr(item, "commit", None)
                if commit is None:
                    continue
                age = now - commit.at
                if oldest is None or age > oldest:
                    oldest = age
        return oldest

    def __repr__(self) -> str:
        return (
            f"Mailbox(capacity={self.capacity}, "
            f"queued={self.queued}, delivered={self.delivered}, "
            f"dropped={self.dropped}, coalesced={self.coalesced})"
        )
