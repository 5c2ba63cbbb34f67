"""repro.serve — the concurrent serving layer over the live engine.

The paper's validity property makes ongoing results *servable at scale*:
once materialized, a result refreshes only on explicit modifications, so
the expensive part of serving millions of subscribers is fan-out — not
recomputation.  This package is that delivery machinery, layered on
:mod:`repro.live`:

* :mod:`repro.serve.queues` — per-subscriber bounded
  :class:`Mailbox` queues; a full one merges the notifications'
  result-level deltas at once and never evicts, so skipped deliveries
  lose no information and the publisher never waits;
* :mod:`repro.serve.bus` — the :class:`EventBus`, the one bus, keyed by
  subscription: a notification has one addressee, so each subscription
  has at most one mailbox and ``publish`` reaches that one or none.  It
  calls the listener itself, or — given delivery workers — enqueues, so
  one slow subscriber can no longer stall a flush.

None of this is a second pipeline.  A live session
(:class:`~repro.live.manager.SubscriptionManager`) is always
registration → intake → flush → delivery; one thread refreshes (the
caller's, or the serve loop's), and the constructor only chooses which
threads the last stage runs on::

    session = LiveSession(
        db,
        delivery_workers=4,   # callbacks on worker threads, not in the flush
        queue_capacity=64,    # per mailbox; a full one merges into its tail
    )
    session.serve(debounce=0.005)   # background modification-driven flushing
    ...
    session.close()                 # drains queues, joins all workers

The session keeps one :class:`~repro.engine.maintenance.IncrementalMaintainer`
per plan, one routing map, one lock and one bus whatever it is given
here; without workers the bus queues nothing, so its queueing questions
(backlog, drain, pending capture) have empty answers rather than a
second implementation.  A refresh that fails is counted and logged by
the session; a callback that raises is counted and logged by the bus —
neither is published anywhere.

Concurrency invariants (tested in ``tests/serve/``):

* **exactly-once, in-order per subscription** — a subscription's
  notifications are produced by the one thread that runs the flush
  round and delivered by the one delivery worker owning its mailbox,
  both FIFO;
* **no torn reads** — results are immutable relations swapped
  atomically; full re-evaluations hold the database write lock
  (:attr:`~repro.engine.database.Database.lock`), so concurrently
  written rows are either in the re-read tables or in the pending
  deltas, never both, and never lost;
* **no clock** — the serve loop's debounce only *coalesces* wakeups
  caused by modifications; nothing refreshes because time passed.
"""

from repro.serve.bus import EventBus
from repro.serve.queues import Mailbox

__all__ = ["EventBus", "Mailbox"]
