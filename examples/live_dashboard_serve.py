"""The live dashboard, concurrently: writers, serve loop, delivery workers.

``live_dashboard.py`` shows the single-threaded live engine; this variant
turns on the serving layer (:mod:`repro.serve`) and drives it the way a
deployment would:

* **4 writer threads** hammer the bug table with current inserts/deletes
  (the database write lock serializes them; every write is one typed
  change event);
* the session runs **4 delivery workers** (threaded fan-out into
  mailboxes of 8 that merge when full — a slow dashboard client receives
  fewer, merged notifications instead of stalling everyone);
* :meth:`~repro.live.SubscriptionManager.serve` flushes in the
  background, debounced, woken only by modifications — the dashboards
  never poll and the engine never recomputes because time passed.

Run with::

    python examples/live_dashboard_serve.py
"""

import threading
import time

from repro.datasets import SelectionWorkload, generate_mozilla, last_tenth
from repro.datasets import mozilla as mozilla_module
from repro.engine.modifications import current_delete, current_insert
from repro.live import LiveSession

N_CLIENTS = 40
N_WRITERS = 4
WRITES_PER_WRITER = 25


def main() -> None:
    dataset = generate_mozilla(5_000)
    db = dataset.as_database()
    workload = SelectionWorkload(
        "B",
        "overlaps",
        last_tenth(mozilla_module.HISTORY_START, mozilla_module.HISTORY_END),
    )

    session = LiveSession(
        db,
        delivery_workers=4,
        queue_capacity=8,
    )
    pushes = []
    push_lock = threading.Lock()

    def on_refresh(event):
        with push_lock:
            pushes.append(event)

    # Client 0 keeps the rows of its dashboard current instead of
    # re-reading them: its callback folds each push's ``changes_at`` into
    # a ``BoundRows`` — O(|delta|) per push, also for a push that merged
    # several refreshes.  A subscriber's callbacks run in order on one
    # delivery worker, so the fold needs no lock of its own.
    folded = []

    def fold_into_dashboard(event):
        folded.append(dashboard.apply(event))
        on_refresh(event)

    subscriptions = [
        session.subscribe(
            workload.plan(),
            on_refresh=on_refresh if client else fold_into_dashboard,
            reference_time=mozilla_module.HISTORY_END - 10 * client,
            name=f"client-{client}",
        )
        for client in range(N_CLIENTS)
    ]
    # Bound once, here, before the first push can be on its way.
    dashboard = subscriptions[0].bound_rows()
    stats = session.stats()
    print(
        f"{N_CLIENTS} clients share {stats['repro_live_shared_results']} materialization "
        f"({stats['repro_live_cache_hits_total']} cache hits); serving with "
        f"{stats['delivery_workers']} delivery workers"
    )

    session.serve(debounce=0.005)
    bugs = db.table("B")

    def writer(seed: int) -> None:
        base = 20_000_000 + seed * WRITES_PER_WRITER
        for i in range(WRITES_PER_WRITER):
            bug_id = base + i
            row = ("Threaded", "Dashboard", "Linux", f"writer {seed} burst {i}")
            current_insert(
                bugs, (bug_id,) + row, at=mozilla_module.HISTORY_END - 5
            )
            if i % 5 == 4:
                current_delete(
                    bugs,
                    lambda r, b=bug_id: r.values[0] == b,
                    at=mozilla_module.HISTORY_END - 3,
                )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=writer, args=(seed,)) for seed in range(N_WRITERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    write_seconds = time.perf_counter() - started
    print(
        f"\n{N_WRITERS} writer threads issued "
        f"{N_WRITERS * WRITES_PER_WRITER} modifications in "
        f"{write_seconds * 1e3:.1f} ms while the serve loop flushed behind them"
    )

    session.stop_serving()
    session.flush()  # whatever the loop had not picked up yet
    session.bus.drain(timeout=10)
    final = session.stats()
    with push_lock:
        n_pushes = len(pushes)
    print(
        f"flushes: {final['repro_live_flushes_total']} (debounce-coalesced from "
        f"{final['repro_live_events_total']} events), refreshes by delta: "
        f"{final['repro_live_delta_refreshes_total']}"
    )
    print(
        f"pushes: {n_pushes} delivered / {final['repro_serve_queued_notifications_total']} "
        f"queued, {final['repro_serve_coalesced_notifications_total']} coalesced in "
        f"full mailboxes, {final['repro_serve_dropped_notifications_total']} dropped"
    )
    expected = db.query(workload.plan())
    assert all(
        frozenset(subscription.result.tuples) == frozenset(expected.tuples)
        for subscription in subscriptions
    )
    watcher = subscriptions[0]
    assert dashboard.rows == expected.instantiate(watcher.reference_time)
    print(
        f"{watcher.name} folded {len(folded)} pushes "
        f"(+{sum(len(appeared) for appeared, _ in folded)}"
        f"/-{sum(len(vanished) for _, vanished in folded)} rows) into the "
        f"{len(dashboard.rows)} rows it shows, binding the whole result "
        f"{watcher.stats.instantiations} time(s) — when it subscribed"
    )
    print(
        "every dashboard client converged on the exact ongoing result — "
        "served concurrently, recomputed only on modification"
    )
    session.close()


if __name__ == "__main__":
    main()
