"""A live dashboard: many subscribers, one ongoing result, zero polling.

The live engine (:mod:`repro.live`) turns the paper's headline property
into a push-based service: however many dashboard clients watch the same
ongoing query, the engine materializes it **once** (plans are fingerprinted
and shared), serves every client's reference time by cheap instantiation,
and re-evaluates only when a base table is explicitly modified — a whole
burst of modifications coalesces into a single refresh per affected plan.

Run with::

    python examples/live_dashboard.py

For the concurrent variant — writer threads, background flushing,
threaded delivery into mailboxes that merge when full — see
``live_dashboard_serve.py``.
"""

import time

from repro import fmt_point
from repro.datasets import SelectionWorkload, generate_mozilla, last_tenth
from repro.datasets import mozilla as mozilla_module
from repro.engine.modifications import current_delete, current_insert
from repro.live import LiveSession


N_CLIENTS = 40


def main() -> None:
    dataset = generate_mozilla(5_000)
    db = dataset.as_database()
    workload = SelectionWorkload(
        "B",
        "overlaps",
        last_tenth(mozilla_module.HISTORY_START, mozilla_module.HISTORY_END),
    )

    session = LiveSession(db)
    pushes = []

    # Every dashboard client subscribes to the *same* query at its own
    # reference time.  The plans are structurally equal, so the session
    # materializes exactly one shared ongoing result.
    started = time.perf_counter()
    subscriptions = [
        session.subscribe(
            workload.plan(),
            on_refresh=pushes.append,
            reference_time=mozilla_module.HISTORY_END - 10 * client,
            name=f"client-{client}",
        )
        for client in range(N_CLIENTS)
    ]
    subscribe_seconds = time.perf_counter() - started
    stats = session.stats()
    print(
        f"{N_CLIENTS} clients subscribed in {subscribe_seconds * 1e3:.1f} ms: "
        f"{stats['repro_live_evaluations_total']} evaluation(s), "
        f"{stats['repro_live_cache_hits_total']} cache hits, "
        f"{stats['repro_live_shared_results']} shared result(s)"
    )

    # Time passes: every client is served by instantiation, no re-run.
    started = time.perf_counter()
    for subscription in subscriptions:
        rows = subscription.instantiate(subscription.reference_time)
    serve_seconds = time.perf_counter() - started
    print(
        f"served all {N_CLIENTS} clients by instantiation in "
        f"{serve_seconds * 1e3:.1f} ms "
        f"(evaluations still {session.stats()['repro_live_evaluations_total']})"
    )

    # A burst of explicit modifications arrives...
    bugs = db.table("B")
    demo_row = ("Demo", "Dashboard", "Linux", "live engine demo")
    current_insert(bugs, (10_000_000,) + demo_row, at=mozilla_module.HISTORY_END - 5)
    current_insert(bugs, (10_000_001,) + demo_row, at=mozilla_module.HISTORY_END - 4)
    current_delete(
        bugs,
        lambda row: row.values[0] == 10_000_000,
        at=mozilla_module.HISTORY_END - 2,
    )
    print(f"\n3 modifications arrived; dirty plans: {session.pending}")

    # One client keeps its bound rows current instead of re-reading them:
    # one bind now, then O(|delta|) per push (the fold counts — two
    # ongoing tuples may bind to the same fixed tuple at one rt).
    watcher = subscriptions[0]
    dashboard = watcher.bound_rows()

    # ...and one flush refreshes the shared result once and hands every
    # subscriber the change and the snapshot.  Nothing is bound for a
    # client until it reads: the flush costs the same for 40 clients
    # whether or not any of them ever asks for rows.
    started = time.perf_counter()
    refreshed = session.flush()
    flush_seconds = time.perf_counter() - started
    print(
        f"flush: {refreshed} re-evaluation for {N_CLIENTS} clients "
        f"({len(pushes)} pushes, none bound yet) in {flush_seconds * 1e3:.1f} ms"
    )
    example = pushes[0]
    inserted, deleted = example.changes_at()  # binds the delta only
    print(
        f"first push: +{len(inserted)}/-{len(deleted)} rows changed at "
        f"rt={fmt_point(example.reference_time)}, "
        f"coalesced tables={example.changed_tables}"
    )
    appeared, vanished = dashboard.apply(example)
    print(
        f"its dashboard folded the change (+{len(appeared)}/-{len(vanished)}) "
        f"and holds {len(dashboard.rows)} rows; reading the whole result, "
        f"example.rows, binds it once on that read: {len(example.rows)} rows, "
        f"{'equal' if example.rows == dashboard.rows else 'DIFFERENT'}"
    )
    print(
        f"O(|result|) binds so far: {watcher.stats.instantiations} for "
        f"{watcher.name} (serve, dashboard, rows), "
        f"{subscriptions[1].stats.instantiations} for {subscriptions[1].name} "
        f"(serve only)"
    )

    final = session.stats()
    print(
        f"\nsession stats: {final['repro_live_evaluations_total']} evaluations total for "
        f"{final['repro_live_subscriptions']} subscriptions — "
        f"a Clifford-style service would have re-run the query "
        f"{N_CLIENTS * 2} times for the same traffic"
    )
    session.close()


if __name__ == "__main__":
    main()
