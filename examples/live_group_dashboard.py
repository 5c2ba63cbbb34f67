"""A live *grouped* dashboard: subscribable GROUP BY with per-group deltas.

Aggregate queries compile to plans now (:class:`repro.engine.plan.Aggregate`),
so a ``SELECT region, COUNT(*) ... GROUP BY region`` dashboard subscribes
like any other ongoing query: the grouped counts are *ongoing integers* —
functions of the reference time — so the panel stays correct as time
passes without a single re-evaluation, and a write refreshes the result
by folding **its own events into the touched group's accumulators** —
whatever the group's size.

Run with::

    python examples/live_group_dashboard.py
"""

import random
import time

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.live import LiveSession
from repro.relational.schema import Schema

REGIONS = ("emea", "amer", "apac", "latam")
N_SESSIONS = 20_000
HISTORY = 1_000


def main() -> None:
    random.seed(7)
    db = Database("sessions")
    table = db.create_table(
        "S", Schema.of("SID", "Region", ("VT", "interval"))
    )
    table.insert_many(
        (i, REGIONS[i % len(REGIONS)], until_now(random.randrange(HISTORY)))
        for i in range(N_SESSIONS)
    )

    session = LiveSession(db)
    pushes = []
    sub = session.subscribe_sql(
        "SELECT Region, COUNT(*) AS active FROM S GROUP BY Region",
        on_refresh=pushes.append,
        reference_time=HISTORY,
        name="ops-dashboard",
    )
    print(f"subscribed: {len(sub.result)} group rows, each an ongoing count")

    # Time passes: the grouped counts are piecewise-linear functions of
    # the reference time — serving any rt is pure instantiation.
    for rt in (HISTORY, HISTORY + 500):
        panel = dict(sorted(sub.instantiate(rt)))
        print(f"  rt={rt}: {panel}")

    # A single sign-in lands in one region...
    started = time.perf_counter()
    table.insert(N_SESSIONS, "apac", until_now(HISTORY + 1))
    session.flush()
    flush_ms = (time.perf_counter() - started) * 1e3
    stats = session.stats()
    print(
        f"one insert: flushed in {flush_ms:.2f} ms — "
        f"delta_refreshes={stats['repro_live_delta_refreshes_total']}, "
        f"full_refreshes={stats['repro_live_full_refreshes_total']} "
        f"(only the 'apac' group's accumulators moved)"
    )
    print(f"  push carried result delta: {pushes[-1].delta}")
    print(f"  apac now: {dict(sub.instantiate(HISTORY + 2))['apac']} sessions")

    # A second dashboard with the same SQL shares the materialization.
    twin = session.subscribe_sql(
        "SELECT Region, COUNT(*) AS active FROM S GROUP BY Region",
        name="exec-dashboard",
    )
    stats = session.stats()
    print(
        f"second dashboard attached: shared_results={stats['repro_live_shared_results']}, "
        f"cache_hits={stats['repro_live_cache_hits_total']} (same fingerprint, zero new work)"
    )
    assert twin.fingerprint == sub.fingerprint
    session.close()


if __name__ == "__main__":
    main()
