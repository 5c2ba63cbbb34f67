"""The operations plane, end to end: SLO, /metrics endpoint, EXPLAIN.

``live_dashboard_serve.py`` shows the serving layer under load; this
variant runs the same kind of deployment with the PR 8 operations plane
wired in:

* the session carries a :class:`~repro.obs.FreshnessSLO` — every
  delivered notification is stamped at write time, so the SLO window
  sees true write→deliver latency and ``/health`` reports the error
  budget (the SLO only observes: it does not steer ``serve()``);
* an :class:`~repro.obs.ObsServer` exposes the whole plane over HTTP on
  an ephemeral port — the script scrapes its own ``/metrics``,
  ``/health``, ``/subscriptions``, and ``/explain`` endpoints exactly
  the way Prometheus or an operator would;
* ``/explain`` shows each plan's refresh totals and per-operator
  counters, including the access path each probe took.

Run with::

    python examples/live_ops_endpoint.py
"""

import json
import threading
import urllib.request

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.obs import FreshnessSLO, ObsServer
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

N_WRITERS = 2
WRITES_PER_WRITER = 150


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def main() -> None:
    db = Database("ops")
    orders = db.create_table(
        "Orders", Schema.of("ID", "STATUS", ("VT", "interval"))
    )
    orders.insert_many(
        (i, "open" if i % 3 else "done", until_now(i % 7))
        for i in range(2_000)
    )

    # A 250ms write→deliver target: generous for this workload, so the
    # endpoint reports a healthy budget — lower it to watch /health
    # flip to 503.
    session = LiveSession(
        db,
        delivery_workers=2,
        queue_capacity=8,
        freshness_slo=FreshnessSLO(0.25, objective=0.95, window=128),
    )
    delivered = []
    lock = threading.Lock()

    def on_refresh(event):
        with lock:
            delivered.append(event)

    open_orders = session.subscribe(
        scan("Orders").where(col("STATUS") == lit("open")),
        on_refresh=on_refresh,
        name="open-orders",
    )
    session.subscribe(
        scan("Orders").select_columns("ID"),
        on_refresh=on_refresh,
        name="order-ids",
    )
    session.serve(debounce_min=0.001, debounce_max=0.05)

    def writer(seed: int) -> None:
        for i in range(WRITES_PER_WRITER):
            key = 2_000 + seed * WRITES_PER_WRITER + i
            at = 100 + i
            if i % 5 == 4:
                current_delete(
                    db.table("Orders"),
                    lambda row, k=key - 2: row.values[0] == k,
                    at=at,
                )
            else:
                current_insert(
                    db.table("Orders"), (key, "open"), at=at
                )

    with ObsServer(session) as obs:
        print(f"operations endpoint listening on {obs.url}\n")
        threads = [
            threading.Thread(target=writer, args=(seed,))
            for seed in range(N_WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        session.stop_serving()
        session.flush()
        session.bus.drain(timeout=30)

        health = json.loads(_get(obs.url + "/health"))
        print(f"/health          → {health['status']}")
        print(f"  slo            {health['slo']}")
        print(f"  freshness p99  {health['freshness']['p99']}")
        print(f"  staleness      {health['staleness_seconds']}")

        subs = json.loads(_get(obs.url + "/subscriptions"))
        for entry in subs:
            print(
                f"/subscriptions   → {entry['name']}: "
                f"{entry['refreshes']} refreshes, "
                f"{entry['notifications']} notifications"
            )

        metrics = _get(obs.url + "/metrics")
        for line in metrics.splitlines():
            if line.startswith("repro_freshness_seconds_count"):
                print(f"/metrics         → {line}")

        explain = _get(obs.url + f"/explain/{open_orders.fingerprint[:12]}")
        print("\n/explain/" + open_orders.fingerprint[:12])
        print(explain)

    with lock:
        print(f"{len(delivered)} notifications delivered")
    session.close()


if __name__ == "__main__":
    main()
