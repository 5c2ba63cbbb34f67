"""Metric correctness under concurrency.

The registry must not lose increments under thread contention, and the
collector-backed session metrics must equal the ground-truth event counts
after a writer/subscriber churn — not merely be "close".
"""

import threading

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.obs.registry import Registry
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def _total(snapshot, name):
    family = snapshot.get(name)
    if family is None:
        return 0.0
    return sum(sample["value"] for sample in family["samples"])


class TestRegistryPrimitives:
    N_THREADS = 8
    INCS_PER_THREAD = 10_000

    def test_counter_increments_are_not_lost(self):
        registry = Registry()
        counter = registry.counter("repro_contended_total")
        barrier = threading.Barrier(self.N_THREADS)

        def hammer():
            barrier.wait()
            for _ in range(self.INCS_PER_THREAD):
                counter.inc()

        threads = [
            threading.Thread(target=hammer) for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert counter.value == self.N_THREADS * self.INCS_PER_THREAD

    def test_labeled_children_are_exact_under_contention(self):
        registry = Registry()
        counter = registry.counter("repro_labeled_total", "", ("table",))
        barrier = threading.Barrier(self.N_THREADS)

        def hammer(label):
            barrier.wait()
            for _ in range(self.INCS_PER_THREAD):
                counter.labels(label).inc()

        threads = [
            threading.Thread(target=hammer, args=(f"t{index % 2}",))
            for index in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert counter.labels("t0").value == 4 * self.INCS_PER_THREAD
        assert counter.labels("t1").value == 4 * self.INCS_PER_THREAD
        assert counter.value == self.N_THREADS * self.INCS_PER_THREAD


class TestChurnGroundTruth:
    """8 writers × 32 subscribers; counters equal ground-truth counts."""

    N_WRITERS = 8
    N_SUBSCRIBERS = 32
    WRITES_PER_WRITER = 40

    def _database(self):
        db = Database("metrics-churn")
        r = db.create_table("R", Schema.of("K", ("VT", "interval")))
        s = db.create_table("S", Schema.of("K", ("VT", "interval")))
        for i in range(24):
            r.insert(i % 6, until_now(i % 10))
            s.insert(i % 6, until_now(i % 10 + 1))
        return db

    def _plans(self):
        return [
            scan("R").where(col("K") == lit(1)),
            scan("R").select_columns("K"),
            scan("R").join(
                scan("S"),
                on=col("R.K") == col("S.K"),
                left_name="R",
                right_name="S",
            ),
            scan("R").union(scan("S")),
        ]

    def test_registry_totals_equal_ground_truth(self):
        db = self._database()
        session = LiveSession(
            db,
            delivery_workers=4,
            backpressure="block",
            queue_capacity=256,
        )
        plans = self._plans()
        subscriptions = [
            session.subscribe(
                plans[index % len(plans)],
                on_refresh=lambda event: None,
                name=f"churn-{index}",
            )
            for index in range(self.N_SUBSCRIBERS)
        ]
        session.serve(debounce=0.001)

        # current_insert only: every write is exactly one change event.
        def writer(seed: int) -> None:
            for i in range(self.WRITES_PER_WRITER):
                key = (seed + i) % 6
                at = 100 + seed * self.WRITES_PER_WRITER + i
                table = "R" if i % 2 == 0 else "S"
                current_insert(db.table(table), (key,), at=at)

        threads = [
            threading.Thread(target=writer, args=(seed,))
            for seed in range(self.N_WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "writer thread hung"
        session.stop_serving()
        session.flush()
        assert session.bus.drain(timeout=30)

        snapshot = session.metrics.snapshot()
        ground_truth_events = self.N_WRITERS * self.WRITES_PER_WRITER
        assert _total(snapshot, "repro_live_events_total") == (
            ground_truth_events
        )
        # The registry series must equal the stats() values under the
        # same canonical names — one snapshot, no drift between the two
        # surfaces.
        stats = session.stats()
        for name in (
            "repro_live_events_total",
            "repro_live_flushes_total",
            "repro_live_delta_refreshes_total",
            "repro_live_refresh_errors_total",
            "repro_serve_queued_notifications_total",
            "repro_serve_delivered_notifications_total",
            "repro_serve_dropped_notifications_total",
        ):
            assert _total(snapshot, name) == stats[name], name
        assert stats["repro_live_refresh_errors_total"] == 0
        assert stats["repro_serve_dropped_notifications_total"] == 0
        # Lossless pipeline: everything queued was delivered.
        assert _total(
            snapshot, "repro_serve_delivered_notifications_total"
        ) == _total(snapshot, "repro_serve_queued_notifications_total")
        assert _total(snapshot, "repro_serve_delivery_backlog") == 0
        assert _total(snapshot, "repro_live_subscriptions") == (
            self.N_SUBSCRIBERS
        )
        # Freshness accounting is exact: one histogram observation per
        # completed delivery — every delivered notification carried its
        # oldest coalesced commit stamp through the whole pipeline.
        freshness = snapshot["repro_freshness_seconds"]
        freshness_count = sum(
            sample["value"]["count"] for sample in freshness["samples"]
        )
        assert freshness_count == stats[
            "repro_serve_delivered_notifications_total"
        ]
        observed_subscriptions = {
            sample["labels"]["subscription"]
            for sample in freshness["samples"]
        }
        assert observed_subscriptions <= {
            f"churn-{index}" for index in range(self.N_SUBSCRIBERS)
        }
        # Drained pipeline: no commit is pending anywhere, so every
        # staleness gauge is back to zero.
        staleness = session.subscription_staleness()
        assert set(staleness) == {
            f"churn-{index}" for index in range(self.N_SUBSCRIBERS)
        }
        assert all(age == 0.0 for age in staleness.values()), staleness
        staleness_samples = snapshot[
            "repro_subscription_staleness_seconds"
        ]["samples"]
        assert len(staleness_samples) == self.N_SUBSCRIBERS
        assert all(
            sample["value"] == 0.0 for sample in staleness_samples
        )
        for subscription in subscriptions:
            subscription.close()
        session.close()
