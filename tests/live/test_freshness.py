"""Commit-stamp plumbing: write → dirty → refresh → delivered freshness."""

import time

import pytest

from repro.core.interval import until_now
from repro.engine.database import CommitStamp, Database, Table
from repro.engine.modifications import current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.live.events import RefreshNotification
from repro.obs.slo import FreshnessSLO
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def _database():
    db = Database("freshness")
    table = db.create_table("T", Schema.of("K", ("VT", "interval")))
    table.insert(1, until_now(5))
    return db


class TestCommitStamps:
    def test_every_modification_batch_is_stamped(self):
        db = _database()
        table = db.table("T")
        first = table.last_commit
        assert isinstance(first, CommitStamp)
        table.insert(2, until_now(6))
        second = table.last_commit
        assert second.tick > first.tick
        assert second.at >= first.at
        assert db.last_commit == second

    def test_ticks_are_database_wide_monotonic(self):
        db = _database()
        other = db.create_table("U", Schema.of("K", ("VT", "interval")))
        table = db.table("T")
        ticks = []
        for index in range(3):
            table.insert(10 + index, until_now(7))
            ticks.append(table.last_commit.tick)
            other.insert(10 + index, until_now(7))
            ticks.append(other.last_commit.tick)
        assert ticks == sorted(ticks)
        assert len(set(ticks)) == len(ticks)

    def test_standalone_table_stamps_too(self):
        table = Table("solo", Schema.of("K", ("VT", "interval")))
        assert table.last_commit is None
        table.insert(1, until_now(5))
        assert table.last_commit is not None
        assert table.last_commit.tick == 1

    def test_age_measures_from_the_stamp(self):
        stamp = CommitStamp(1, time.monotonic() - 1.5)
        assert stamp.age() == pytest.approx(1.5, abs=0.25)
        assert stamp.age(stamp.at + 2.0) == pytest.approx(2.0)

    def test_stamp_lands_before_listeners_fire(self):
        db = _database()
        seen = []
        db.add_delta_listener(
            lambda table, version, delta: seen.append(db.last_commit)
        )
        db.table("T").insert(2, until_now(6))
        assert seen and seen[0] == db.table("T").last_commit


class TestEventPlumbing:
    def test_coalescing_keeps_the_oldest_stamp(self):
        older = CommitStamp(1, 100.0)
        newer = CommitStamp(5, 200.0)
        sub = object.__new__(LiveSession)  # placeholder identity only
        first = RefreshNotification(
            subscription=sub, result=None, commit=newer
        )
        second = RefreshNotification(
            subscription=sub, result=None, commit=older
        )
        merged = first.coalesce_with(second)
        assert merged.commit == older
        # A missing stamp on either side falls back to the present one.
        unstamped = RefreshNotification(subscription=sub, result=None)
        assert unstamped.coalesce_with(first).commit == newer
        assert first.coalesce_with(unstamped).commit == newer


class TestFreshnessAccounting:
    def test_sync_delivery_observes_freshness_once_per_callback(self):
        db = _database()
        slo = FreshnessSLO(10.0)
        session = LiveSession(db, freshness_slo=slo)
        try:
            received = []
            session.subscribe(
                scan("T"), on_refresh=received.append, name="sync-sub"
            )
            for offset in range(3):
                current_insert(db.table("T"), (50 + offset,), at=60 + offset)
                session.flush()
            assert len(received) == 3
            assert all(event.commit is not None for event in received)
            child = session.freshness_histogram.labels("sync-sub")
            assert child.snapshot()["count"] == 3
            assert slo.snapshot()["observed_total"] == 3
            assert slo.healthy()
        finally:
            session.close()

    def test_async_delivery_observes_after_the_callback_ran(self):
        db = _database()
        session = LiveSession(db, delivery_workers=2)
        try:
            received = []
            session.subscribe(
                scan("T"), on_refresh=received.append, name="async-sub"
            )
            current_insert(db.table("T"), (50,), at=60)
            session.flush()
            assert session.bus.drain(timeout=10)
            assert len(received) == 1
            assert received[0].commit is not None
            assert session.freshness_histogram.labels(
                "async-sub"
            ).snapshot()["count"] == 1
        finally:
            session.close()

    @pytest.mark.parametrize("delivery_workers", [0, 2])
    def test_a_raising_callback_is_not_a_fresh_delivery(self, delivery_workers):
        """A poisoned callback got nothing delivered: it adds nothing to
        ``repro_freshness_seconds_count`` or the SLO, on either delivery
        path.  Kills: hook fired in ``finally``."""
        db = _database()
        slo = FreshnessSLO(10.0)
        session = LiveSession(
            db, delivery_workers=delivery_workers, freshness_slo=slo
        )
        try:
            session.subscribe(scan("T"), on_refresh=lambda e: 1 / 0, name="poisoned")
            session.subscribe(scan("T"), on_refresh=lambda e: None, name="healthy")
            current_insert(db.table("T"), (50,), at=60)
            session.flush()
            assert session.bus.drain(timeout=10)
            counts = {
                name: session.freshness_histogram.labels(name).snapshot()["count"]
                for name in ("poisoned", "healthy")
            }
            assert counts == {"poisoned": 0, "healthy": 1}
            assert slo.snapshot()["observed_total"] == 1
            stats = session.stats()
            assert stats["repro_serve_queued_notifications_total"] == 2
            assert stats["repro_serve_delivered_notifications_total"] == 1
        finally:
            session.close()

    def test_suppressed_refreshes_observe_nothing(self):
        db = _database()
        session = LiveSession(db)
        try:
            session.subscribe(
                scan("T").where(col("K") == lit(1)),
                on_refresh=lambda event: None,
                name="quiet",
            )
            # A row the filter rejects: the refresh runs but the result
            # is unchanged → no delivery, no freshness sample.
            current_insert(db.table("T"), (99,), at=1000)
            session.flush()
            child = session.freshness_histogram.labels("quiet")
            assert child.snapshot()["count"] == 0
        finally:
            session.close()

    def test_staleness_tracks_dirty_and_drains_to_zero(self):
        db = _database()
        session = LiveSession(db)
        try:
            session.subscribe(
                scan("T"), on_refresh=lambda event: None, name="probe"
            )
            assert session.subscription_staleness() == {"probe": 0.0}
            current_insert(db.table("T"), (50,), at=60)
            before = session.subscription_staleness()["probe"]
            assert before > 0.0
            time.sleep(0.01)
            after = session.subscription_staleness()["probe"]
            assert after > before  # staleness grows while unflushed
            session.flush()
            assert session.subscription_staleness() == {"probe": 0.0}
        finally:
            session.close()

    def test_staleness_of_a_shared_name_is_its_oldest_age(self):
        """Two subscriptions under one name report one gauge: the older
        age must win, whichever subscription registered last."""
        db = _database()
        db.create_table("U", Schema.of("K", ("VT", "interval")))
        session = LiveSession(db)
        try:
            session.subscribe(scan("T"), name="twin")  # goes stale below
            session.subscribe(scan("U"), name="twin")  # stays caught up
            current_insert(db.table("T"), (50,), at=60)
            assert session.subscription_staleness()["twin"] > 0.0
        finally:
            session.close()

    def test_staleness_counts_queued_async_deliveries(self):
        db = _database()
        # One worker, and a listener that blocks until released: the
        # second notification sits in the mailbox with its stamp.
        import threading

        release = threading.Event()
        first_entered = threading.Event()

        def slow(event):
            first_entered.set()
            release.wait(timeout=30)

        session = LiveSession(db, delivery_workers=1, backpressure="block")
        try:
            session.subscribe(scan("T"), on_refresh=slow, name="slow-sub")
            current_insert(db.table("T"), (50,), at=60)
            session.flush()
            assert first_entered.wait(timeout=10)
            current_insert(db.table("T"), (51,), at=61)
            session.flush()  # delivery queues behind the blocked callback
            staleness = session.subscription_staleness()["slow-sub"]
            assert staleness > 0.0
            release.set()
            assert session.bus.drain(timeout=10)
            assert session.subscription_staleness() == {"slow-sub": 0.0}
        finally:
            release.set()
            session.close()
