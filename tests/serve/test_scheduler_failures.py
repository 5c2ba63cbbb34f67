"""Shard-worker crash path: an exception escaping the refresh callable
must be counted, announced, and must never kill the shard thread."""

import threading

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.live import LiveSession
from repro.live.events import EventBus
from repro.live.manager import SubscriptionManager
from repro.relational.schema import Schema
from repro.serve.scheduler import FlushScheduler


def _database():
    db = Database("failures")
    table = db.create_table("R", Schema.of("K", ("VT", "interval")))
    table.insert(1, until_now(10))
    return db


class TestSchedulerFailurePath:
    def test_escaped_exception_counted_and_reported(self):
        seen = []
        boom = RuntimeError("refresh machinery broke")

        def refresh(fingerprint):
            if fingerprint == "doomed":
                raise boom
            return True

        scheduler = FlushScheduler(
            refresh, shards=2, on_error=lambda *args: seen.append(args)
        )
        try:
            scheduler.flush(["doomed", "fine"], timeout=10)
            assert sum(scheduler.failure_counts()) == 1
            assert seen == [(scheduler.shard_of("doomed"), "doomed", boom)]
        finally:
            scheduler.close()

    def test_shard_keeps_draining_after_a_failure(self):
        calls = []

        def refresh(fingerprint):
            calls.append(fingerprint)
            if len(calls) == 1:
                raise RuntimeError("first job dies")
            return True

        scheduler = FlushScheduler(refresh, shards=1)
        try:
            scheduler.flush(["a"], timeout=10)
            refreshed = scheduler.flush(["b"], timeout=10)
            assert refreshed == 1
            assert calls == ["a", "b"]
            assert scheduler.failure_counts() == (1,)
        finally:
            scheduler.close()

    def test_broken_error_hook_does_not_kill_the_shard(self):
        def refresh(fingerprint):
            raise RuntimeError("boom")

        def hook(shard, fingerprint, exc):
            raise ValueError("the hook itself is broken")

        scheduler = FlushScheduler(refresh, shards=1, on_error=hook)
        try:
            scheduler.flush(["a"], timeout=10)
            assert scheduler.failure_counts() == (1,)
            assert not scheduler.backlog()
        finally:
            scheduler.close()


class TestManagerIntegration:
    def test_failure_bumps_stat_and_announces(self, monkeypatch):
        def broken(self, fingerprint):
            raise RuntimeError("machinery failure past the isolation layer")

        # Before the session exists: its scheduler binds the routine once.
        monkeypatch.setattr(SubscriptionManager, "_refresh_one", broken)
        db = _database()
        session = LiveSession(db, flush_shards=2)
        announced = []
        delivered = threading.Event()

        def on_listener_error(event):
            announced.append(event)
            delivered.set()

        session.bus.subscribe(
            EventBus.LISTENER_ERROR_TOPIC, on_listener_error
        )
        sub = session.subscribe_sql(
            "SELECT * FROM R", on_refresh=lambda event: None, name="s1"
        )
        db.table("R").insert(2, until_now(20))
        session.flush()
        assert delivered.wait(timeout=10)
        assert session.stats()["repro_shard_worker_failures_total"] == 1
        assert sum(session.stats()["shard_failures"]) == 1
        source, detail, exc = announced[0]
        assert source == "flush-shard"
        assert detail.startswith("shard-")
        assert sub.fingerprint[:12] in detail
        assert isinstance(exc, RuntimeError)
        monkeypatch.undo()
        session.close()

    def test_failure_sample_rendered_with_shard_label(self, monkeypatch):
        def broken(self, fingerprint):
            raise RuntimeError("boom")

        monkeypatch.setattr(SubscriptionManager, "_refresh_one", broken)
        db = _database()
        session = LiveSession(db, flush_shards=2)
        session.subscribe_sql(
            "SELECT * FROM R", on_refresh=lambda event: None, name="s1"
        )
        db.table("R").insert(2, until_now(20))
        session.flush()
        monkeypatch.undo()
        rendered = session.metrics.render_prometheus()
        assert 'repro_shard_worker_failures_total{shard="' in rendered
        session.close()
