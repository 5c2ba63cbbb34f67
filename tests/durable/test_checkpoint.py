"""Unit tests for atomic checkpoints (heaps, manifest, capture, crashes)."""

import json
import logging
import os
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import until_now
from repro.durable import faults, snapshot
from repro.durable.snapshot import (
    _read_heap,
    _write_heap,
    capture_subscriptions,
    deserialize_notification,
    load_latest_checkpoint,
    prune_checkpoints,
    serialize_notification,
    write_checkpoint,
)
from repro.durable.wal import WalPosition
from repro.engine.database import Database
from repro.engine.delta import Delta
from repro.engine.storage import pack_tuple
from repro.errors import DurabilityError
from repro.live.events import RefreshNotification
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import storable_rows


@pytest.fixture(autouse=True)
def _clean_crashpoints():
    faults.reset()
    yield
    faults.reset()


def _database() -> Database:
    db = Database("ckpt")
    table = db.create_table("R", Schema.of("K", ("VT", "interval")))
    for key in range(5):
        table.insert(key, until_now(10 + key))
    return db


def _packed(rows):
    return sorted(pack_tuple(row) for row in rows)


class TestHeapFiles:
    def test_roundtrip(self, tmp_path):
        rows = tuple(OngoingTuple((k, until_now(k))) for k in range(4))
        path = tmp_path / "0000.heap"
        _write_heap(path, rows)
        assert _read_heap(path) == rows

    @given(st.lists(storable_rows(), min_size=1, max_size=6).map(tuple))
    @settings(max_examples=100)
    def test_a_chunk_may_end_anywhere_inside_a_row(self, rows):
        """With 7-byte chunks a boundary falls inside a tag, a text length,
        a text body, an interval and an RT count: each must take the
        ``struct.error`` → read-more path of ``_read_heap``.  Mutant: the
        decoder indexing the tag byte (``buffer[offset]``) — an
        ``IndexError`` at the end of a chunk, which nothing catches."""
        with tempfile.TemporaryDirectory() as root, mock.patch.object(
            snapshot, "_CHUNK_BYTES", 7
        ):
            path = Path(root) / "0000.heap"
            _write_heap(path, rows)
            for memo in (None, {}):
                loaded = _read_heap(path, memo)
                assert loaded == rows
                assert [row.rt for row in loaded] == [row.rt for row in rows]

    def test_corruption_detected(self, tmp_path):
        rows = (OngoingTuple((1, until_now(2))),)
        path = tmp_path / "0000.heap"
        _write_heap(path, rows)
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DurabilityError):
            _read_heap(path)


class TestWriteLoad:
    def test_checkpoint_roundtrip(self, tmp_path):
        db = _database()
        write_checkpoint(
            tmp_path,
            database=db,
            wal_position=WalPosition(1, 123),
            subscriptions=[],
            tick=db.last_commit.tick,
        )
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded is not None
        assert loaded.manifest["database"] == "ckpt"
        assert loaded.manifest["wal_position"] == [1, 123]
        entry = loaded.tables["R"]
        assert _packed(entry.rows) == _packed(db.table("R").rows())
        assert entry.version == db.table("R").version
        assert [a.name for a in entry.schema] == ["K", "VT"]

    def test_latest_wins(self, tmp_path):
        db = _database()
        for tick in (1, 2):
            write_checkpoint(
                tmp_path,
                database=db,
                wal_position=WalPosition(1, tick),
                subscriptions=[],
                tick=tick,
            )
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded.manifest["tick"] == 2

    def test_the_checkpoint_is_synced_before_and_after_it_is_published(self, tmp_path):
        """Its own directory (the entries naming the heaps and the
        manifest) is fsynced before the rename publishes it, and the
        parent (the entry naming it) after: a power loss then leaves the
        previous checkpoint or this whole one."""
        events = []
        real_fsync, real_rename = os.fsync, os.rename

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def rename(source, target):
            events.append(("rename", Path(target).name))
            real_rename(source, target)

        db = _database()
        with mock.patch("os.fsync", fsync), mock.patch("os.rename", rename):
            final = write_checkpoint(
                tmp_path,
                database=db,
                wal_position=WalPosition(1, 8),
                subscriptions=[],
                tick=db.last_commit.tick,
            )
        published = events.index(("rename", final.name))

        def synced(path):
            inode = path.stat().st_ino
            return [at for at, event in enumerate(events) if event == ("fsync", inode)]

        assert synced(final) and max(synced(final)) < published
        assert synced(final.parent) and min(synced(final.parent)) > published

    def test_empty_root_loads_none(self, tmp_path):
        assert load_latest_checkpoint(tmp_path) is None

    def test_prune_keeps_newest(self, tmp_path):
        db = _database()
        for tick in (1, 2, 3):
            write_checkpoint(
                tmp_path,
                database=db,
                wal_position=WalPosition(1, 0),
                subscriptions=[],
                tick=tick,
            )
        removed = prune_checkpoints(tmp_path, keep=1)
        assert removed == 2
        assert load_latest_checkpoint(tmp_path).manifest["tick"] == 3


class TestCrashpoints:
    def test_mid_heap_crash_preserves_previous_checkpoint(self, tmp_path):
        db = _database()
        write_checkpoint(
            tmp_path,
            database=db,
            wal_position=WalPosition(1, 0),
            subscriptions=[],
            tick=1,
        )
        with faults.armed("checkpoint.mid_heap"):
            with pytest.raises(faults.InjectedCrash):
                write_checkpoint(
                    tmp_path,
                    database=db,
                    wal_position=WalPosition(1, 99),
                    subscriptions=[],
                    tick=2,
                )
        # The half-written attempt never published; the old one loads.
        loaded = load_latest_checkpoint(tmp_path)
        assert loaded.manifest["tick"] == 1
        # Temp litter exists until pruned.
        litter = [
            p
            for p in (tmp_path / "checkpoints").iterdir()
            if p.name.startswith(".tmp-")
        ]
        assert litter
        prune_checkpoints(tmp_path, keep=1)
        assert not any(
            p.name.startswith(".tmp-")
            for p in (tmp_path / "checkpoints").iterdir()
        )

    def test_pre_publish_crash_preserves_previous_checkpoint(self, tmp_path):
        db = _database()
        write_checkpoint(
            tmp_path,
            database=db,
            wal_position=WalPosition(1, 0),
            subscriptions=[],
            tick=1,
        )
        with faults.armed("checkpoint.pre_publish"):
            with pytest.raises(faults.InjectedCrash):
                write_checkpoint(
                    tmp_path,
                    database=db,
                    wal_position=WalPosition(1, 99),
                    subscriptions=[],
                    tick=2,
                )
        assert load_latest_checkpoint(tmp_path).manifest["tick"] == 1

    def test_retry_after_crash_succeeds(self, tmp_path):
        db = _database()
        with faults.armed("checkpoint.pre_publish"):
            with pytest.raises(faults.InjectedCrash):
                write_checkpoint(
                    tmp_path,
                    database=db,
                    wal_position=WalPosition(1, 0),
                    subscriptions=[],
                    tick=1,
                )
        write_checkpoint(
            tmp_path,
            database=db,
            wal_position=WalPosition(1, 0),
            subscriptions=[],
            tick=2,
        )
        assert load_latest_checkpoint(tmp_path).manifest["tick"] == 2


class TestSubscriptionCapture:
    def test_sql_subscription_captured(self):
        db = _database()
        session = db.live_session()
        session.subscribe_sql(
            "SELECT * FROM R",
            on_refresh=lambda event: None,
            name="audit",
            reference_time=15,
        )
        entries = capture_subscriptions(session)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["name"] == "audit"
        assert entry["statement"] == "SELECT * FROM R"
        assert entry["plan"] is None
        assert entry["reference_time"] == 15
        # Synchronous bus: delivery is inline, nothing can be pending.
        assert entry["pending"] is None
        session.close()

    def test_pending_notification_captured_from_async_mailbox(self):
        db = _database()
        import threading

        plug = threading.Event()
        session = db.live_session(delivery_workers=1)
        first_delivery = threading.Event()
        delivered = []

        def listener(event):
            delivered.append(event)
            first_delivery.set()
            plug.wait(timeout=30)

        sub = session.subscribe_sql(
            "SELECT * FROM R", on_refresh=listener, name="slow"
        )
        try:
            db.table("R").insert(100, until_now(50))
            session.flush()
            assert first_delivery.wait(timeout=10)
            # Worker is stuck in the listener; the later notifications
            # stay queued in the mailbox, one slot each.
            db.table("R").insert(101, until_now(51))
            session.flush()
            db.table("R").delete_where(lambda row: row.values[0] != 100)
            session.flush()
            assert len(session.bus.capture_pending(sub.id)) == 2
            entries = capture_subscriptions(session)
            pending = entries[0]["pending"]
            assert pending is not None
            assert pending["changed_tables"] == ["R"]
            assert pending["commit"] is not None
            # Non-destructive: still queued after the capture.
            assert capture_subscriptions(session)[0]["pending"] == pending
        finally:
            plug.set()
        assert session.bus.drain(timeout=10)
        # The capture is the fold of what was then delivered.  Kills: a
        # capture that keeps the newer of two payloads instead of merging.
        _, second, third = delivered
        folded = second.delta.merge(third.delta)
        captured = deserialize_notification(sub, pending).delta
        assert captured.inserted == folded.inserted
        assert captured.deleted == folded.deleted
        session.close()

    def test_an_entry_that_asked_for_no_change_notifications_resumes(self):
        """A manifest written while ``notify_on_no_change`` existed still
        resumes; the key is ignored, so a refresh that changes nothing
        stays silent.  Kills: restore handing the key on to
        ``subscribe()``, which no longer takes it."""
        db = _database()
        session = db.live_session()
        session.subscribe_sql("SELECT * FROM R WHERE K = 1", name="audit")
        (entry,) = capture_subscriptions(session)
        assert "notify_on_no_change" not in entry
        session.close()
        heard = []
        resumed_session = db.live_session()
        (resumed,) = resumed_session.resume(
            [{**entry, "notify_on_no_change": True}], on_refresh=heard.append
        )
        assert resumed.name == "audit"
        db.table("R").insert(7, until_now(30))  # not a K = 1 row
        resumed_session.flush()
        assert heard == [] and resumed.stats.suppressed == 1
        db.table("R").insert(1, until_now(31))
        resumed_session.flush()
        assert len(heard) == 1
        resumed_session.close()

    def test_a_removed_policy_resumes_as_coalesce(self, tmp_path, caplog):
        """A format-2 manifest that persisted ``drop_oldest`` (the
        committed v2 fixture, rewritten in a copy) resumes both
        subscriptions with ``coalesce``, one log line each on
        ``repro.live.manager``.  Kills: resume handing the removed
        policy on to ``subscribe()`` (refused, the entry skipped), or
        mapping it silently or to ``block``."""
        root = tmp_path / "db"
        shutil.copytree(Path(__file__).parent / "fixtures" / "v2" / "db", root)
        (manifest_path,) = root.glob("checkpoints/*/MANIFEST.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == 2
        for entry in manifest["subscriptions"]:
            assert entry["backpressure"] is None
            entry["backpressure"] = "drop_oldest"
        manifest_path.write_text(json.dumps(manifest))
        caplog.set_level(logging.WARNING, logger="repro.live.manager")
        db = Database.open(root, session={}, on_refresh=lambda event: None)
        subscriptions = db.live_session().subscriptions
        assert sorted(sub.name for sub in subscriptions) == ["by_plan", "by_statement"]
        assert {sub.backpressure for sub in subscriptions} == {"coalesce"}
        messages = sorted(
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.live.manager"
        )
        assert len(messages) == 2
        assert all("drop_oldest" in line and "coalesce" in line for line in messages)
        db.close()

    def test_a_checkpoint_survives_a_queued_avg_notification(self, tmp_path):
        """A queued notification of an AVG plan carries ``OngoingRational``
        values; the tagged codec must know them or ``checkpoint()`` raises
        (at the parent: ``StorageError: cannot serialize value
        OngoingRational(...)`` out of ``serialize_notification``)."""
        import threading

        db = Database.open(tmp_path, fsync="off")
        table = db.create_table("B", Schema.of("ID", "Product", ("VT", "interval")))
        for key in range(6):
            table.insert(key, "core" if key % 2 else "ui", until_now(10 + key))
        plug = threading.Event()
        first_delivery = threading.Event()

        def stuck(event):
            first_delivery.set()
            plug.wait(timeout=30)

        session = db.live_session(delivery_workers=1)
        sub = session.subscribe_sql(
            "SELECT Product, COUNT(*) AS n, AVG(ID) AS mean_id "
            "FROM B GROUP BY Product",
            on_refresh=stuck,
            name="G1",
        )
        try:
            for key in (100, 101, 102):  # the first sticks, two stay queued
                table.insert(key, "core", until_now(50))
                session.flush()
                assert first_delivery.wait(timeout=10)
            queued = session.bus.capture_pending(sub.id)
            assert len(queued) == 2
            captured = queued[0].coalesce_with(queued[1]).delta
            assert captured.inserted and captured.deleted
            db.checkpoint()
        finally:
            plug.set()
            db.close()

        received = []
        reopened = Database.open(
            tmp_path, session={}, on_refresh={"G1": received.append}
        )
        try:
            assert reopened._durability.reenqueued_notifications == 1
            assert len(received) == 1
            delta = received[0].delta
            assert delta.inserted == captured.inserted
            assert delta.deleted == captured.deleted
            assert [hash(row) for row in (*delta.inserted, *delta.deleted)] == [
                hash(row) for row in (*captured.inserted, *captured.deleted)
            ]
            assert reopened._live_session.resume() == []
            assert len(received) == 1
        finally:
            reopened.close()

    def test_serialize_notification_shapes(self):
        delta = Delta(
            inserted=(OngoingTuple((1, until_now(2))),),
            deleted=(),
        )
        notification = RefreshNotification(
            subscription=None,
            result=None,
            changed_tables=("R",),
            delta=delta,
            commit=None,
        )
        entry = serialize_notification(notification)
        assert entry["changed_tables"] == ["R"]
        assert "delta_full" not in entry
        assert len(entry["delta"]["inserted"]) == 1
        assert entry["delta"]["deleted"] == []

    def test_an_old_full_flagged_entry_decodes_without_a_delta(self):
        subscription = SimpleNamespace(result=None, reference_time=None)
        written_before = {
            "changed_tables": ["R"],
            "commit": [3, 1.5],
            "delta": None,
            "delta_full": True,
        }
        notification = snapshot.deserialize_notification(
            subscription, written_before
        )
        assert notification.delta is None
        assert notification.changed_tables == ("R",)
        assert notification.commit.tick == 3
