"""End-to-end recovery: checkpoint + WAL replay + subscription resume."""

import contextlib
import gc
import json
import logging
import re
import threading
import urllib.request
import warnings

import pytest

from repro.core.interval import until_now
from repro.durable import faults
from repro.durable.wal import KIND_BATCH, KIND_DROP
from repro.engine.database import Database
from repro.engine.storage import pack_tuple
from repro.errors import DurabilityError, QueryError
from repro.obs.server import ObsServer
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


@pytest.fixture(autouse=True)
def _clean_crashpoints():
    faults.reset()
    yield
    faults.reset()


def _packed(rows):
    return sorted(pack_tuple(row) for row in rows)


def _seed(db, rows=5):
    table = db.create_table("R", Schema.of("K", ("VT", "interval")))
    for key in range(rows):
        table.insert(key, until_now(10 + key))
    return table


class TestPlainReopen:
    def test_empty_database_roundtrip(self, tmp_path):
        db = Database.open(tmp_path, name="mine")
        db.close()
        reopened = Database.open(tmp_path)
        assert reopened.name == "mine"
        assert reopened.tables() == {}
        reopened.close()

    def test_wal_only_recovery(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        table.delete_where(lambda row: row.values[0] != 2)
        before = _packed(table.rows())
        db.close()
        reopened = Database.open(tmp_path)
        assert _packed(reopened.table("R").rows()) == before
        report = reopened._durability.last_recovery
        assert report.replayed_records > 0
        assert report.checkpoint_tick == 0
        reopened.close()

    def test_checkpoint_plus_suffix_recovery(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        db.checkpoint()
        table.insert(99, until_now(50))  # the WAL suffix
        before = _packed(table.rows())
        db.close()
        reopened = Database.open(tmp_path)
        assert _packed(reopened.table("R").rows()) == before
        report = reopened._durability.last_recovery
        assert report.checkpoint_tick > 0
        assert report.replayed_records == 1
        reopened.close()

    def test_commit_ticks_continue_after_reopen(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        _seed(db)
        last = db.last_commit.tick
        db.close()
        reopened = Database.open(tmp_path)
        reopened.table("R").insert(99, until_now(50))
        assert reopened.last_commit.tick == last + 1
        assert reopened._durability.tick_mismatches == 0
        reopened.close()

    def test_create_and_drop_replay(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        _seed(db)
        other = db.create_table("S", Schema.of("X"))
        other.insert(1)
        db.drop_table("R")
        db.close()
        reopened = Database.open(tmp_path)
        assert set(reopened.tables()) == {"S"}
        assert len(reopened.table("S").rows()) == 1
        reopened.close()

    def test_checkpoint_requires_durable_database(self):
        db = Database("plain")
        with pytest.raises(QueryError, match="durable"):
            db.checkpoint()
        db.close()  # close() is safe on a plain database

    def test_mid_replay_crash_then_clean_retry(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        before = _packed(table.rows())
        db.close()
        with faults.armed("recovery.mid_replay"):
            with pytest.raises(faults.InjectedCrash):
                Database.open(tmp_path)
        # The crash during replay wrote nothing; a retry recovers fully.
        reopened = Database.open(tmp_path)
        assert _packed(reopened.table("R").rows()) == before
        reopened.close()

    @pytest.mark.parametrize("session", [None, {"delivery_workers": 1}])
    @pytest.mark.parametrize("failure", ["crash", "corrupt"])
    def test_a_failed_open_releases_what_it_opened(self, tmp_path, failure, session):
        """A replay that raises — an injected crash, or a non-final WAL
        segment that fails its CRC — leaves no WAL file open and no
        resumed session's delivery worker running, and calls back nobody."""
        db = Database.open(tmp_path, fsync="off", segment_bytes=256)
        table = _seed(db)
        db.live_session().subscribe_sql("SELECT * FROM R", name="s1")
        db.checkpoint()
        for key in range(30):  # the WAL suffix, over several segments
            table.insert(100 + key, until_now(50))
        db.close()
        if failure == "crash":
            fault = faults.armed("recovery.mid_replay", after=3)
        else:
            segment = sorted((tmp_path / "wal").glob("wal-*.log"))[-2]
            data = bytearray(segment.read_bytes())
            data[20] ^= 0xFF  # inside the first frame's stored bytes
            segment.write_bytes(bytes(data))
            fault = contextlib.nullcontext()

        def workers():
            return {t for t in threading.enumerate() if t.name.startswith("delivery-")}

        running = workers()
        called = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with fault, pytest.raises(DurabilityError, match="crashpoint|non-final"):
                Database.open(
                    tmp_path,
                    segment_bytes=256,
                    session=session,
                    on_refresh={"s1": called.append},
                )
            gc.collect()
        assert called == []
        assert workers() == running
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestUnreadableCheckpoint:
    """An unreadable newest checkpoint falls back to a longer replay —
    only while the WAL still reaches back to where that replay starts."""

    def _write(self, root, *, suffix, segment_bytes=256):
        db = Database.open(root, fsync="off", segment_bytes=segment_bytes)
        r = db.create_table("R", Schema.of("K", ("VT", "interval")))
        s = db.create_table("S", Schema.of("K", ("VT", "interval")))
        for key in range(32):
            r.insert(key, until_now(10 + key))
        s.insert(0, until_now(10))
        db.checkpoint()
        if suffix:
            r.insert(99, until_now(50))
        before = _packed(r.rows())
        db.close()
        (checkpoint,) = (root / "checkpoints").iterdir()
        return checkpoint, before

    @pytest.mark.parametrize("damage", ["heap", "format"])
    @pytest.mark.parametrize("suffix", [False, True])
    def test_a_pruned_wal_prefix_fails_the_open(self, tmp_path, damage, suffix):
        # Without the suffix the open used to return an empty catalog;
        # with it, replay failed on a table the lost checkpoint created.
        checkpoint, _ = self._write(tmp_path, suffix=suffix)
        manifest = json.loads((checkpoint / "MANIFEST.json").read_text())
        segment = manifest["wal_position"][0]
        assert segment > 1
        if damage == "heap":
            (checkpoint / "0000.heap").write_bytes(b"garbage" * 8)
        else:
            manifest["format"] = 99
            (checkpoint / "MANIFEST.json").write_text(json.dumps(manifest))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(
                DurabilityError, match=f"segments 1-{segment - 1} are missing"
            ):
                Database.open(tmp_path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_an_unpruned_wal_replays_in_its_place(self, tmp_path, caplog):
        checkpoint, before = self._write(
            tmp_path, suffix=True, segment_bytes=1 << 20
        )
        (checkpoint / "0000.heap").write_bytes(b"garbage" * 8)
        reopened = Database.open(tmp_path)
        assert _packed(reopened.table("R").rows()) == before
        assert "skipping unreadable checkpoint" in caplog.text
        reopened.close()


class TestSwapAndDropReplay:
    def test_replace_all_replays_via_one_batch_record(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        kept = tuple(table.rows())[:2]
        replacement = [
            *kept,
            *(OngoingTuple((100 + k, until_now(60 + k))) for k in range(3)),
        ]
        wal = db._durability.wal
        logged = len(list(wal.records()))
        table.replace_all(replacement)
        table.replace_all(reversed(replacement))  # identical: no write
        (record,) = [record for _, record in wal.records()][logged:]
        assert record.kind == KIND_BATCH
        assert len(record.inserted) == 3 and len(record.deleted) == 3
        before = _packed(table.rows())
        db.close()
        reopened = Database.open(tmp_path)
        assert _packed(reopened.table("R").rows()) == before
        reopened.close()

    def test_replace_all_replays_through_warm_state(self, tmp_path, caplog):
        """A swap is an ordinary typed delta: replay propagates it through
        the operator state rebuilt at the checkpoint, with no fallback."""
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        events = []
        session = db.live_session()
        session.subscribe_sql(
            "SELECT * FROM R", on_refresh=events.append, name="s1"
        )
        session.flush()
        db.checkpoint()  # manifest + warm-state baseline
        table.replace_all([OngoingTuple((7, until_now(70)))])
        session.flush()
        expected = _packed(session.subscriptions[0].result.tuples)
        db.close()
        with caplog.at_level(logging.INFO, logger="repro.engine.delta"):
            reopened = Database.open(
                tmp_path,
                session={},
                on_refresh={"s1": (lambda event: None)},
            )
        assert not any(
            "fell back to full re-evaluation" in record.getMessage()
            for record in caplog.records
        )
        resumed = reopened._live_session.subscriptions[0]
        assert _packed(resumed.result.tuples) == expected
        reopened.close()

    def test_drop_table_replay_keeps_results_consistent(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        _seed(db)
        db.create_table("S", Schema.of("X")).insert(1)
        db.drop_table("R")
        *_, (_, record) = db._durability.wal.records()
        assert (record.kind, record.table) == (KIND_DROP, "R")
        db.close()
        reopened = Database.open(tmp_path, session={})
        assert set(reopened.tables()) == {"S"}
        reopened.close()


class TestSessionResume:
    def test_subscription_results_identical_after_reopen(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        events = []
        session = db.live_session()
        sub = session.subscribe_sql(
            "SELECT * FROM R WHERE K >= 2",
            on_refresh=events.append,
            name="filtered",
        )
        table.insert(9, until_now(40))
        session.flush()
        db.checkpoint()
        table.insert(11, until_now(41))  # suffix replays into warm state
        session.flush()
        expected = _packed(sub.result.tuples)
        db.close()
        reopened = Database.open(
            tmp_path, session={}, on_refresh={"filtered": events.append}
        )
        resumed = reopened._live_session.subscriptions
        assert [s.name for s in resumed] == ["filtered"]
        assert _packed(resumed[0].result.tuples) == expected
        assert resumed[0].statement == "SELECT * FROM R WHERE K >= 2"
        assert reopened._durability.resumed_subscriptions == 1
        reopened.close()

    def test_suffix_replay_is_incremental_for_resumed_plans(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        session = db.live_session()
        session.subscribe_sql(
            "SELECT * FROM R", on_refresh=lambda event: None, name="s1"
        )
        session.flush()
        db.checkpoint()
        for key in range(100, 104):
            table.insert(key, until_now(key))
        db.close()
        reopened = Database.open(
            tmp_path, session={}, on_refresh={"s1": (lambda event: None)}
        )
        stats = reopened._live_session.stats()
        # Recovery is one batched flush: the replayed suffix propagated
        # as deltas through the warm state, not one full re-evaluation
        # per record.  (The single evaluation is the resume-subscribe.)
        assert stats["repro_live_delta_refreshes_total"] >= 1
        assert stats["repro_live_flushes_total"] == 1
        reopened.close()

    def test_pending_notification_reenqueued_exactly_once(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        table = _seed(db)
        plug = threading.Event()
        first_delivery = threading.Event()

        def stuck(event):
            first_delivery.set()
            plug.wait(timeout=30)

        session = db.live_session(delivery_workers=1)
        session.subscribe_sql("SELECT * FROM R", on_refresh=stuck, name="s1")
        table.insert(100, until_now(50))
        session.flush()
        assert first_delivery.wait(timeout=10)
        table.insert(101, until_now(51))
        session.flush()  # queued behind the stuck delivery
        db.checkpoint()  # captures the undelivered notification
        plug.set()  # before close() joins the delivery worker
        db.close()

        received = []
        reopened = Database.open(
            tmp_path, session={}, on_refresh={"s1": received.append}
        )
        assert reopened._durability.reenqueued_notifications == 1
        assert len(received) == 1
        assert received[0].changed_tables == ("R",)
        assert received[0].commit is not None
        # The manifest was consumed: resuming again attaches nothing and
        # re-enqueues nothing.
        assert reopened._live_session.resume() == []
        assert reopened._durability.reenqueued_notifications == 1
        assert len(received) == 1
        reopened.close()

    def test_resume_without_durability_requires_manifest(self):
        db = Database("plain")
        _seed(db)
        session = db.live_session()
        with pytest.raises(QueryError, match="durable"):
            session.resume()
        session.close()

    def test_resume_skips_unreadable_entries(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        _seed(db)
        session = db.live_session()
        resumed = session.resume(
            manifest=[
                {"name": "bad", "statement": "SELECT * FROM NOPE"},
                {"name": "empty"},
                {"name": "good", "statement": "SELECT * FROM R"},
            ]
        )
        assert [s.name for s in resumed] == ["good"]
        db.close()


class TestObservability:
    def test_health_snapshot_shape(self, tmp_path):
        db = Database.open(tmp_path, fsync="batch")
        _seed(db)
        snapshot = db._durability.health_snapshot()
        assert snapshot["fsync"] == "batch"
        assert snapshot["appended_records"] > 0
        assert snapshot["records_since_checkpoint"] > 0
        db.checkpoint()
        snapshot = db._durability.health_snapshot()
        assert snapshot["records_since_checkpoint"] == 0
        assert snapshot["last_checkpoint_tick"] > 0
        db.close()

    def test_session_registry_scrapes_wal_counters(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        _seed(db)
        session = db.live_session()
        rendered = session.metrics.render_prometheus()
        durable = set(
            re.findall(
                r"^(repro_(?:wal|checkpoints|recovery)_\w+)", rendered, re.M
            )
        )
        assert durable == {
            "repro_wal_appends_total",
            "repro_wal_fsyncs_total",
            "repro_checkpoints_total",
            "repro_recovery_replayed_records_total",
        }
        db.close()

    def test_health_endpoint_reports_wal(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        _seed(db)
        session = db.live_session()
        with ObsServer(session) as obs:
            with urllib.request.urlopen(obs.url + "/health", timeout=10) as r:
                body = json.loads(r.read().decode("utf-8"))
        assert body["wal"] is not None
        assert body["wal"]["fsync"] == "off"
        assert body["wal"]["appended_records"] > 0
        db.close()

    def test_plain_session_health_has_null_wal(self):
        db = Database("plain")
        _seed(db)
        session = db.live_session()
        with ObsServer(session) as obs:
            with urllib.request.urlopen(obs.url + "/health", timeout=10) as r:
                body = json.loads(r.read().decode("utf-8"))
        assert body["wal"] is None
        session.close()

    def test_stats_merge_wal_prefix(self, tmp_path):
        db = Database.open(tmp_path, fsync="off")
        _seed(db)
        stats = db._durability.stats()
        assert stats["wal_appends"] > 0
        assert stats["checkpoints"] == 0
        db.checkpoint()
        assert db._durability.stats()["checkpoints"] == 1
        db.close()
