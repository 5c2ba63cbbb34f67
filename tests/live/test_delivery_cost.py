"""What a refresh binds, counted where it was measured.

A flush hands every subscriber the change and the pinned snapshot and
binds **nothing**; each read pays for itself — ``changes_at`` for the
delta's tuples, ``rows`` for the result's, once.  Counts of the rows
handed to ``Binder.bind`` and ``tracemalloc`` sizes only: no wall clock,
so the checks hold on any machine.
"""

import gc
import threading
import tracemalloc

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.schema import Schema
from repro.relational.tuples import Binder

RT = 10_000


def _database(rows: int) -> Database:
    db = Database("delivery-cost")
    _fill(db, rows)
    return db


def _fill(db: Database, rows: int) -> None:
    table = db.create_table("R", Schema.of("K", ("VT", "interval")))
    with table.batch():
        for key in range(rows):
            table.insert(key, until_now(key % 50))


@pytest.fixture
def binds(monkeypatch):
    """The tuples bound so far — every row handed to ``Binder.bind``, the
    one path of every whole-result bind — as a list of reference times,
    one per row, whose length is the count."""
    calls = []
    original = Binder.bind

    def counted(self, tuples, rt):
        calls.extend([rt] * len(tuples))
        return original(self, tuples, rt)

    monkeypatch.setattr(Binder, "bind", counted)
    return calls


def test_a_flush_binds_nothing_and_each_read_pays_for_itself(binds):
    db = _database(200)
    session = LiveSession(db)
    received = []
    subscriptions = [
        session.subscribe(
            scan("R"), on_refresh=received.append, reference_time=RT + client
        )
        for client in range(5)
    ]
    table = db.table("R")
    with table.batch():
        table.insert(1000, until_now(7))
        table.insert(1001, until_now(8))
        table.delete_where(lambda row: row.values[0] != 3)
    assert session.flush() == 1
    assert len(received) == len(subscriptions)
    assert binds == []  # five subscribers with a reference time, none read

    first = received[0]
    assert len(first.delta) == 3
    changes = first.changes_at()
    assert len(binds) == len(first.delta)  # O(|Δ|): the delta's tuples only
    assert (len(changes.inserted), len(changes.deleted)) == (2, 1)

    del binds[:]
    rows = first.rows
    assert len(binds) == len(first.result) == 201
    assert first.rows is rows  # the second read is the first one's set
    assert len(binds) == 201
    assert [sub.stats.instantiations for sub in subscriptions] == [1, 0, 0, 0, 0]


def test_a_held_unread_notification_retains_no_bound_copy():
    """What letting go of a held, never-read notification over a
    5 000-row result gives back while the store keeps the snapshot they
    share: the notification itself, not a bound copy of the result
    (≈ 215 B a row when ``_notify`` bound one)."""
    db = _database(5_000)
    session = LiveSession(db)
    held = []
    sub = session.subscribe(scan("R"), on_refresh=held.append, reference_time=RT)
    db.table("R").insert(5_000, until_now(3))
    gc.collect()
    tracemalloc.start()
    try:
        session.flush()
        assert held[0].result is sub.result  # one snapshot, the store's
        gc.collect()
        holding, _ = tracemalloc.get_traced_memory()
        held.clear()
        gc.collect()
        released, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sub.result) == 5_001
    assert holding - released <= 1024


def test_a_coalescing_mailbox_never_binds(binds):
    db = _database(50)
    session = LiveSession(db, delivery_workers=1)
    delivered = []
    gate = threading.Event()

    def slow(notification):
        assert gate.wait(timeout=30)
        delivered.append(notification)

    try:
        sub = session.subscribe(
            scan("R"),
            on_refresh=slow,
            reference_time=RT,
            backpressure="coalesce",
            queue_capacity=1,
        )
        for key in range(50):
            db.table("R").insert(100 + key, until_now(key))
            session.flush()
        stats = session.stats()
        assert sub.stats.notifications == 50
        assert stats["repro_serve_coalesced_notifications_total"] >= 48
        gate.set()
        assert session.bus.drain(timeout=30)
        assert binds == []  # fifty notifications merged, delivered, unread
        merged = delivered[-1]
        assert sum(len(n.delta.inserted) for n in delivered) == 50
        assert merged.rows == sub.result.instantiate(RT)
        assert len(binds) == 2 * len(sub.result)  # the read, and the check
    finally:
        gate.set()
        session.close()


def test_a_reopened_database_reenqueues_a_pending_notification_unbound(
    tmp_path, binds
):
    db = Database.open(tmp_path, fsync="off")
    _fill(db, 20)
    table = db.table("R")
    plug = threading.Event()
    first_delivery = threading.Event()

    def stuck(notification):
        first_delivery.set()
        plug.wait(timeout=30)

    session = db.live_session(delivery_workers=1)
    session.subscribe_sql(
        "SELECT * FROM R", on_refresh=stuck, name="s1", reference_time=RT
    )
    table.insert(100, until_now(50))
    session.flush()
    assert first_delivery.wait(timeout=10)
    table.insert(101, until_now(51))
    session.flush()  # queued behind the stuck delivery
    db.checkpoint()  # captures the undelivered notification
    plug.set()  # (close() would wait the stuck delivery out)
    db.close()

    del binds[:]
    received = []
    reopened = Database.open(
        tmp_path, session={}, on_refresh={"s1": received.append}
    )
    try:
        assert reopened._durability.reenqueued_notifications == 1
        (notification,) = received  # exactly once
        (resumed,) = reopened._live_session.subscriptions
        assert binds == [] and resumed.stats.instantiations == 0
        assert notification.reference_time == RT
        assert len(notification.changes_at().inserted) == len(notification.delta)
        assert notification.rows == resumed.result.instantiate(RT)
        assert resumed.stats.instantiations == 1
    finally:
        reopened.close()
