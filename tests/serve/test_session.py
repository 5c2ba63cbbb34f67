"""The serving session: async delivery, serve loop, stats."""

import queue
import threading
import time

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_insert
from repro.engine.plan import scan
from repro.errors import QueryError
from repro.live import LiveSession
from repro.obs.registry import Registry
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def _database():
    db = Database("serve-session")
    r = db.create_table("R", Schema.of("K", ("VT", "interval")))
    s = db.create_table("S", Schema.of("K", ("VT", "interval")))
    for i in range(12):
        r.insert(i % 4, until_now(i))
        s.insert(i % 4, until_now(i + 1))
    return db


def _plans():
    return {
        "filter": scan("R").where(col("K") == lit(1)),
        "join": scan("R").join(
            scan("S"), on=col("R.K") == col("S.K"), left_name="R", right_name="S"
        ),
        "union": scan("R").union(scan("S")),
    }


class TestReviewRegressions:
    def test_write_racing_a_full_refresh_keeps_its_dirty_mark(
        self, force_fallback
    ):
        """A write that lands after a full re-evaluation re-read the
        tables must keep the plan dirty: the full path drops the dirty
        mark of every event it subsumed, and only those."""
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_plans()["filter"])
        (shared,) = session.shared_results()
        real_refresh = shared.refresh

        def racing_refresh():
            outcome = real_refresh()
            # The race window: a writer slips in after the re-read but
            # before the manager decides the dirty mark's fate.
            current_insert(db.table("R"), (1,), at=90)
            return outcome

        shared.refresh = racing_refresh
        # The refresh takes the full re-evaluation path.
        current_insert(db.table("R"), (2,), at=80)
        force_fallback(shared)
        session.flush()
        shared.refresh = real_refresh
        assert session.stats()["repro_live_full_refreshes_total"] == 1
        assert session.pending == 1, "the racing write lost its dirty mark"
        session.flush()
        assert frozenset(sub.result.tuples) == frozenset(
            db.query(_plans()["filter"]).tuples
        )
        session.close()

    def test_write_racing_the_claim_is_applied_once(self):
        """A write that lands after flush() snapshotted the dirty set but
        before the refresh claimed the plan's pending record rides that
        claim.  The mark it leaves announces nothing: the next flush()
        must not run a phantom round for it."""
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_plans()["filter"])
        (shared,) = session.shared_results()
        real_refresh = shared.refresh

        def racing_refresh():
            current_insert(db.table("R"), (1,), at=91)  # the race window
            return real_refresh()

        shared.refresh = racing_refresh
        current_insert(db.table("R"), (1,), at=90)
        assert session.flush() == 1
        shared.refresh = real_refresh
        assert sub.stats.coalesced_events == 2  # both writes, one refresh
        assert sub.stats.pending_events == 0
        assert frozenset(sub.result.tuples) == frozenset(
            db.query(_plans()["filter"]).tuples
        )
        before = session.stats()
        assert session.flush() == 0
        after = session.stats()
        for name in (
            "repro_live_delta_refreshes_total",
            "repro_live_suppressed_notifications_total",
            "repro_live_evaluations_total",
        ):
            assert after[name] == before[name], name
        assert sub.stats.refreshes + sub.stats.suppressed == 1  # no phantom
        assert session.pending == 0
        session.close()

    def test_stop_serving_during_debounce_returns_promptly(self):
        """stop_serving() racing the debounce window must not have its
        wakeup erased by the loop's clear() — that used to strand the
        loop on an event nobody would ever set again."""
        db = _database()
        session = LiveSession(db)
        session.serve(debounce=0.2)
        session.subscribe(_plans()["filter"])
        db.table("R").insert(1, until_now(30))  # loop enters its debounce
        time.sleep(0.05)
        started = time.monotonic()
        session.stop_serving()
        assert time.monotonic() - started < 5, "serve loop missed the stop"
        assert not session.serving
        session.close()

    def test_live_session_is_a_singleton_under_concurrent_first_calls(self):
        db = _database()
        sessions = []
        threads = [
            threading.Thread(target=lambda: sessions.append(db.live_session()))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(sessions) == 8
        assert len({id(session) for session in sessions}) == 1
        sessions[0].close()


class TestAsyncDelivery:
    def test_notifications_arrive_on_worker_threads(self):
        db = _database()
        session = LiveSession(db, delivery_workers=2, backpressure="block")
        main = threading.get_ident()
        received = []
        session.subscribe(
            _plans()["filter"],
            on_refresh=lambda event: received.append(threading.get_ident()),
        )
        current_insert(db.table("R"), (1,), at=20)
        session.flush()
        assert session.bus.drain(timeout=5)
        assert received and all(ident != main for ident in received)
        session.close()

    def test_exactly_once_in_order_per_subscription(self):
        db = _database()
        session = LiveSession(db, delivery_workers=3, backpressure="block")
        sizes = []
        session.subscribe(
            _plans()["union"],
            on_refresh=lambda event: sizes.append(len(event.result.tuples)),
        )
        rounds = 6
        for i in range(rounds):
            db.table("R").insert(100 + i, until_now(25 + i))
            session.flush()
        assert session.bus.drain(timeout=10)
        # One notification per changing flush, in flush order: the union
        # grows by one row each round, so the sizes strictly increase.
        assert len(sizes) == rounds
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == rounds
        stats = session.stats()
        assert stats["repro_serve_queued_notifications_total"] == rounds
        assert stats["repro_serve_delivered_notifications_total"] == rounds
        assert stats["repro_serve_dropped_notifications_total"] == 0
        session.close()

    def test_coalesce_backpressure_counts_and_merges(self):
        """Capacity 1, the one worker jammed in delivery #1: every later
        notification lands in the one waiting, none is dropped, and the
        subscriber's fold of what arrives is the result bound at its
        reference time.  Kills: a full ``coalesce`` mailbox evicting its
        oldest notification instead of merging (an evicted notification
        takes its delta with it: ``dropped`` counts it and the fold
        misses its rows)."""
        db = _database()
        session = LiveSession(
            db, delivery_workers=1, queue_capacity=1, backpressure="coalesce"
        )
        jammed, release = threading.Event(), threading.Event()
        received = []

        def subscriber(event):
            if not jammed.is_set():
                jammed.set()
                release.wait(timeout=10)
            bound.apply(event)
            received.append(event)

        plan = _plans()["filter"]
        sub = session.subscribe(plan, on_refresh=subscriber, reference_time=60)
        bound = sub.bound_rows()
        current_insert(db.table("R"), (1,), at=20)
        session.flush()
        assert jammed.wait(timeout=10)
        current_insert(db.table("R"), (1,), at=21)  # takes the one slot
        session.flush()
        current_delete(db.table("R"), lambda row: row.values[0] == 1, at=30)
        session.flush()  # merges
        current_insert(db.table("R"), (1,), at=31)
        session.flush()  # merges
        release.set()
        assert session.bus.drain(timeout=10)
        stats = session.stats()
        assert stats["repro_serve_dropped_notifications_total"] == 0
        assert stats["repro_serve_coalesced_notifications_total"] == 2
        # queued and coalesced partition the admitted notifications: two
        # occupied queue slots (delivered separately), two merged into the
        # waiting one.  4 would mean the old double-count.
        assert stats["repro_serve_queued_notifications_total"] == 2
        assert len(received) == 2 and session.bus.errors == []
        # The coalesced notification carries the merged result-level
        # delta, none of it lost: folded, it is the bound result.
        final = received[-1]
        assert final.delta is not None
        assert frozenset(final.result.tuples) == frozenset(db.query(plan).tuples)
        assert frozenset(bound.rows) == sub.instantiate(60)
        session.close()

    def test_a_block_mailbox_its_own_worker_fills_merges(self):
        """Capacity 1, ``block``, one worker, and a callback that writes
        and flushes twice on that worker: the first flush takes the one
        slot, and the second merges into the waiting notification — it
        never waits for space only its own thread frees.  Kills: that
        publish evicting the waiting notification (``dropped`` counts it
        and the fold misses the rows written at 21)."""
        db = _database()
        session = LiveSession(
            db, delivery_workers=1, queue_capacity=1, backpressure="block"
        )
        received = []

        def subscriber(event):
            bound.apply(event)
            received.append(event)
            if len(received) == 1:
                for at in (21, 22):
                    current_insert(db.table("R"), (1,), at=at)
                    session.flush()  # publishes on the worker thread

        plan = _plans()["filter"]
        sub = session.subscribe(plan, on_refresh=subscriber, reference_time=60)
        bound = sub.bound_rows()
        current_insert(db.table("R"), (1,), at=20)
        session.flush()
        assert session.bus.drain(timeout=10)
        stats = session.stats()
        assert stats["repro_serve_dropped_notifications_total"] == 0
        assert stats["repro_serve_coalesced_notifications_total"] >= 1
        assert len(received) == 2 and session.bus.errors == []
        assert frozenset(bound.rows) == sub.instantiate(60)
        session.close()

    def test_per_subscription_capacity_override(self):
        """Session capacity 1, one worker jammed in the first callback of
        a subscriber given room for 64: that subscriber hears every
        refresh separately, while the one keeping the session's single
        slot hears them merged.  Kills: the override ignored (the roomy
        mailbox merges too, ``audit`` gets 2) or applied session-wide
        (``board`` gets 4)."""
        db = _database()
        session = LiveSession(db, delivery_workers=1, queue_capacity=1)
        running, release = threading.Event(), threading.Event()
        audit, board = [], []

        def auditor(event):
            if not audit:
                running.set()
                release.wait(timeout=10)
            audit.append(event)

        plan = _plans()["filter"]
        session.subscribe(plan, on_refresh=auditor, queue_capacity=64)
        session.subscribe(plan, on_refresh=board.append)
        current_insert(db.table("R"), (1,), at=20)
        session.flush()
        assert running.wait(timeout=10)
        for i in range(3):
            current_insert(db.table("R"), (1,), at=21 + i)
            session.flush()
        release.set()
        assert session.bus.drain(timeout=10)
        assert (len(audit), len(board)) == (4, 1)
        stats = session.stats()
        assert stats["repro_serve_coalesced_notifications_total"] == 3
        assert stats["repro_serve_dropped_notifications_total"] == 0
        session.close()

    def test_a_stuck_subscriber_delays_neither_the_flush_nor_its_peers(self):
        """``block``, capacity 1, two workers: A is stuck in its callback
        with its mailbox full, B is pinned to the other worker.  Each of
        three write+flush rounds returns at once and B hears it at once;
        once released, A's fold is its result and nothing was dropped.
        Kills: a publish that waits for space in a full mailbox (every
        later flush, and B's notification behind it, waits for A)."""
        db = _database()
        session = LiveSession(
            db, delivery_workers=2, queue_capacity=1, backpressure="block"
        )
        stuck, release = threading.Event(), threading.Event()
        heard = queue.Queue()

        def stuck_callback(event):
            stuck.set()
            release.wait(timeout=60)
            bound.apply(event)

        plan = _plans()["filter"]
        a = session.subscribe(plan, on_refresh=stuck_callback, reference_time=60)
        bound = a.bound_rows()
        b = session.subscribe(plan, on_refresh=heard.put, reference_time=60)
        mailboxes = session.bus._mailboxes
        assert mailboxes[a.id]._worker is not mailboxes[b.id]._worker
        current_insert(db.table("R"), (1,), at=20)
        session.flush()
        assert stuck.wait(timeout=10)  # A's worker holds the first one
        current_insert(db.table("R"), (1,), at=21)
        session.flush()  # takes A's one slot: A's mailbox is full
        for _ in range(2):
            heard.get(timeout=10)
        for at in (22, 23, 24):
            current_insert(db.table("R"), (1,), at=at)
            started = time.monotonic()
            session.flush()
            assert time.monotonic() - started < 0.1, "the flush waited for A"
            heard.get(timeout=0.1)  # B's notification, not held behind A
        release.set()
        assert session.bus.drain(timeout=10)
        assert frozenset(bound.rows) == a.instantiate(60)
        stats = session.stats()
        assert stats["repro_serve_dropped_notifications_total"] == 0
        assert stats["repro_serve_coalesced_notifications_total"] >= 1
        assert session.bus.errors == []
        session.close()


class TestMailboxOptionsAreCheckedWhoeverDelivers:
    """A session without workers used to accept — and a checkpoint to
    persist — options no mailbox takes; the database then could not be
    opened with workers.  Kills: ``capacity`` / ``backpressure``
    unchecked when ``workers == 0``."""

    @pytest.mark.parametrize("delivery_workers", [0, 1])
    @pytest.mark.parametrize(
        "options", [{"backpressure": "nonsense"}, {"queue_capacity": 0}]
    )
    def test_a_rejected_constructor_leaves_nothing_behind(
        self, delivery_workers, options
    ):
        db, registry, threads = _database(), Registry(), threading.active_count()
        with pytest.raises(ValueError):
            LiveSession(
                db, delivery_workers=delivery_workers, registry=registry, **options
            )
        assert registry.snapshot() == {}  # no collector, no family
        assert db._delta_listeners == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("delivery_workers", [0, 1])
    def test_a_rejected_subscribe_leaves_nothing_behind(self, delivery_workers):
        session = LiveSession(_database(), delivery_workers=delivery_workers)
        for options in ({"backpressure": "nonsense"}, {"queue_capacity": -3}):
            with pytest.raises(ValueError):
                session.subscribe_sql(
                    "SELECT * FROM R", on_refresh=print, name="audit", **options
                )
        assert session.subscriptions == [] and session.shared_results() == []
        assert session.bus.stats()["listeners"] == 0
        session.close()

    def test_a_checkpoint_of_a_session_without_workers_reopens_with_them(
        self, tmp_path
    ):
        db = Database.open(tmp_path, fsync="off")
        db.create_table("R", Schema.of("K", ("VT", "interval")))
        session = db.live_session()
        for name, options in (
            ("audit", {"backpressure": "block", "queue_capacity": 2}),
            ("board", {}),
        ):
            session.subscribe_sql(
                "SELECT * FROM R", on_refresh=print, name=name, **options
            )
        with pytest.raises(ValueError):  # once accepted, persisted, and
            session.subscribe_sql(  # fatal to the reopen below
                "SELECT * FROM R", backpressure="nonsense", name="poison"
            )
        db.table("R").insert(1, until_now(5))
        session.flush()
        db.checkpoint()
        db.close()
        received = []
        reopened = Database.open(
            tmp_path,
            fsync="off",
            session={"delivery_workers": 1},
            on_refresh=received.append,
        )
        try:
            session = reopened.live_session()
            resumed = {sub.name: sub for sub in session.subscriptions}
            assert sorted(resumed) == ["audit", "board"]
            assert resumed["audit"].backpressure == "block"
            assert resumed["audit"].queue_capacity == 2
            reopened.table("R").insert(2, until_now(6))
            session.flush()
            assert session.bus.drain(timeout=5)
            assert len(received) == 2
        finally:
            reopened.close()


class TestResultStoreStats:
    def test_snapshot_counters_flow_through_session_stats(self):
        db = _database()
        session = LiveSession(db)
        a = session.subscribe(_plans()["join"])
        b = session.subscribe(_plans()["join"])  # same fingerprint
        baseline = session.stats()["repro_store_snapshots_taken_total"]
        # Three delta refreshes nobody reads: no snapshot is taken.
        for i in range(3):
            current_insert(db.table("R"), (1,), at=30 + i)
            session.flush()
        stats = session.stats()
        assert stats["repro_live_delta_refreshes_total"] == 3
        assert stats["repro_store_snapshots_taken_total"] == baseline
        # Both subscribers read: one copy is taken, the other read reuses
        # — exactly one of each (a read is one store access, not two).
        reused_baseline = session.stats()["repro_store_snapshots_reused_total"]
        assert a.result is b.result
        stats = session.stats()
        assert stats["repro_store_snapshots_taken_total"] == baseline + 1
        assert stats["repro_store_snapshots_reused_total"] == reused_baseline + 1
        session.close()


class TestAdaptiveDebounce:
    def test_band_extremes_are_pinned(self):
        """The satellite contract: zero depth sleeps debounce_min, a
        saturated queue sleeps debounce_max — both exactly."""
        db = _database()
        session = LiveSession(db, queue_capacity=16)
        session.serve(debounce_min=0.001, debounce_max=0.25)
        try:
            assert session._serve_loop.debounce_for_depth(0) == 0.001
            assert session._serve_loop.debounce_for_depth(16) == 0.25  # at capacity
            assert session._serve_loop.debounce_for_depth(10**9) == 0.25  # beyond
            # and strictly between the extremes in the middle
            mid = session._serve_loop.debounce_for_depth(8)
            assert 0.001 < mid < 0.25
        finally:
            session.close()

    def test_saturation_is_queue_capacity_whatever_the_fanout(self):
        """The window reads the band, ``queue_capacity`` and the depth
        alone: forty subscriptions do not stretch where it saturates.
        Kills: ``max(capacity, fanout)`` put back (saturation at 41)."""
        db = _database()
        session = LiveSession(db, queue_capacity=4)
        plan = _plans()["filter"]
        subs = [session.subscribe(plan) for _ in range(40)]
        session.serve(debounce_min=0.001, debounce_max=0.25)
        try:
            assert session._serve_loop.debounce_for_depth(3) < 0.25
            assert session._serve_loop.debounce_for_depth(4) == 0.25
        finally:
            for sub in subs:
                sub.close()
            session.close()

    def test_closed_session_reports_the_band_floor(self):
        """Nothing is queued once a session is closed: its window is the
        floor, read like ``serving`` / ``pending`` / ``stats()`` are.
        Kills: the loop reading the queue depth of a session it let go
        (``AttributeError``)."""
        session = LiveSession(_database())
        session.serve(debounce_min=0.001, debounce_max=0.05)
        session.close()
        assert not session.serving and session.pending == 0
        assert session.current_debounce() == 0.001

    def test_fixed_debounce_ignores_depth(self):
        db = _database()
        session = LiveSession(db)
        session.serve(debounce=0.007)
        try:
            assert session._serve_loop.debounce_for_depth(0) == 0.007
            assert session._serve_loop.debounce_for_depth(10**9) == 0.007
            assert session.current_debounce() == 0.007
        finally:
            session.close()

    def test_band_validation(self):
        db = _database()
        session = LiveSession(db)
        with pytest.raises(QueryError, match="both"):
            session.serve(debounce_min=0.001)
        with pytest.raises(QueryError, match="band"):
            session.serve(debounce_min=0.5, debounce_max=0.1)
        assert not session.serving  # nothing started on the failed calls
        session.close()

    def test_adaptive_serve_still_flushes(self):
        db = _database()
        session = LiveSession(db, delivery_workers=2)
        arrived = threading.Event()
        session.subscribe(
            _plans()["filter"], on_refresh=lambda event: arrived.set()
        )
        session.serve(debounce_min=0.0, debounce_max=0.02)
        current_insert(db.table("R"), (1,), at=20)
        assert arrived.wait(timeout=5)
        assert session.current_debounce() >= 0.0
        session.close()


class TestServeLoop:
    def test_serve_flushes_without_explicit_flush(self):
        db = _database()
        session = LiveSession(db, delivery_workers=2)
        arrived = threading.Event()
        session.subscribe(
            _plans()["filter"], on_refresh=lambda event: arrived.set()
        )
        session.serve(debounce=0.002)
        assert session.serving
        assert session.stats()["serving"] is True
        current_insert(db.table("R"), (1,), at=20)
        assert arrived.wait(timeout=5)
        session.close()
        assert not session.serving

    def test_serve_debounce_coalesces_bursts(self):
        db = _database()
        session = LiveSession(db)
        session.serve(debounce=0.05)
        sub = session.subscribe(_plans()["filter"])
        with db.table("R").lock:  # the burst is atomic for the loop
            for i in range(10):
                db.table("R").insert(1, until_now(30 + i))
        expected = frozenset(db.query(_plans()["filter"]).tuples)
        # Wait on what is asserted: ``pending`` drops to 0 when a flush
        # round *starts* (it counts plans awaiting refresh), while the
        # serve thread may still be refreshing.
        deadline = time.monotonic() + 5
        while (
            frozenset(sub.result.tuples) != expected
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert frozenset(sub.result.tuples) == expected
        assert session.pending == 0
        # All ten inserts landed in at most a couple of flush rounds.
        assert session.stats()["repro_live_flushes_total"] <= 3
        session.close()

    def test_a_slow_consumer_under_serve_merges_and_loses_nothing(self):
        """The ledger's slow-consumer shape, small: one delivery worker, a
        ``coalesce`` mailbox of capacity 2, a callback that sleeps 20 ms,
        and bursts of 25 commits under ``serve()``.  Each burst is one
        refresh and the next starts once it is published, so the mailbox
        fills while the callback sleeps.  Kills: a full mailbox evicting a
        notification (``dropped`` counts it and the fold misses its
        rows), and a merge that loses its delta (``changes_at`` is
        ``None``)."""
        db = _database()
        session = LiveSession(
            db, delivery_workers=1, queue_capacity=2, backpressure="coalesce"
        )
        received = []

        def slow(event):
            time.sleep(0.02)
            received.append(event)

        plan = _plans()["filter"]
        sub = session.subscribe(plan, on_refresh=slow, reference_time=1000)
        bound = sub.bound_rows()
        session.serve(debounce=0.001)
        started = time.monotonic()
        for burst in range(10):
            published = sub.stats.notifications
            with db.table("R").lock:  # the burst is atomic for the loop
                for i in range(25):
                    current_insert(db.table("R"), (1 + i % 2,), at=100 + 25 * burst + i)
            deadline = time.monotonic() + 5
            while sub.stats.notifications == published:
                assert time.monotonic() < deadline, "the burst was never published"
                time.sleep(0.001)
        assert session.bus.drain(timeout=10)
        assert time.monotonic() - started < 2
        stats = session.stats()
        assert stats["repro_serve_coalesced_notifications_total"] > 0
        assert stats["repro_serve_dropped_notifications_total"] == 0
        assert all(event.changes_at(1000) is not None for event in received)
        for event in received:
            bound.apply(event)
        assert frozenset(bound.rows) == db.query(plan).instantiate(1000)
        session.close()

    def test_close_delivers_owed_notifications(self):
        db = _database()
        session = LiveSession(db, delivery_workers=2)
        received = []
        session.subscribe(_plans()["filter"], on_refresh=received.append)
        session.serve(debounce=0.002)
        current_insert(db.table("R"), (1,), at=20)
        session.close()  # stops the loop, final flush, drains the queues
        assert received  # the owed notification arrived before teardown
        assert session.closed
        with pytest.raises(QueryError):
            session.flush()

    def test_close_delivers_owed_notifications_on_the_synchronous_bus(self):
        """Nobody flushed the write, so close() does — inline."""
        db = _database()
        session = LiveSession(db)
        received = []
        session.subscribe(_plans()["filter"], on_refresh=received.append)
        current_insert(db.table("R"), (1,), at=20)
        session.close()
        assert len(received) == 1 and received[0].changed_tables == ("R",)

    @pytest.mark.parametrize("delivery_workers", [0, 1])
    def test_close_from_an_on_refresh_callback_completes(self, delivery_workers):
        """The callback runs on the serve thread (synchronous bus) or on
        the delivery worker: close() must neither join nor wait on the
        thread it is called from, and must finish the shutdown."""
        db = _database()
        session = LiveSession(db, delivery_workers=delivery_workers)
        outcome = {}
        done = threading.Event()

        def close_from_callback(event):
            started = time.monotonic()
            try:
                session.close()
            except BaseException as exc:  # noqa: BLE001 — reported below
                outcome["error"] = exc
            outcome["seconds"] = time.monotonic() - started
            done.set()

        session.subscribe(_plans()["filter"], on_refresh=close_from_callback)
        session.serve(debounce=0.002)
        current_insert(db.table("R"), (1,), at=20)
        assert done.wait(timeout=30), "close() never returned"
        assert "error" not in outcome, outcome
        assert outcome["seconds"] < 5, "close() waited on its own thread"
        assert session.closed
        assert not session.serving
        assert session.subscriptions == []
        # The database hook is gone: a later write reaches nobody.
        events = session.stats()["repro_live_events_total"]
        current_insert(db.table("R"), (1,), at=21)
        assert session.stats()["repro_live_events_total"] == events

    def test_stop_serving_from_a_callback_lets_serving_restart(self):
        """stop_serving() on the serve thread itself cannot join; the old
        loop must still retire — even when serve() is called again
        before it noticed — so only one loop ever flushes."""
        db = _database()
        session = LiveSession(db)
        seen = []

        def restart(event):
            seen.append(threading.current_thread())
            if len(seen) == 1:
                session.stop_serving()
                session.serve(debounce=0.002)

        session.subscribe(_plans()["filter"], on_refresh=restart)
        session.serve(debounce=0.002)
        current_insert(db.table("R"), (1,), at=20)
        deadline = time.monotonic() + 5
        while not seen and time.monotonic() < deadline:
            time.sleep(0.005)
        first = seen[0]
        first.join(timeout=5)
        assert not first.is_alive(), "the replaced serve thread kept running"
        assert session.serving
        current_insert(db.table("R"), (1,), at=21)
        deadline = time.monotonic() + 5
        while len(seen) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(seen) == 2 and seen[1] is not first
        session.close()

    def test_stop_serving_keeps_events_for_explicit_flush(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_plans()["filter"])
        session.serve(debounce=0.002)
        session.stop_serving()
        current_insert(db.table("R"), (1,), at=20)
        time.sleep(0.05)
        assert session.pending == 1  # nobody flushed behind our back
        assert session.flush() == 1
        assert frozenset(sub.result.tuples) == frozenset(
            db.query(_plans()["filter"]).tuples
        )
        session.close()
