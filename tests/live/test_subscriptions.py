"""Subscription lifecycle, batched refresh, and notification delivery."""

import logging

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.timeline import mmdd
from repro.durable.snapshot import capture_subscriptions, serialize_notification
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_update
from repro.engine.plan import scan
from repro.errors import QueryError
from repro.live import LiveSession, SubscriptionManager
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _database():
    db = Database("live")
    bugs = db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
    bugs.insert(500, "Spam filter", until_now(d(1, 25)))
    bugs.insert(501, "Crash", fixed_interval(d(3, 30), d(8, 21)))
    people = db.create_table("P", Schema.of("PID", ("VT", "interval")))
    people.insert(1, until_now(d(2, 2)))
    return db


def _bug_plan():
    return scan("B").where(
        col("VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1))))
    )


class TestLifecycle:
    def test_subscribe_materializes_immediately(self):
        session = LiveSession(_database())
        sub = session.subscribe(_bug_plan())
        assert sub.active
        assert len(sub.result.tuples) > 0
        assert session.stats()["repro_live_evaluations_total"] == 1

    def test_close_releases_shared_state(self):
        session = LiveSession(_database())
        first = session.subscribe(_bug_plan())
        second = session.subscribe(_bug_plan())
        first.close()
        # one subscriber remains: the cache entry stays
        assert session.stats()["repro_live_shared_results"] == 1
        second.close()
        assert session.stats()["repro_live_shared_results"] == 0
        assert session.stats()["repro_live_subscriptions"] == 0
        assert not first.active
        with pytest.raises(QueryError, match="closed"):
            first.result
        first.close()  # idempotent

    def test_closed_subscription_is_not_refreshed(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_bug_plan())
        sub.close()
        db.table("B").insert(502, "New", until_now(d(8, 20)))
        assert session.flush() == 0

    def test_session_close_detaches_from_database(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_bug_plan())
        session.close()
        assert not sub.active
        db.table("B").insert(502, "New", until_now(d(8, 20)))  # no listener left
        with pytest.raises(QueryError, match="closed"):
            session.subscribe(_bug_plan())
        with pytest.raises(QueryError, match="closed"):
            session.flush()

    def test_session_as_context_manager(self):
        db = _database()
        with SubscriptionManager(db) as session:
            session.subscribe(_bug_plan())
        assert session.stats()["repro_live_subscriptions"] == 0


class TestBatchedRefresh:
    def test_many_modifications_one_evaluation(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_bug_plan())
        for bid in (502, 503, 504):
            db.table("B").insert(bid, "More", until_now(d(8, 2)))
        assert sub.stats.pending_events == 3
        assert session.pending == 1
        assert session.flush() == 1
        assert session.stats()["repro_live_evaluations_total"] == 2  # initial + one coalesced
        assert sub.stats.refreshes == 1
        assert sub.stats.coalesced_events == 3
        assert sub.stats.pending_events == 0

    def test_flush_without_pending_is_a_noop(self):
        db = _database()
        session = LiveSession(db)
        session.subscribe(_bug_plan())
        # Bug 501's interval is fixed and already over: deleting it is a
        # no-op modification, which leaves nothing pending.
        assert current_delete(
            db.table("B"), lambda row: row.values[0] == 501, at=d(12, 1)
        ) == 0
        assert session.pending == 0
        assert session.flush() == 0
        assert session.stats()["repro_live_evaluations_total"] == 1

    def test_unrelated_table_does_not_dirty(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_bug_plan())
        db.table("P").insert(2, until_now(d(3, 3)))
        assert session.pending == 0
        assert sub.stats.pending_events == 0

    def test_refreshed_result_reflects_the_modification(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_bug_plan())
        current_delete(db.table("B"), lambda r: r.values[0] == 500, at=d(8, 10))
        session.flush()
        # Torp semantics: the deleted bug's VT end is frozen at the
        # deletion time for rts at/after it, and grows with rt before it.
        by_bid = {row[0]: row for row in sub.instantiate(d(8, 20))}
        assert by_bid[500][2] == (d(1, 25), d(8, 10))
        for rt in (d(8, 5), d(8, 20)):
            assert sub.instantiate(rt) == db.query(_bug_plan()).instantiate(rt)


class TestNotifications:
    def test_on_refresh_receives_rows_at_reference_time(self):
        db = _database()
        session = LiveSession(db)
        received = []
        sub = session.subscribe(
            _bug_plan(), on_refresh=received.append, reference_time=d(8, 10)
        )
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        session.flush()
        (event,) = received
        assert event.subscription is sub
        assert event.changed_tables == ("B",)
        assert event.rows == sub.result.instantiate(d(8, 10))
        assert event.result is sub.result
        assert sub.stats.notifications == 1

    def test_reference_time_is_caller_chosen_and_mutable(self):
        db = _database()
        session = LiveSession(db)
        received = []
        sub = session.subscribe(_bug_plan(), on_refresh=received.append)
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        session.flush()
        assert received[-1].rows is None  # no reference time chosen
        sub.reference_time = d(8, 15)
        db.table("B").insert(503, "More", until_now(d(8, 3)))
        session.flush()
        assert received[-1].rows == sub.result.instantiate(d(8, 15))

    def test_a_notification_keeps_the_reference_time_it_was_notified_at(self):
        db = _database()
        session = LiveSession(db)
        received = []
        sub = session.subscribe(
            _bug_plan(), on_refresh=received.append, reference_time=d(8, 10)
        )
        current_delete(db.table("B"), lambda r: r.values[0] == 500, at=d(8, 12))
        session.flush()
        sub.reference_time = d(8, 20)  # after the refresh, before the read
        (event,) = received
        assert event.reference_time == d(8, 10)
        assert event.rows == event.result.instantiate(d(8, 10))
        assert event.rows != event.result.instantiate(d(8, 20))

    def test_changes_at_binds_only_the_delta(self):
        db = _database()
        session = LiveSession(db)
        received = []
        sub = session.subscribe(
            _bug_plan(), on_refresh=received.append, reference_time=d(8, 15)
        )
        before = sub.instantiate(d(8, 15))
        current_delete(db.table("B"), lambda r: r.values[0] == 500, at=d(8, 10))
        session.flush()
        (event,) = received
        inserted, deleted = event.changes_at()  # at the notification's rt
        assert set(deleted) == before - event.rows
        assert set(inserted) == event.rows - before
        assert event.changes_at(d(8, 15)) == event.changes_at()
        # Before the terminated row's end the change is invisible: the
        # old and the new tuple bind to the same fixed tuple there.
        early = event.changes_at(d(8, 5))
        assert early.inserted == early.deleted != ()
        assert not sub.bound_rows(d(8, 5)).apply(event)[0]

    def test_changes_at_without_any_reference_time_is_an_error(self):
        db = _database()
        session = LiveSession(db)
        received = []
        session.subscribe(_bug_plan(), on_refresh=received.append)
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        session.flush()
        with pytest.raises(ValueError, match="reference time"):
            received[0].changes_at()
        assert received[0].changes_at(d(8, 15)).inserted

    def test_instantiations_count_every_bind_and_nothing_else(self):
        db = _database()
        session = LiveSession(db)
        received = []
        sub = session.subscribe(
            _bug_plan(), on_refresh=received.append, reference_time=d(8, 15)
        )
        for bid in (502, 503, 504):
            db.table("B").insert(bid, "More", until_now(d(8, 2)))
            session.flush()
        for event in received:  # a delta-only consumer
            assert len(event.changes_at().inserted) == 1
        assert sub.stats.instantiations == 0
        for _ in range(3):  # however often: one bind per notification read
            assert len(received[0].rows) < len(received[-1].rows)
        assert sub.stats.instantiations == 2
        bound = sub.bound_rows()
        assert sub.stats.instantiations == 3
        db.table("B").insert(505, "More", until_now(d(8, 2)))
        session.flush()
        bound.apply(received[-1])
        assert bound.rows == received[-1].rows
        assert sub.stats.instantiations == 4  # the rows read, not the fold

    def test_resume_binds_nothing(self):
        db = _database()
        session = LiveSession(db)
        received = []
        session.subscribe(
            _bug_plan(),
            on_refresh=received.append,
            reference_time=d(8, 15),
            name="dash",
        )
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        session.flush()
        (manifest,) = capture_subscriptions(session)
        manifest["pending"] = serialize_notification(received.pop())
        session.close()
        (resumed,) = LiveSession(db).resume([manifest], on_refresh=received.append)
        (event,) = received  # re-enqueued, delivered inline
        assert resumed.stats.instantiations == 0
        assert event.rows == resumed.result.instantiate(d(8, 15))
        assert resumed.stats.instantiations == 1

    def test_bound_rows_needs_a_reference_time(self):
        session = LiveSession(_database())
        sub = session.subscribe(_bug_plan())
        with pytest.raises(QueryError, match="reference time"):
            sub.bound_rows()
        assert sub.bound_rows(d(8, 15)).rows == sub.result.instantiate(d(8, 15))

    def test_failing_callback_does_not_break_the_flush(self):
        db = _database()
        session = LiveSession(db)
        received = []

        def explode(event):
            raise RuntimeError("client went away")

        bad = session.subscribe(_bug_plan(), on_refresh=explode)
        good = session.subscribe(_bug_plan(), on_refresh=received.append)
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        assert session.flush() == 1
        assert len(received) == 1
        assert bad.stats.refreshes == good.stats.refreshes == 1
        # The failure is recorded against its subscription, not raised.
        ((key, error),) = session.bus.errors
        assert key == bad.id and isinstance(error, RuntimeError)


    def test_each_change_is_one_notification_per_subscription(self):
        """Two subscriptions of one shared plan: one write, one
        notification each, each published once.  Kills: the double
        publish (a second, session-wide copy of every notification)."""
        db = _database()
        session = LiveSession(db)
        heard = {"a": [], "b": []}
        subs = {
            name: session.subscribe(_bug_plan(), on_refresh=heard[name].append)
            for name in heard
        }
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        assert session.flush() == 1
        for name, sub in subs.items():
            (event,) = heard[name]
            assert event.subscription is sub
            assert sub.stats.notifications == 1
        bus = session.bus.stats()
        assert (bus["queued"], bus["delivered"], bus["listeners"]) == (2, 2, 2)
        assert session.stats()["repro_live_notifications_total"] == 2

    def test_a_subscription_without_a_callback_has_no_mailbox(self):
        """Only a subscription with a callback takes a mailbox, and
        closing it frees the mailbox."""
        db = _database()
        session = LiveSession(db)
        session.subscribe(_bug_plan())
        assert session.bus.stats()["listeners"] == 0
        heard = []
        sub = session.subscribe(_bug_plan(), on_refresh=heard.append)
        assert session.bus.stats()["listeners"] == 1
        sub.close()
        assert session.bus.stats()["listeners"] == 0
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        session.flush()
        assert heard == [] and session.bus.stats()["queued"] == 0

    def test_a_raising_callback_is_logged_against_its_subscription(self, caplog):
        db = _database()
        session = LiveSession(db)

        def explode(event):
            raise RuntimeError("client went away")

        bad = session.subscribe(_bug_plan(), on_refresh=explode)
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        with caplog.at_level(logging.ERROR, logger="repro.serve.bus"):
            session.flush()
        (record,) = [r for r in caplog.records if r.name == "repro.serve.bus"]
        assert repr(bad.id) in record.getMessage()
        assert isinstance(record.exc_info[1], RuntimeError)
        assert bad.stats.notifications == 0
        assert session.bus.stats()["delivery_errors"] == 1


class TestFailureIsolation:
    def test_failed_initial_evaluation_rolls_back_registration(self):
        """A plan whose first evaluation raises must not leave a dead
        cache entry that later subscribes of the same plan cache-hit."""
        session = LiveSession(_database())
        missing = scan("MISSING")
        with pytest.raises(QueryError, match="MISSING"):
            session.subscribe(missing)
        assert session.stats()["repro_live_shared_results"] == 0
        # A second attempt raises again instead of hitting a dead entry.
        with pytest.raises(QueryError, match="MISSING"):
            session.subscribe(scan("MISSING"))

    def test_dropped_table_does_not_abort_the_flush(self, caplog):
        """Per-plan error isolation: the failing plan keeps its last
        materialization, other dirty plans still refresh."""
        db = _database()
        session = LiveSession(db)
        doomed = session.subscribe(scan("P"))
        survivor = session.subscribe(_bug_plan())
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        db.drop_table("P")
        assert session.pending == 2
        with caplog.at_level(logging.ERROR, logger="repro.live.manager"):
            assert session.flush() == 1  # only the surviving plan re-evaluated
        assert survivor.stats.refreshes == 1
        assert doomed.stats.refreshes == 0
        assert len(doomed.result.tuples) == 1  # last materialization serves on
        (failure,) = [r for r in caplog.records if r.name == "repro.live.manager"]
        assert f"plan {doomed.fingerprint[:12]}," in failure.getMessage()
        assert isinstance(failure.exc_info[1], QueryError)
        assert session.stats()["repro_live_refresh_errors_total"] == 1

    def test_notification_counter_counts_real_deliveries_only(self):
        db = _database()
        session = LiveSession(db)
        session.subscribe(_bug_plan())  # no callback registered
        db.table("B").insert(502, "More", until_now(d(8, 2)))
        session.flush()
        assert session.stats()["repro_live_notifications_total"] == 0


class TestSqlSubscriptions:
    _SQL = "SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/01, 09/01)'"

    def test_subscribe_sql_matches_plan_subscription(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe_sql(self._SQL)
        assert sub.instantiate(d(8, 10)) == db.sql(self._SQL).instantiate(d(8, 10))

    def test_sqlish_subscribe_entry_point_shares_the_cache(self):
        db = _database()
        session = db.live_session()
        first = db.subscribe(self._SQL)
        second = session.subscribe_sql(self._SQL)
        assert first.fingerprint == second.fingerprint
        assert session.stats()["repro_live_shared_results"] == 1

    def test_osql_subscriptions_checkpoint_as_their_statement(self):
        db = _database()
        session = db.live_session()
        db.subscribe(self._SQL, name="through-db")
        session.subscribe_sql(self._SQL, name="through-session")
        entries = {entry["name"]: entry for entry in capture_subscriptions(session)}
        assert set(entries) == {"through-db", "through-session"}
        for entry in entries.values():
            assert entry["statement"] == self._SQL
            assert entry["plan"] is None

    def test_database_subscribe_convenience(self):
        db = _database()
        sub = db.subscribe(self._SQL)
        assert sub.active
        assert sub.manager.database is db

    def test_database_subscribe_recovers_from_a_closed_session(self):
        db = _database()
        first = db.subscribe(self._SQL)
        first.manager.close()
        second = db.subscribe(self._SQL)  # a fresh session is created
        assert second.active
        assert second.manager is not first.manager

    def test_aggregate_subscription_refreshes_by_group_delta(self):
        """A GROUP BY query subscribes like any other plan and refreshes
        via per-group deltas: a single-row write re-aggregates only its
        own group, never the whole relation."""
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe_sql("SELECT C, COUNT(*) AS N FROM B GROUP BY C")
        before = {row.values[0]: row.values[1] for row in sub.result}
        assert before["Spam filter"].instantiate(d(8, 1)) == 1
        db.table("B").insert(503, "Spam filter", until_now(d(8, 1)))
        session.flush()
        after = {row.values[0]: row.values[1] for row in sub.result}
        assert after["Spam filter"].instantiate(d(8, 1)) == 2
        assert after["Crash"] == before["Crash"]  # untouched group
        stats = session.stats()
        assert stats["repro_live_delta_refreshes_total"] == 1
        assert stats["repro_live_full_refreshes_total"] == 0

    def test_equal_aggregate_queries_share_one_materialization(self):
        db = _database()
        session = LiveSession(db)
        sql = "SELECT C, COUNT(*) AS N FROM B GROUP BY C"
        first = session.subscribe_sql(sql)
        second = session.subscribe_sql(sql)
        assert first.fingerprint == second.fingerprint
        assert session.stats()["repro_live_shared_results"] == 1
        assert session.stats()["repro_live_cache_hits_total"] == 1


class TestUpdateSemantics:
    def test_current_update_is_one_coalesced_refresh(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(scan("B"))
        current_update(
            db.table("B"),
            lambda row: row.values[0] == 500,
            (500, "Renamed"),
            at=d(6, 1),
        )
        assert sub.stats.pending_events == 1  # delete+insert = one event
        assert session.flush() == 1
        assert sub.stats.refreshes == 1
