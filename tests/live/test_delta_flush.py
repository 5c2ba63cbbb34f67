"""Live-engine delta routing: incremental flushes and change filters.

PR 1 re-evaluated every dirty plan from scratch on flush; the delta
engine propagates the modification's rows instead.  These tests pin the
manager-level contracts: the incremental path actually carries flushes,
subscriptions whose result did not change stay silent (the
subscription-level change filter), notifications carry the result-level
delta, and every non-incrementalizable situation falls back to a full
re-evaluation without changing observable results.
"""

import logging

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_update
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


def d(month, day):
    return mmdd(month, day)


def _database():
    db = Database("delta-live")
    bugs = db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
    bugs.insert(500, "Spam filter", until_now(d(1, 25)))
    bugs.insert(501, "Crash", fixed_interval(d(3, 30), d(8, 21)))
    bugs.insert(502, "Other", until_now(d(2, 10)))
    return db


def _spam_plan():
    return scan("B").where(col("C") == lit("Spam filter"))


class TestIncrementalFlush:
    def test_flush_rides_the_delta_path(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        session.flush()
        stats = session.stats()
        assert stats["repro_live_delta_refreshes_total"] == 1
        assert stats["repro_live_full_refreshes_total"] == 0
        assert stats["repro_live_evaluations_total"] == 2  # initial + the delta refresh
        assert 503 in [row[0] for row in sub.instantiate(d(6, 1))]

    def test_delta_result_equals_full_reevaluation(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        current_update(
            db.table("B"),
            lambda r: r.values[0] == 500,
            (500, "Spam filter"),
            at=d(7, 1),
        )
        session.flush()
        expected = db.query(_spam_plan())
        assert frozenset(sub.result.tuples) == frozenset(expected.tuples)

    def test_bulk_swap_refreshes_incrementally(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        db.table("B").replace_all(
            [OngoingTuple((600, "Spam filter", until_now(d(4, 1))))]
        )
        session.flush()
        stats = session.stats()
        assert stats["repro_live_full_refreshes_total"] == 0
        assert stats["repro_live_delta_refreshes_total"] == 1
        assert [row[0] for row in sub.instantiate(d(5, 1))] == [600]

    def test_a_refused_delta_falls_back_to_full(self, force_fallback):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        db.table("B").replace_all(
            [OngoingTuple((600, "Spam filter", until_now(d(4, 1))))]
        )
        force_fallback(sub)
        session.flush()
        stats = session.stats()
        assert stats["repro_live_full_refreshes_total"] == 1
        assert stats["repro_live_delta_refreshes_total"] == 0
        assert [row[0] for row in sub.instantiate(d(5, 1))] == [600]

    def test_delta_path_resumes_after_a_fallback(self, force_fallback):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        db.table("B").replace_all(
            [OngoingTuple((600, "Spam filter", until_now(d(4, 1))))]
        )
        force_fallback(sub)
        session.flush()  # fallback rebuilds the operator state...
        db.table("B").insert(601, "Spam filter", until_now(d(5, 1)))
        session.flush()  # ...so this one is incremental again
        assert session.stats()["repro_live_delta_refreshes_total"] == 1
        assert {row[0] for row in sub.instantiate(d(6, 1))} == {600, 601}


class TestRebuild:
    def test_a_drop_rebuilds_once_and_logs_it(self, fallback_log):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        db.drop_table("B")
        recreated = db.create_table(
            "B", Schema.of("BID", "C", ("VT", "interval"))
        )
        recreated.insert(900, "Spam filter", until_now(d(5, 1)))
        session.flush()
        (record,) = fallback_log()
        assert f"plan {sub.fingerprint[:12]}" in record
        assert "delta=rebuild" in record
        stats = session.stats()
        assert stats["repro_live_full_refreshes_total"] == 1
        assert stats["repro_live_delta_refreshes_total"] == 0
        assert [t.values[0] for t in sub.result.tuples] == [900]


class TestOneMeaningPerCounter:
    def test_session_totals_are_the_plans_own_counters(self, force_fallback):
        """Each refresh is counted once, by the plan it happened to: the
        session's totals are the sum over its plans, survive a plan's
        last unsubscribe, and are what the explain header shows — so
        ``full_refreshes`` counts refreshes that re-evaluated and the
        subscribe-time evaluation is an ``evaluations`` only."""
        db = _database()
        session = LiveSession(db)
        spam = session.subscribe(_spam_plan())
        crash = session.subscribe(scan("B").where(col("C") == lit("Crash")))
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        session.flush()
        db.table("B").insert(504, "Crash", until_now(d(5, 2)))
        session.flush()
        db.table("B").insert(505, "Other", until_now(d(5, 3)))
        force_fallback(spam)
        force_fallback(crash)
        session.flush()
        names = ("evaluations", "delta_refreshes", "full_refreshes")

        def totals():
            stats = session.stats()
            return {name: stats[f"repro_live_{name}_total"] for name in names}

        before = totals()
        assert before == {
            "evaluations": 8,  # 2 subscribes + 2 plans × 3 writes
            "delta_refreshes": 4,
            "full_refreshes": 2,  # the forced fallback, once per plan
        }
        plans = session.shared_results()
        assert before == {
            name: sum(getattr(plan, name) for plan in plans) for name in names
        }
        for sub in (spam, crash):
            header = sub.explain_analyze().splitlines()[1]
            for name in names:
                assert f"{name}={before[name] // 2} " in header
        crash.close()
        assert totals() == before
        session.close()


class TestChangeFilter:
    def test_irrelevant_row_update_stays_silent(self):
        """The subscription-level filter: modifying a row the plan filters
        out produces an empty propagated delta — and no notification."""
        db = _database()
        session = LiveSession(db)
        received = []
        sub = session.subscribe(_spam_plan(), on_refresh=received.append)
        current_update(
            db.table("B"),
            lambda r: r.values[0] == 502,  # "Other" — not a Spam filter row
            (502, "Other"),
            at=d(6, 1),
        )
        session.flush()
        assert received == []
        assert sub.stats.notifications == 0
        assert sub.stats.suppressed == 1
        assert sub.stats.pending_events == 0  # the flush still drained it
        assert session.stats()["repro_live_suppressed_notifications_total"] == 1

    def test_relevant_change_notifies_with_the_result_delta(self):
        db = _database()
        session = LiveSession(db)
        received = []
        session.subscribe(_spam_plan(), on_refresh=received.append)
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        session.flush()
        (event,) = received
        assert event.delta is not None
        assert [t.values[0] for t in event.delta.inserted] == [503]
        assert event.delta.deleted == ()

    def test_unchanged_full_fallback_is_also_silent(self, force_fallback):
        """Suppression works on the fallback path too: a re-evaluation
        that happens to leave the result identical stays silent."""
        db = _database()
        session = LiveSession(db)
        received = []
        sub = session.subscribe(_spam_plan(), on_refresh=received.append)
        # A row the plan filters out, refreshed through the full path.
        db.table("B").insert(505, "Other", until_now(d(5, 3)))
        force_fallback(sub)
        session.flush()
        assert session.stats()["repro_live_full_refreshes_total"] == 1
        assert received == []
        assert session.stats()["repro_live_suppressed_notifications_total"] == 1

    def test_mixed_subscribers_one_refresh(self):
        """One shared result, one subscriber listening and one not: a
        write that leaves the result as it was silences both and
        publishes nothing; one that changes it reaches the listener
        once."""
        db = _database()
        session = LiveSession(db)
        heard = []
        listening = session.subscribe(_spam_plan(), on_refresh=heard.append)
        quiet = session.subscribe(_spam_plan())
        current_update(
            db.table("B"),
            lambda r: r.values[0] == 502,
            (502, "Other"),
            at=d(6, 1),
        )
        session.flush()
        assert heard == []
        assert listening.stats.suppressed == quiet.stats.suppressed == 1
        assert session.bus.stats()["queued"] == 0
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        session.flush()
        assert len(heard) == 1
        assert listening.stats.notifications == 1
        assert quiet.stats.notifications == 0
        assert session.stats()["repro_live_evaluations_total"] == 3


class TestPendingDeltaHousekeeping:
    def test_unsubscribe_drops_pending_deltas(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        (shared,) = session.shared_results()
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        assert shared.pending_snapshot()  # accumulated while dirty
        sub.close()
        assert session.shared_results() == []  # gone with its deltas
        assert session.flush() == 0

    def test_coalesced_deltas_apply_once(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_spam_plan())
        for bid in (503, 504, 505):
            db.table("B").insert(bid, "Spam filter", until_now(d(5, 1)))
        current_delete(db.table("B"), lambda r: r.values[0] == 504, at=d(6, 1))
        assert session.flush() == 1
        assert session.stats()["repro_live_delta_refreshes_total"] == 1
        expected = db.query(_spam_plan())
        assert frozenset(sub.result.tuples) == frozenset(expected.tuples)

    def test_delta_path_error_is_isolated_per_plan(self, caplog):
        """An exception raised *inside* delta propagation (not a clean
        NonIncrementalDelta) must not abort the flush: the failing plan
        recovers via full re-evaluation or is counted and logged, and
        every other dirty plan still refreshes."""
        db = _database()
        session = LiveSession(db)
        # BID > 100 raises once a row with BID=None arrives — on the
        # delta path and on the full path alike.
        doomed = session.subscribe(scan("B").where(col("BID") > lit(100)))
        survivor = session.subscribe(_spam_plan())
        db.table("B").insert(None, "Spam filter", until_now(d(5, 1)))
        with caplog.at_level(logging.ERROR, logger="repro.live.manager"):
            assert session.flush() == 1  # the survivor refreshed
        assert survivor.stats.refreshes == 1
        assert doomed.stats.refreshes == 0
        (failure,) = [r for r in caplog.records if r.name == "repro.live.manager"]
        assert f"plan {doomed.fingerprint[:12]}," in failure.getMessage()
        assert session.stats()["repro_live_refresh_errors_total"] == 1
        # the doomed plan keeps serving its last good materialization
        assert doomed.result is not None

    def test_reentrant_flush_from_callback_stays_exact(self):
        """A refresh callback that writes and flushes mid-flush must not
        corrupt operator state: nested flushes are deferred and drained
        in order, and the final result matches a fresh evaluation."""
        db = _database()
        session = LiveSession(db)
        fired = []

        def write_once_more(event):
            if not fired:
                fired.append(True)
                db.table("B").insert(504, "Spam filter", until_now(d(6, 1)))
                session.flush()  # re-entrant: deferred, not corrupting

        sub = session.subscribe(_spam_plan(), on_refresh=write_once_more)
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        session.flush()
        assert session.pending == 0  # the nested request was drained
        expected = db.query(_spam_plan())
        assert frozenset(sub.result.tuples) == frozenset(expected.tuples)
        assert {row[0] for row in sub.instantiate(d(7, 1))} >= {503, 504}
        assert session.stats()["repro_live_full_refreshes_total"] == 0

    def test_callback_flush_in_manual_session_is_drained(self):
        """An explicit flush() from a refresh callback must be honored:
        the outer flush drains it before returning."""
        db = _database()
        session = LiveSession(db)
        other_plan = scan("B").where(col("C") == lit("Crash"))
        other_seen = []
        session.subscribe(other_plan, on_refresh=other_seen.append)
        fired = []

        def cascade(event):
            if not fired:
                fired.append(True)
                db.table("B").insert(
                    510, "Crash", until_now(d(6, 1))
                )
                session.flush()  # re-entrant, must not be lost

        session.subscribe(_spam_plan(), on_refresh=cascade)
        db.table("B").insert(509, "Spam filter", until_now(d(5, 1)))
        session.flush()
        assert session.pending == 0  # the cascade was drained
        assert len(other_seen) == 1
        assert 510 in [t.values[0] for t in other_seen[0].result.tuples]

    def test_full_fallback_consumes_midround_deltas(self):
        """A full re-evaluation reads tables as of *now* — row deltas a
        callback accumulated for that plan earlier in the same round are
        already inside the rebuilt state and must not be applied again
        on the next flush (they would double-count and make a later
        delete a no-op)."""
        db = _database()
        db.create_table("P", Schema.of("PID", ("VT", "interval"))).insert(
            10, until_now(d(2, 2))
        )
        session = LiveSession(db)
        fired = []

        def insert_into_p(event):
            if not fired:
                fired.append(True)
                db.table("P").insert(99, until_now(d(6, 1)))

        session.subscribe(_spam_plan(), on_refresh=insert_into_p)
        p_sub = session.subscribe(scan("P"))
        # order matters: the spam plan refreshes first (its callback
        # writes P mid-round), then P refreshes the swap and the write.
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        db.table("P").replace_all(
            (*db.table("P").rows(), OngoingTuple((11, until_now(d(3, 1)))))
        )
        session.flush()
        assert {t.values[0] for t in p_sub.result.tuples} == {10, 11, 99}
        # deleting the callback-inserted row must actually retract it
        db.table("P").delete_where(lambda row: row.values[0] != 99)
        session.flush()
        assert {t.values[0] for t in p_sub.result.tuples} == {10, 11}
        assert frozenset(p_sub.result.tuples) == frozenset(
            db.query(scan("P")).tuples
        )

    def test_dropped_and_recreated_table_serves_fresh_rows_only(self):
        """After a drop + re-create, deltas must not resurrect pre-drop
        state (the stale-warm-state regression)."""
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(scan("B"))
        db.drop_table("B")
        session.flush()  # errors, isolated; state invalidated
        recreated = db.create_table(
            "B", Schema.of("BID", "C", ("VT", "interval"))
        )
        recreated.insert(900, "Fresh", until_now(d(5, 1)))
        session.flush()
        assert [t.values[0] for t in sub.result.tuples] == [900]

    def test_dropped_table_still_isolated(self):
        """The delta intake keeps PR 1's per-plan error isolation."""
        db = _database()
        db.create_table("P", Schema.of("PID", ("VT", "interval"))).insert(
            1, until_now(d(2, 2))
        )
        session = LiveSession(db)
        doomed = session.subscribe(scan("P"))
        survivor = session.subscribe(_spam_plan())
        db.table("B").insert(503, "Spam filter", until_now(d(5, 1)))
        db.drop_table("P")
        assert session.flush() == 1
        assert survivor.stats.refreshes == 1
        assert doomed.stats.refreshes == 0
        assert session.stats()["repro_live_refresh_errors_total"] == 1
