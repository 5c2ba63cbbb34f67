"""End-to-end scenario: the paper's headline property, served live.

Acceptance criterion of the live-engine PR: after ``subscribe()``,
advancing the reference time triggers **zero** re-evaluations while
``instantiate(rt)`` stays correct at every rt, and a single current
delete triggers exactly one coalesced refresh on only the subscriptions
whose plans reference the modified table.
"""

from repro.core.interval import fixed_interval, until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _build_database():
    """The paper's running bug-tracker example, two independent tables."""
    db = Database("scenario")
    db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
    current_insert(db.table("B"), (500, "Spam filter"), at=d(1, 25))
    db.table("B").insert(501, "Crash", fixed_interval(d(3, 30), d(8, 21)))
    db.create_table("L", Schema.of("PID", "C", ("VT", "interval")))
    current_insert(db.table("L"), (1, "Spam filter"), at=d(2, 2))
    return db


def test_live_results_remain_valid_as_time_passes():
    db = _build_database()
    session = LiveSession(db)

    bug_plan = scan("B").where(
        col("VT").overlaps(lit(fixed_interval(d(8, 1), d(12, 31))))
    )
    bug_notifications = []
    load_notifications = []
    bug_sub = session.subscribe(
        bug_plan, on_refresh=bug_notifications.append, reference_time=d(8, 15)
    )
    load_sub = session.subscribe(
        scan("L"), on_refresh=load_notifications.append
    )
    assert session.stats()["repro_live_evaluations_total"] == 2  # one per distinct plan

    # --- Phase 1: time passes.  Zero re-evaluations, always correct. ----
    reference_times = [d(8, 5), d(9, 1), d(10, 15), d(12, 30)]
    for rt in reference_times:
        assert bug_sub.instantiate(rt) == db.query(bug_plan).instantiate(rt)
    assert session.stats()["repro_live_evaluations_total"] == 2  # still only the initial two
    assert session.pending == 0
    assert bug_notifications == [] and load_notifications == []
    assert bug_sub.stats.refreshes == 0

    # Before the deletion, bug 500 is current at every probed rt.
    assert all(
        500 in {row[0] for row in bug_sub.instantiate(rt)}
        for rt in reference_times
    )

    # --- Phase 2: one explicit modification. ----------------------------
    rows_before = len(db.table("B"))
    deleted = current_delete(
        db.table("B"), lambda row: row.values[0] == 500, at=d(9, 10)
    )
    assert deleted == 1
    assert len(db.table("B")) == rows_before  # in place: cardinality kept
    assert session.pending == 1  # only the B-plan is dirty
    assert load_sub.stats.pending_events == 0

    refreshed = session.flush()

    # Exactly one coalesced refresh, and only on the affected subscription.
    assert refreshed == 1
    assert session.stats()["repro_live_evaluations_total"] == 3
    assert bug_sub.stats.refreshes == 1
    assert bug_sub.stats.coalesced_events == 1
    assert load_sub.stats.refreshes == 0
    assert len(bug_notifications) == 1
    assert load_notifications == []
    (event,) = bug_notifications
    assert event.changed_tables == ("B",)
    assert event.rows == bug_sub.result.instantiate(d(8, 15))

    # --- Phase 3: the refreshed result is again valid at every rt. ------
    # Torp semantics: before the deletion time the bug *was* current, so
    # its VT still grows with the reference time there; at later rts the
    # end is frozen at the deletion time.
    vt_at = lambda rt: {row[0]: row[2] for row in bug_sub.instantiate(rt)}
    assert vt_at(d(9, 1))[500] == (d(1, 25), d(9, 1))      # still current
    assert vt_at(d(12, 30))[500] == (d(1, 25), d(9, 10))   # frozen end
    for rt in reference_times:
        assert bug_sub.instantiate(rt) == db.query(bug_plan).instantiate(rt)
    assert session.stats()["repro_live_evaluations_total"] == 3  # serving stayed free


def test_coalescing_many_modifications_into_one_refresh():
    db = _build_database()
    session = LiveSession(db)
    sub = session.subscribe(scan("B"))
    for offset in range(5):
        current_insert(db.table("B"), (600 + offset, "Flood"), at=d(8, 1 + offset))
    assert sub.stats.pending_events == 5
    assert session.flush() == 1  # five modifications, one re-evaluation
    assert sub.stats.refreshes == 1
    assert sub.stats.coalesced_events == 5
    assert {600, 601, 602, 603, 604} <= {
        row[0] for row in sub.instantiate(d(9, 1))
    }
