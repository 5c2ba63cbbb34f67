"""Unit tests for materialized ongoing views (Section IX-C)."""

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.engine.views import MaterializedOngoingView
from repro.errors import QueryError
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _setup():
    db = Database("views")
    bugs = db.create_table("B", Schema.of("BID", ("VT", "interval")))
    bugs.insert(500, until_now(d(1, 25)))
    bugs.insert(501, fixed_interval(d(3, 30), d(8, 21)))
    plan = scan("B").where(
        col("VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1))))
    )
    return db, MaterializedOngoingView("open", plan, db)


class TestRefreshAndServe:
    def test_result_before_refresh_raises(self):
        _, view = _setup()
        with pytest.raises(QueryError, match="refreshed"):
            view.result

    def test_instantiate_matches_direct_query(self):
        db, view = _setup()
        view.refresh()
        direct = db.query(view.plan)
        for rt in (d(7, 1), d(8, 10), d(10, 1)):
            assert view.instantiate(rt) == direct.instantiate(rt)

    def test_instantiations_at_different_rts_differ(self):
        _, view = _setup()
        view.refresh()
        early = view.instantiate(d(7, 1))
        late = view.instantiate(d(8, 10))
        assert early != late


class TestStaleness:
    def test_fresh_view_is_not_stale(self):
        _, view = _setup()
        view.refresh()
        assert not view.is_stale()

    def test_unrefreshed_view_is_stale(self):
        _, view = _setup()
        assert view.is_stale()

    def test_time_passing_does_not_stale(self):
        _, view = _setup()
        view.refresh()
        # Instantiating at ever-later reference times is not a modification.
        view.instantiate(d(12, 31))
        assert not view.is_stale()

    def test_insert_stales(self):
        db, view = _setup()
        view.refresh()
        db.table("B").insert(502, until_now(d(8, 20)))
        assert view.is_stale()
        view.refresh()
        assert not view.is_stale()
        assert 502 in [row[0] for row in view.instantiate(d(8, 25))]

    def test_current_delete_stales(self):
        """In-place modifications keep the cardinality constant; the
        event-driven staleness flag still catches them (the old length
        polling could not)."""
        from repro.engine.modifications import current_delete

        db, view = _setup()
        view.refresh()
        modified = current_delete(
            db.table("B"), lambda row: row.values[0] == 500, at=d(9, 10)
        )
        assert modified == 1
        assert view.is_stale()

    def test_noop_modification_does_not_stale(self):
        from repro.engine.modifications import current_delete

        db, view = _setup()
        view.refresh()
        # Bug 501's interval is fixed and already over at the deletion time.
        modified = current_delete(
            db.table("B"), lambda row: row.values[0] == 501, at=d(12, 1)
        )
        assert modified == 0
        assert not view.is_stale()

    def test_unrelated_table_does_not_stale(self):
        """Only the tables the plan reads can stale the view."""
        db, view = _setup()
        db.create_table("P", Schema.of("PID", ("VT", "interval")))
        view.refresh()
        db.table("P").insert(1, until_now(d(2, 2)))
        assert not view.is_stale()

    def test_closed_view_stops_listening(self):
        db, view = _setup()
        view.refresh()
        view.close()
        db.table("B").insert(502, until_now(d(8, 20)))
        assert not view.is_stale()
        view.close()  # idempotent

    def test_abandoned_view_is_not_pinned_by_the_database(self):
        """The change listener only holds a weak reference: dropping the
        last reference to a view frees it, and the next change event
        deregisters the dead listener — no close() required (the old
        polling design needed no cleanup either)."""
        import gc
        import weakref

        db, view = _setup()
        view.refresh()
        listeners_with_view = len(db._delta_listeners)
        view_ref = weakref.ref(view)
        del view
        gc.collect()
        assert view_ref() is None  # the database did not keep it alive
        db.table("B").insert(502, until_now(d(8, 20)))  # triggers cleanup
        assert len(db._delta_listeners) == listeners_with_view - 1
