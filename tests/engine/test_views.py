"""Maintained ongoing views (Section IX-C), served by a session subscription.

A subscription is the one maintained, instantiable result: it is
materialized once on subscribe, bound to any reference time by
``instantiate``, and refreshed by ``LiveSession.flush`` only after a
modification of a table its plan reads.  A view is stale exactly while
its subscription has pending events.
"""

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.modifications import current_delete
from repro.engine.plan import scan
from repro.errors import QueryError
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _plan():
    return scan("B").where(
        col("VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1))))
    )


def _setup():
    db = Database("views")
    bugs = db.create_table("B", Schema.of("BID", ("VT", "interval")))
    bugs.insert(500, until_now(d(1, 25)))
    bugs.insert(501, fixed_interval(d(3, 30), d(8, 21)))
    session = LiveSession(db)
    return db, session, session.subscribe(_plan())


def _is_stale(session, view):
    return view.stats.pending_events > 0 or session.pending > 0


class TestRefreshAndServe:
    def test_result_before_refresh_raises(self):
        """There is no unrefreshed view: subscribing materializes the
        result.  Only a closed view refuses to serve it."""
        _, session, view = _setup()
        assert len(view.result.tuples) == 2
        assert session.stats()["repro_live_evaluations_total"] == 1
        view.close()
        with pytest.raises(QueryError, match="closed"):
            view.result

    def test_instantiate_matches_direct_query(self):
        db, _, view = _setup()
        direct = db.query(_plan())
        for rt in (d(7, 1), d(8, 10), d(10, 1)):
            assert view.instantiate(rt) == direct.instantiate(rt)

    def test_instantiations_at_different_rts_differ(self):
        _, _, view = _setup()
        early = view.instantiate(d(7, 1))
        late = view.instantiate(d(8, 10))
        assert early != late


class TestStaleness:
    def test_fresh_view_is_not_stale(self):
        _, session, view = _setup()
        assert not _is_stale(session, view)
        assert session.flush() == 0

    def test_unrefreshed_view_is_stale(self):
        """After a modification and before the flush, the view serves the
        result it last materialized and is stale."""
        db, session, view = _setup()
        db.table("B").insert(502, until_now(d(8, 20)))
        assert _is_stale(session, view)
        assert 502 not in [row[0] for row in view.instantiate(d(8, 25))]

    def test_time_passing_does_not_stale(self):
        _, session, view = _setup()
        # Instantiating at ever-later reference times is not a modification.
        view.instantiate(d(12, 31))
        assert not _is_stale(session, view)
        assert session.flush() == 0
        assert view.stats.refreshes == 0

    def test_insert_stales(self):
        db, session, view = _setup()
        db.table("B").insert(502, until_now(d(8, 20)))
        assert _is_stale(session, view)
        assert session.flush() == 1
        assert not _is_stale(session, view)
        assert 502 in [row[0] for row in view.instantiate(d(8, 25))]

    def test_current_delete_stales(self):
        """In-place modifications keep the cardinality constant; the
        event-driven staleness still catches them."""
        db, session, view = _setup()
        rows_before = len(db.table("B"))
        modified = current_delete(
            db.table("B"), lambda row: row.values[0] == 500, at=d(9, 10)
        )
        assert modified == 1
        assert len(db.table("B")) == rows_before
        assert _is_stale(session, view)

    def test_noop_modification_does_not_stale(self):
        db, session, view = _setup()
        # Bug 501's interval is fixed and already over at the deletion time.
        modified = current_delete(
            db.table("B"), lambda row: row.values[0] == 501, at=d(12, 1)
        )
        assert modified == 0
        assert not _is_stale(session, view)

    def test_unrelated_table_does_not_stale(self):
        """Only the tables the plan reads can stale the view."""
        db, session, view = _setup()
        db.create_table("P", Schema.of("PID", ("VT", "interval")))
        db.table("P").insert(1, until_now(d(2, 2)))
        assert not _is_stale(session, view)

    def test_closed_view_stops_listening(self):
        db, session, view = _setup()
        view.close()
        db.table("B").insert(502, until_now(d(8, 20)))
        assert session.pending == 0
        assert session.flush() == 0
        view.close()  # idempotent
