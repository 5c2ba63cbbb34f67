"""Plan → table dependencies: which plans does a modification invalidate?

A session routes a modified table to the fingerprints of the plans that
read it; ``stats()["table_fanout"]`` (``table → number of dependent
plans``) is the public witness of that routing map.
"""

from repro.core.interval import until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import Scan, scan
from repro.live import LiveSession
from repro.relational.predicates import col
from repro.relational.schema import Schema


class TestReferencedTables:
    def test_single_scan(self):
        assert Scan("B").referenced_tables() == frozenset({"B"})

    def test_join_and_set_operations(self):
        plan = (
            Scan("B")
            .join(Scan("P"), on=col("B.C") == col("P.C"))
            .difference(scan("L").select_columns("X"))
        )
        assert plan.referenced_tables() == frozenset({"B", "P", "L"})

    def test_self_join_reports_table_once(self):
        plan = Scan("B").join(Scan("B"), on=col("L.K") == col("R.K"))
        assert plan.referenced_tables() == frozenset({"B"})


def _three_tables():
    db = Database("deps")
    for name, key in (("B", "BID"), ("P", "PID"), ("L", "LID")):
        db.create_table(name, Schema.of(key, ("VT", "interval"))).insert(
            1, until_now(mmdd(1, 25))
        )
    return db


class TestDependencyIndex:
    """The routing map, driven through a session: q1 reads B and P, q2
    reads B, q3 reads L."""

    @staticmethod
    def _session():
        db = _three_tables()
        session = LiveSession(db)
        q1 = session.subscribe(
            scan("B").join(
                scan("P"), on=col("B.BID") == col("P.PID"),
                left_name="B", right_name="P",
            )
        )
        q2 = session.subscribe(scan("B"))
        q3 = session.subscribe(scan("L"))
        return db, session, (q1, q2, q3)

    def test_affected_resolves_only_dependents(self):
        db, session, (q1, q2, q3) = self._session()
        for table, dependents in (("B", {q1, q2}), ("P", {q1}), ("L", {q3})):
            db.table(table).insert(2, until_now(mmdd(3, 3)))
            pending = {
                sub for sub in (q1, q2, q3) if sub.stats.pending_events
            }
            assert pending == dependents, table
            assert session.flush() == len(dependents)
        db.create_table("unknown", Schema.of("K", ("VT", "interval"))).insert(
            1, until_now(mmdd(1, 1))
        )
        assert session.pending == 0
        session.close()

    def test_table_fanout(self):
        _, session, _ = self._session()
        assert session.stats()["table_fanout"] == {"B": 2, "P": 1, "L": 1}
        session.close()
        assert session.stats()["table_fanout"] == {}


class TestManagerUnregistration:
    """Cancelling the last subscription on a table unregisters the table:
    a stale entry would keep a dead table name alive in the routing map
    and make intake pay for plans that no longer exist."""

    @staticmethod
    def _database():
        db = Database("deps")
        bugs = db.create_table("B", Schema.of("BID", ("VT", "interval")))
        bugs.insert(500, until_now(mmdd(1, 25)))
        people = db.create_table("P", Schema.of("PID", ("VT", "interval")))
        people.insert(1, until_now(mmdd(2, 2)))
        return db

    def test_last_subscription_unregisters_its_tables(self):
        db = self._database()
        session = LiveSession(db)
        join_sub = session.subscribe(
            scan("B").join(
                scan("P"), on=col("B.BID") == col("P.PID"),
                left_name="B", right_name="P",
            )
        )
        bugs_sub = session.subscribe(scan("B"))
        assert session.stats()["table_fanout"] == {"B": 2, "P": 1}
        join_sub.close()
        # P's only reader is gone; B still has a live subscription.
        assert session.stats()["table_fanout"] == {"B": 1}
        db.table("P").insert(2, until_now(mmdd(3, 3)))
        assert session.pending == 0
        bugs_sub.close()
        assert session.stats()["table_fanout"] == {}
        assert session.stats()["repro_live_shared_results"] == 0

    def test_shared_fingerprint_unregisters_only_after_both_close(self):
        db = self._database()
        session = LiveSession(db)
        first = session.subscribe(scan("P"))
        second = session.subscribe(scan("P"))  # same fingerprint, shared
        first.close()
        assert session.stats()["table_fanout"] == {"P": 1}
        second.close()
        assert session.stats()["table_fanout"] == {}

    def test_events_after_unregistration_do_not_dirty(self):
        db = self._database()
        session = LiveSession(db)
        sub = session.subscribe(scan("P"))
        (shared,) = session.shared_results()
        sub.close()
        db.table("P").insert(2, until_now(mmdd(3, 3)))
        assert session.pending == 0
        assert shared.pending_snapshot() == {}  # intake no longer reaches it
