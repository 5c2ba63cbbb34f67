"""DependencyIndex: table → subscription invalidation in O(affected)."""

from repro.core.interval import until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import Scan, scan
from repro.live import DependencyIndex, LiveSession, referenced_tables
from repro.relational.predicates import col
from repro.relational.schema import Schema


class TestReferencedTables:
    def test_single_scan(self):
        assert referenced_tables(Scan("B")) == frozenset({"B"})

    def test_join_and_set_operations(self):
        plan = (
            Scan("B")
            .join(Scan("P"), on=col("B.C") == col("P.C"))
            .difference(scan("L").select_columns("X"))
        )
        assert referenced_tables(plan) == frozenset({"B", "P", "L"})

    def test_self_join_reports_table_once(self):
        plan = Scan("B").join(Scan("B"), on=col("L.K") == col("R.K"))
        assert referenced_tables(plan) == frozenset({"B"})


class TestDependencyIndex:
    def test_affected_resolves_only_dependents(self):
        index = DependencyIndex()
        index.add("q1", {"B", "P"})
        index.add("q2", {"B"})
        index.add("q3", {"L"})
        assert index.affected("B") == frozenset({"q1", "q2"})
        assert index.affected("P") == frozenset({"q1"})
        assert index.affected("L") == frozenset({"q3"})
        assert index.affected("unknown") == frozenset()

    def test_remove_unlinks_everywhere(self):
        index = DependencyIndex()
        index.add("q1", {"B", "P"})
        index.remove("q1")
        assert "q1" not in index
        assert index.affected("B") == frozenset()
        assert index.affected("P") == frozenset()
        assert len(index) == 0
        index.remove("q1")  # idempotent

    def test_re_add_replaces_dependency_set(self):
        index = DependencyIndex()
        index.add("q1", {"B"})
        index.add("q1", {"P"})
        assert index.affected("B") == frozenset()
        assert index.affected("P") == frozenset({"q1"})
        assert index.tables_of("q1") == frozenset({"P"})

    def test_table_fanout(self):
        index = DependencyIndex()
        index.add("q1", {"B", "P"})
        index.add("q2", {"B"})
        assert index.table_fanout() == {"B": 2, "P": 1}

    def test_tables_shrink_with_their_last_key(self):
        """Removing a key must unregister every table only that key read —
        stale table entries would keep dead table names alive in
        ``tables()``/``table_fanout()`` forever."""
        index = DependencyIndex()
        index.add("q1", {"B", "P"})
        index.add("q2", {"B"})
        assert index.tables() == frozenset({"B", "P"})
        index.remove("q1")
        assert index.tables() == frozenset({"B"})  # P's last key left
        assert "P" not in index.table_fanout()
        index.remove("q2")
        assert index.tables() == frozenset()
        assert index.table_fanout() == {}

    def test_re_add_does_not_leak_old_tables(self):
        index = DependencyIndex()
        index.add("q1", {"B", "P"})
        index.add("q1", {"L"})  # replaces the dependency set
        assert index.tables() == frozenset({"L"})


class TestManagerUnregistration:
    """The live manager must drive the index through the same contract:
    cancelling the last subscription on a table unregisters the table."""

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
        assert session._dependencies.tables() == frozenset({"B", "P"})
        join_sub.close()
        # P's only reader is gone; B still has a live subscription.
        assert session._dependencies.tables() == frozenset({"B"})
        assert session._dependencies.affected("P") == frozenset()
        bugs_sub.close()
        assert session._dependencies.tables() == frozenset()
        assert len(session._dependencies) == 0

    def test_shared_fingerprint_unregisters_only_after_both_close(self):
        db = self._database()
        session = LiveSession(db)
        first = session.subscribe(scan("P"))
        second = session.subscribe(scan("P"))  # same fingerprint, shared
        first.close()
        assert session._dependencies.tables() == frozenset({"P"})
        second.close()
        assert session._dependencies.tables() == frozenset()

    def test_events_after_unregistration_do_not_dirty(self):
        db = self._database()
        session = LiveSession(db)
        sub = session.subscribe(scan("P"))
        (shared,) = session.shared_results()
        sub.close()
        db.table("P").insert(2, until_now(mmdd(3, 3)))
        assert session.pending == 0
        assert shared.pending_snapshot() == {}  # intake no longer reaches it
