"""What ``Database.close()`` promises: a closed database refuses writes,
DDL and new sessions, and reference counting frees it as soon as the
last outside handle drops — a table, a subscription, or a notification
a callback kept."""

import gc
import weakref

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.delta import Delta
from repro.engine.modifications import current_delete, current_insert
from repro.engine.plan import scan
from repro.errors import QueryError
from repro.relational.predicates import col
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

_SCHEMA = Schema.of("K", ("VT", "interval"))


def _open(kind, tmp_path):
    return Database("closing") if kind == "memory" else Database.open(tmp_path)


def _table(db, name="R"):
    table = db.create_table(name, _SCHEMA)
    for key in range(3):
        table.insert(key, until_now(10 + key))
    return table


_WRITES = {
    "insert": lambda t: t.insert(9, until_now(30)),
    "insert_many": lambda t: t.insert_many([(9, until_now(30))]),
    "insert_tuples": lambda t: t.insert_tuples(
        [OngoingTuple((9, until_now(30)))]
    ),
    "empty_insert_many": lambda t: t.insert_many([]),
    "delete_where": lambda t: t.delete_where(lambda row: row.values[0] != 1),
    "replace_all": lambda t: t.replace_all([]),
    "apply_delta": lambda t: t.apply_delta(Delta.delete([next(iter(t.rows()))])),
    "restore": lambda t: t.restore([], 7),
    "batch": lambda t: _batched(t),
    "current_insert": lambda t: current_insert(t, (9,), at=40),
    "current_delete": lambda t: current_delete(
        t, lambda row: row.values[0] == 1, at=40
    ),
}


def _batched(table):
    with table.batch():
        table.insert(9, until_now(30))


class TestClosedDatabaseRefuses:
    @pytest.mark.parametrize("write", sorted(_WRITES))
    @pytest.mark.parametrize("kind", ["memory", "durable"])
    def test_a_write_to_a_closed_table_raises_before_the_heap_moves(
        self, tmp_path, kind, write
    ):
        db = _open(kind, tmp_path)
        table = _table(db)
        db.close()
        rows, version = tuple(table.rows()), table.version
        with pytest.raises(QueryError, match="closed database"):
            _WRITES[write](table)
        assert tuple(table.rows()) == rows
        assert table.version == version
        assert len(table) == len(rows)
        if kind == "durable":
            reopened = Database.open(tmp_path)
            assert tuple(reopened.table("R").rows()) == rows
            reopened.close()

    @pytest.mark.parametrize("kind", ["memory", "durable"])
    def test_ddl_on_a_closed_database_raises(self, tmp_path, kind):
        db = _open(kind, tmp_path)
        _table(db)
        db.close()
        with pytest.raises(QueryError, match="closed"):
            db.create_table("T", Schema.of("ID"))
        with pytest.raises(QueryError, match="closed"):
            db.drop_table("R")
        assert sorted(db.tables()) == ["R"]

    def test_live_session_after_close_raises_and_after_session_close_renews(self):
        db = Database("sessions")
        _table(db)
        first = db.live_session()
        first.close()
        second = db.live_session()
        assert second is not first and not second.closed
        db.close()
        assert second.closed
        with pytest.raises(QueryError, match="closed"):
            db.live_session()

    def test_reads_and_a_second_close_still_work(self, tmp_path):
        db = Database.open(tmp_path)
        table = _table(db)
        db.close()
        db.close()
        assert len(table) == 3
        assert len(db.relation("R")) == 3


class _Keeper:
    """A callback that keeps its last notification — as a dashboard
    holding the latest frame does."""

    def __init__(self):
        self.last = None

    def __call__(self, notification):
        self.last = notification


def test_a_closed_database_is_freed_by_reference_counting(tmp_path):
    """Under ``gc.disable()`` a closed durable database with a live
    session, shared sub-plans and callbacks that kept notifications is
    gone once the outside handles drop: ``close()`` leaves no cycle."""
    gc.collect()
    gc.disable()
    try:
        db = Database.open(tmp_path, session={"delivery_workers": 1})
        tables = {name: _table(db, name) for name in "ASB"}
        inner = scan("A").join(
            scan("S"), on=col("A.K") == col("S.K"), left_name="A", right_name="S"
        )
        outer = inner.join(scan("B"), on=col("A.K") == col("B.K"), right_name="B")
        session = db.live_session()
        kept = [_Keeper() for _ in range(3)]
        subscriptions = [
            session.subscribe(inner, on_refresh=kept[0], reference_time=20),
            session.subscribe(outer, on_refresh=kept[1], reference_time=20),
            session.subscribe_sql(
                "SELECT * FROM A WHERE K = 1", on_refresh=kept[2], reference_time=20
            ),
        ]
        for name in "ASB":
            tables[name].insert(1, until_now(25))
        session.flush()
        session.bus.drain()
        assert all(keeper.last is not None for keeper in kept)
        db.checkpoint()
        refs = {
            "database": weakref.ref(db),
            "durable layer": weakref.ref(db._durability),
            "session": weakref.ref(session),
            "table": weakref.ref(tables["A"]),
            "maintainer": weakref.ref(subscriptions[1]._maintainer),
        }
        db.close()
        del db, tables, session, subscriptions, kept
        assert {name: ref() for name, ref in refs.items()} == dict.fromkeys(refs)
        # Nor is any smaller part left in a cycle of its own.
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = {type(item).__qualname__ for item in gc.garbage
                if type(item).__module__.startswith("repro.")}
        assert left == set()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
