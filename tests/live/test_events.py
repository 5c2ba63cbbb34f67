"""Database delta listeners, and the event bus without workers: the contract's
``workers=0`` rows (the ``workers=2`` rows are in
``tests/serve/test_bus.py``)."""

from repro.core.interval import until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_insert
from repro.live import EventBus
from repro.relational.schema import Schema
from tests.serve.bus_contract import BusContract, explode


def d(month, day):
    return mmdd(month, day)


class TestEventBus(BusContract):
    """The contract's ``workers=0`` row, and what only holds when the
    publishing thread runs the listeners."""

    workers = 0

    def test_publish_delivers_in_order_before_returning(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", seen.append)
        for payload in range(3):
            assert bus.publish("t", payload) is True
            assert seen[-1] == payload  # delivered before publish returned
        assert seen == [0, 1, 2]

    def test_failing_listener_does_not_starve_peers(self):
        bus = EventBus()
        seen = []
        bus.subscribe("bad", explode)
        bus.subscribe("good", seen.append)
        assert bus.publish("bad", "payload") is False  # it did not return
        assert bus.publish("good", "payload") is True
        assert seen == ["payload"]  # before publish returned

    def test_inline_delivery_answers_the_queueing_questions(self):
        """Without workers nothing is ever queued: the queueing questions
        have empty answers, from the same code that answers them with."""
        delivered = []
        bus = EventBus(on_delivered=delivered.append)
        seen = []
        bus.subscribe("t", seen.append, capacity=1)
        bus.subscribe("bad", lambda payload: 1 / 0)
        assert bus.publish("t", "a") and not bus.publish("bad", "a")
        assert delivered == ["a"]  # once per successful delivery only
        assert bus.backlog() == 0
        assert bus.oldest_commit_age("t") is None
        assert bus.capture_pending("t") == ()
        assert bus.restore_pending("t", ("b", "c")) == 2  # = publish
        assert seen == ["a", "b", "c"]
        assert bus.drain(timeout=0) is True
        bus.close()
        assert bus.publish("t", "d") == 1  # nothing to stop


class TestDatabaseChangeEvents:
    """The catalog-wide delta channel: one event per modification."""

    def _database(self):
        db = Database("events")
        db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
        return db

    def test_events_carry_table_and_monotonic_version(self):
        db = self._database()
        events = []
        db.add_delta_listener(
            lambda table, version, delta: events.append((table, version, delta))
        )
        table = db.table("B")
        table.insert(500, "X", until_now(d(1, 25)))
        current_insert(db.table("B"), (501, "Y"), at=d(2, 1))
        current_delete(db.table("B"), lambda row: row.values[0] == 500, at=d(3, 1))
        assert [(table, version) for table, version, _ in events] == [
            ("B", 1),
            ("B", 2),
            ("B", 3),
        ]
        assert [len(delta.inserted) for _, _, delta in events] == [1, 1, 1]
        assert [len(delta.deleted) for _, _, delta in events] == [0, 0, 1]
        assert db.table_version("B") == 3
        assert db.table_versions() == {"B": 3}

    def test_removed_listener_hears_nothing(self):
        db = self._database()
        events = []
        listener = db.add_delta_listener(
            lambda table, version, delta: events.append(table)
        )
        db.remove_delta_listener(listener)
        db.table("B").insert(500, "X", until_now(d(1, 25)))
        assert events == []

    def test_batch_coalesces_to_one_event(self):
        db = self._database()
        events = []
        db.add_delta_listener(
            lambda table, version, delta: events.append(
                (table, version, len(delta.inserted))
            )
        )
        table = db.table("B")
        with table.batch():
            table.insert(500, "X", until_now(d(1, 25)))
            table.insert(501, "Y", until_now(d(1, 26)))
            with table.batch():  # nested batches coalesce into the outermost
                table.insert(502, "Z", until_now(d(1, 27)))
        assert events == [("B", 1, 3)]
        assert len(table) == 3

    def test_empty_batch_emits_nothing(self):
        db = self._database()
        events = []
        db.add_delta_listener(lambda table, version, delta: events.append(table))
        with db.table("B").batch():
            pass
        assert events == []
        assert db.table_version("B") == 0

    def test_drop_table_notifies_once(self):
        db = self._database()
        events = []
        db.add_delta_listener(
            lambda table, version, delta: events.append(
                (table, version, delta)
            )
        )
        db.drop_table("B")
        assert events == [("B", 1, None)]
