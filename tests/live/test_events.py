"""Change events and the event bus (fan-out, error isolation)."""

import pytest

from repro.core.interval import until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_insert
from repro.live import ChangeEvent, EventBus
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


class TestEventBus:
    def test_publish_reaches_all_listeners_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", lambda payload: seen.append(("a", payload)))
        bus.subscribe("t", lambda payload: seen.append(("b", payload)))
        assert bus.publish("t", 1) == 2
        assert seen == [("a", 1), ("b", 1)]

    def test_unsubscribe_thunk(self):
        bus = EventBus()
        seen = []
        cancel = bus.subscribe("t", seen.append)
        cancel()
        cancel()  # idempotent
        assert bus.publish("t", 1) == 0
        assert seen == []

    def test_failing_listener_does_not_starve_peers(self):
        bus = EventBus()
        seen = []

        def explode(payload):
            raise RuntimeError("boom")

        bus.subscribe("t", explode)
        bus.subscribe("t", seen.append)
        assert bus.publish("t", "payload") == 1
        assert seen == ["payload"]
        ((topic, listener, error),) = bus.errors
        assert topic == "t" and listener is explode
        assert isinstance(error, RuntimeError)

    def test_topics_are_independent(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.publish("b", 1)
        assert seen == []
        assert bus.listener_count("a") == 1
        assert bus.listener_count() == 1


    def test_inline_delivery_answers_the_queueing_questions(self):
        """The synchronous bus keeps the asynchronous bus's contract with
        constants, so a session never asks which bus it holds."""
        delivered = []
        bus = EventBus(on_delivered=delivered.append)
        seen = []
        bus.subscribe("t", seen.append, capacity=1, policy="block")
        bus.subscribe("t", lambda payload: 1 / 0)
        assert bus.publish("t", "a") == 1
        assert delivered == ["a"]  # once per successful delivery only
        assert bus.backlog() == 0
        assert bus.oldest_commit_age("t") is None
        assert bus.capture_pending("t") == []
        assert bus.restore_pending("t", ("b", "c")) == 2  # = publish
        assert seen == ["a", "b", "c"]
        assert bus.drain(timeout=0) is True
        bus.close()
        assert bus.publish("t", "d") == 1  # nothing to stop


class TestErrorTopicGuard:
    """A listener that raises while handling an error must not recurse
    through the error channel or starve its peers (PR 3 regression)."""

    def test_listener_failures_are_announced(self):
        bus = EventBus()
        failures = []
        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, failures.append)

        def explode(payload):
            raise RuntimeError("boom")

        bus.subscribe("refresh", explode)
        bus.publish("refresh", "payload")
        ((topic, listener, error),) = failures
        assert topic == "refresh" and listener is explode
        assert isinstance(error, RuntimeError)

    def test_error_topic_failure_announcement_carries_its_topic(self):
        # PR 6 regression: a failing listener registered on the "error"
        # topic was silently recorded but never announced — the guard
        # suppressed every error-class topic instead of only the
        # listener-error channel, and the announcement lost its topic.
        bus = EventBus()
        announced = []
        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, announced.append)

        def explode(payload):
            raise RuntimeError("broken error handler")

        bus.subscribe("error", explode)
        bus.publish("error", ("fingerprint", ValueError("x")))
        ((topic, listener, error),) = announced
        assert topic == "error"  # the originating topic, carried through
        assert listener is explode
        assert isinstance(error, RuntimeError)

    def test_raising_error_listener_does_not_recurse(self):
        bus = EventBus()
        survivors = []

        def explode(payload):
            raise RuntimeError("error handler is itself broken")

        bus.subscribe("error", explode)
        bus.subscribe("error", survivors.append)
        # Publishing on the error topic with a raising listener used to
        # be the recursion seed; now it records and moves on.
        assert bus.publish("error", ("fingerprint", ValueError("x"))) == 1
        assert len(survivors) == 1
        ((topic, listener, _),) = bus.errors
        assert topic == "error" and listener is explode

    def test_raising_listener_error_listener_terminates(self):
        bus = EventBus()

        def explode(payload):
            raise RuntimeError("boom")

        def meta_explode(payload):
            raise RuntimeError("the watcher is broken too")

        bus.subscribe("refresh", explode)
        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, meta_explode)
        # refresh fails → announced on listener-error → that listener
        # fails too → recorded, NOT re-announced.  Termination is the
        # regression being tested: this used to be unbounded.
        bus.publish("refresh", "payload")
        topics = [topic for topic, _, _ in bus.errors]
        assert topics == ["refresh", EventBus.LISTENER_ERROR_TOPIC]

    def test_peers_still_delivered_after_error_storm(self):
        bus = EventBus()
        seen = []

        def explode(payload):
            raise RuntimeError("boom")

        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, explode)
        bus.subscribe("t", explode)
        bus.subscribe("t", seen.append)
        assert bus.publish("t", "payload") == 1
        assert seen == ["payload"]


class TestDatabaseChangeEvents:
    def _database(self):
        db = Database("events")
        db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
        return db

    def test_events_carry_table_and_monotonic_version(self):
        db = self._database()
        events = []
        db.add_change_listener(lambda table, version: events.append(ChangeEvent(table, version)))
        table = db.table("B")
        table.insert(500, "X", until_now(d(1, 25)))
        current_insert(db.table("B"), (501, "Y"), at=d(2, 1))
        current_delete(db.table("B"), lambda row: row.values[0] == 500, at=d(3, 1))
        assert events == [
            ChangeEvent("B", 1),
            ChangeEvent("B", 2),
            ChangeEvent("B", 3),
        ]
        assert db.table_version("B") == 3
        assert db.table_versions() == {"B": 3}

    def test_removed_listener_hears_nothing(self):
        db = self._database()
        events = []
        listener = db.add_change_listener(lambda table, version: events.append(table))
        db.remove_change_listener(listener)
        db.table("B").insert(500, "X", until_now(d(1, 25)))
        assert events == []

    def test_batch_coalesces_to_one_event(self):
        db = self._database()
        events = []
        db.add_change_listener(lambda table, version: events.append((table, version)))
        table = db.table("B")
        with table.batch():
            table.insert(500, "X", until_now(d(1, 25)))
            table.insert(501, "Y", until_now(d(1, 26)))
            with table.batch():  # nested batches coalesce into the outermost
                table.insert(502, "Z", until_now(d(1, 27)))
        assert events == [("B", 1)]
        assert len(table) == 3

    def test_empty_batch_emits_nothing(self):
        db = self._database()
        events = []
        db.add_change_listener(lambda table, version: events.append(table))
        with db.table("B").batch():
            pass
        assert events == []
        assert db.table_version("B") == 0

    def test_drop_table_notifies_once(self):
        db = self._database()
        events = []
        db.add_change_listener(lambda table, version: events.append((table, version)))
        db.drop_table("B")
        assert events == [("B", 1)]
