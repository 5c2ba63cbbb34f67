"""What every :class:`~repro.serve.bus.EventBus` promises, whichever
thread calls the listeners: one suite, stated once and collected through
subclasses that pin ``workers`` — ``0`` in ``tests/live/test_events.py``,
``2`` in ``tests/serve/test_bus.py``.  Every wait is bounded; without
workers ``drain`` has nothing to wait for.
"""

import pytest

from repro.durable import faults
from repro.serve.bus import EventBus

STATS_KEYS = {
    "workers", "queued", "delivered", "dropped", "coalesced",
    "delivery_errors", "backlog", "listeners",
}


def explode(payload):
    raise RuntimeError("boom")


class BusRows:
    """Builds buses with the row's ``workers`` and closes them after."""

    workers = 0

    @pytest.fixture(autouse=True)
    def _close_buses(self):
        self._buses = []
        yield
        for bus in self._buses:
            bus.close(drain=False)

    def bus(self, **options):
        options = {"capacity": 128, "policy": "block", **options}
        bus = EventBus(workers=self.workers, **options)
        self._buses.append(bus)
        return bus


class BusContract(BusRows):
    def test_fan_out_reaches_every_listener(self):
        bus = self.bus()
        seen_a, seen_b = [], []
        bus.subscribe("t", seen_a.append)
        bus.subscribe("t", seen_b.append)
        assert bus.publish("t", 1) == 2
        assert bus.drain(timeout=5)
        assert seen_a == [1] and seen_b == [1]

    def test_in_order_exactly_once_per_listener(self):
        bus = self.bus(capacity=256)
        seen = []
        bus.subscribe("t", seen.append)
        for i in range(200):
            bus.publish("t", i)
        assert bus.drain(timeout=10)
        assert seen == list(range(200))

    def test_topics_are_independent(self):
        bus = self.bus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.publish("b", 1)
        assert bus.drain(timeout=5)
        assert seen == []
        assert bus.listener_count("a") == 1
        assert bus.listener_count() == 1

    def test_unsubscribe_thunk(self):
        bus = self.bus()
        seen = []
        cancel = bus.subscribe("t", seen.append)
        cancel()
        cancel()  # idempotent
        assert bus.publish("t", 1) == 0
        assert bus.drain(timeout=5)
        assert seen == [] and bus.listener_count() == 0

    def test_totals_survive_an_unsubscribe(self):
        bus = self.bus()
        cancel = []  # the listener unsubscribes itself, mid-callback
        cancel.append(bus.subscribe("t", lambda payload: cancel[0]()))
        bus.publish("t", 1)
        assert bus.drain(timeout=5)
        stats = bus.stats()
        assert (stats["queued"], stats["delivered"], stats["listeners"]) == (1, 1, 0)

    def test_error_isolation_and_recording(self):
        bus = self.bus()
        seen = []
        bus.subscribe("t", explode)
        bus.subscribe("t", seen.append)
        bus.publish("t", "first")
        bus.publish("t", "second")  # the failing listener's queue keeps going
        assert bus.drain(timeout=5)
        assert seen == ["first", "second"]
        assert [(topic, listener) for topic, listener, _ in bus.errors] == [
            ("t", explode)
        ] * 2
        assert all(isinstance(error, RuntimeError) for _, _, error in bus.errors)

    def test_errors_are_bounded(self):
        bus = self.bus(capacity=EventBus.MAX_ERRORS + 16)
        bus.subscribe("t", explode)
        for i in range(EventBus.MAX_ERRORS + 5):
            bus.publish("t", i)
        assert bus.drain(timeout=10)
        assert len(bus.errors) == EventBus.MAX_ERRORS
        assert bus.stats()["delivery_errors"] == EventBus.MAX_ERRORS + 5

    def test_delivery_accounting_counts_callbacks_that_returned(self):
        """One raising and one healthy listener: one delivery, one error,
        and the ``on_delivered`` hook — what freshness and the SLO are fed
        from — saw the payload once (and may itself raise: accounting
        never stops delivery).  Kills: hook fired in ``finally`` (the
        worker path used to count a poisoned callback as delivered, so
        the two buses disagreed)."""
        hooked, seen = [], []
        bus = self.bus(on_delivered=lambda payload: (hooked.append(payload), 1 / 0))
        bus.subscribe("t", explode)
        bus.subscribe("t", seen.append)
        bus.publish("t", "payload")
        assert bus.drain(timeout=5)
        stats = bus.stats()
        assert set(stats) == STATS_KEYS
        assert stats["workers"] == self.workers and stats["listeners"] == 2
        assert (stats["queued"], stats["delivered"], stats["delivery_errors"]) == (2, 1, 1)
        assert stats["backlog"] == stats["dropped"] == stats["coalesced"] == 0
        assert hooked == seen == ["payload"]
        assert len(bus.errors) == 1
        assert not hasattr(bus, "delivered")  # one count, in stats()
        # Nothing waits once drained: the queueing questions, at rest.
        assert bus.backlog() == 0 and bus.oldest_commit_age("t") is None
        assert bus.capture_pending("t") == [(), ()]  # one per listener
        assert bus.capture_pending("nobody") == []

    def test_pre_ack_crashpoint_is_isolated_like_a_listener_error(self):
        """The listener ran, the acknowledgement did not: recorded and
        announced as that listener's failure, never counted delivered."""
        hooked, seen = [], []
        bus = self.bus(on_delivered=hooked.append)
        bus.subscribe("t", seen.append)
        with faults.armed("delivery.pre_ack", action="raise"):
            bus.publish("t", "payload")
            assert bus.drain(timeout=5)
        assert seen == ["payload"] and hooked == []
        ((topic, listener, error),) = bus.errors
        assert topic == "t" and isinstance(error, faults.InjectedCrash)
        assert bus.stats()["delivered"] == 0

    def test_restore_pending_hands_each_payload_over_exactly_once(self):
        bus = self.bus(capacity=1)  # a restore bypasses backpressure
        seen = []
        bus.subscribe("t", seen.append)
        assert bus.restore_pending("t", ("a", "b", "c")) == 3
        assert bus.restore_pending("t", ()) == 0
        assert bus.restore_pending("nobody", ("a",)) == 0
        assert bus.drain(timeout=5)
        assert seen == ["a", "b", "c"]
        assert bus.stats()["queued"] == bus.stats()["delivered"] == 3

    def test_publish_after_close_neither_hangs_nor_raises(self):
        """Workers that stopped accept nothing; a bus without workers has
        nothing to stop and keeps delivering."""
        bus = self.bus()
        seen = []
        bus.subscribe("t", seen.append)
        bus.close()
        bus.close()  # idempotent
        inline = self.workers == 0
        assert bus.publish("t", "late") == (1 if inline else 0)
        assert bus.drain(timeout=5)
        assert seen == (["late"] if inline else [])

    def test_options_no_mailbox_accepts_are_rejected(self):
        """Kills: ``capacity`` / ``policy`` unchecked when ``workers ==
        0`` — a session persists them for one that may have workers."""
        for options in ({"policy": "nonsense"}, {"capacity": 0}, {"capacity": -3}):
            with pytest.raises(ValueError):
                EventBus(workers=self.workers, **options)
            bus = self.bus()
            with pytest.raises(ValueError):
                bus.subscribe("t", print, **options)
            assert bus.listener_count() == 0


class ErrorTopicGuardContract(BusRows):
    """A listener that raises while handling an error must not recurse
    through the error channel or starve its peers (PR 3 regression)."""

    def test_listener_failures_are_announced(self):
        bus = self.bus()
        failures = []
        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, failures.append)
        bus.subscribe("refresh", explode)
        bus.publish("refresh", "payload")
        assert bus.drain(timeout=5)
        ((topic, listener, error),) = failures
        assert topic == "refresh" and listener is explode
        assert isinstance(error, RuntimeError)

    def test_error_topic_failure_announcement_carries_its_topic(self):
        # PR 6 regression: a failing listener registered on the "error"
        # topic was silently recorded but never announced — the guard
        # suppressed every error-class topic instead of only the
        # listener-error channel, and the announcement lost its topic.
        bus = self.bus()
        announced = []
        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, announced.append)
        bus.subscribe("error", explode)
        bus.publish("error", ("fingerprint", ValueError("x")))
        assert bus.drain(timeout=5)
        ((topic, listener, error),) = announced
        assert topic == "error"  # the originating topic, carried through
        assert listener is explode
        assert isinstance(error, RuntimeError)

    def test_raising_error_listener_does_not_recurse(self):
        bus = self.bus()
        survivors = []
        bus.subscribe("error", explode)
        bus.subscribe("error", survivors.append)
        # Publishing on the error topic with a raising listener used to
        # be the recursion seed; now it records and moves on.
        bus.publish("error", ("fingerprint", ValueError("x")))
        assert bus.drain(timeout=5)
        assert len(survivors) == 1
        ((topic, listener, _),) = bus.errors
        assert topic == "error" and listener is explode

    def test_raising_listener_error_listener_terminates(self):
        bus = self.bus()

        def meta_explode(payload):
            raise RuntimeError("the watcher is broken too")

        bus.subscribe("refresh", explode)
        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, meta_explode)
        # refresh fails → announced on listener-error → that listener
        # fails too → recorded, NOT re-announced.  Termination is the
        # regression being tested: this used to be unbounded.
        bus.publish("refresh", "payload")
        assert bus.drain(timeout=5)
        topics = [topic for topic, _, _ in bus.errors]
        assert topics == ["refresh", EventBus.LISTENER_ERROR_TOPIC]

    def test_peers_still_delivered_after_error_storm(self):
        bus = self.bus()
        seen = []
        bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, explode)
        bus.subscribe("t", explode)
        bus.subscribe("t", seen.append)
        bus.publish("t", "payload")
        assert bus.drain(timeout=5)
        assert seen == ["payload"]
