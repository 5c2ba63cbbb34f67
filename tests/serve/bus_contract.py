"""What every :class:`~repro.serve.bus.EventBus` promises, whichever
thread calls the listeners: one suite, stated once and collected through
subclasses that pin ``workers`` — ``0`` in ``tests/live/test_events.py``,
``2`` in ``tests/serve/test_bus.py``.  Every wait is bounded; without
workers ``drain`` has nothing to wait for.  The bus is keyed by
subscription: a key has one mailbox or none.
"""

import logging

import pytest

from repro.durable import faults
from repro.serve.bus import EventBus

STATS_KEYS = {
    "workers", "queued", "delivered", "dropped", "coalesced",
    "delivery_errors", "backlog", "listeners",
}


def explode(payload):
    raise RuntimeError("boom")


class Merging:
    """A payload that coalesces as a notification does: every value
    kept, the newest last."""

    def __init__(self, *values):
        self.values = values

    def coalesce_with(self, newer):
        return Merging(*self.values, *newer.values)


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
        options = {"capacity": 128, **options}
        bus = EventBus(workers=self.workers, **options)
        self._buses.append(bus)
        return bus


class BusContract(BusRows):
    def test_a_second_mailbox_for_one_key_is_refused(self):
        """A notification has one addressee: a publish reaches the key's
        one mailbox or none.  Kills: fan-out creeping back (a list of
        listeners per key, a second ``subscribe`` appended to it)."""
        bus = self.bus()
        seen, other = [], []
        bus.subscribe("t", seen.append)
        with pytest.raises(ValueError, match="already has a mailbox"):
            bus.subscribe("t", other.append)
        assert bus.publish("t", 1) == 1
        assert bus.publish("nobody", 2) == 0
        assert bus.drain(timeout=5)
        assert seen == [1] and other == []
        assert bus.stats()["listeners"] == 1

    def test_keys_are_independent(self):
        """A publish reaches its own key's mailbox and no other."""
        bus = self.bus()
        seen_a, seen_b = [], []
        bus.subscribe("a", seen_a.append)
        bus.subscribe("b", seen_b.append)
        bus.publish("b", 1)
        bus.publish("a", 2)
        assert bus.drain(timeout=5)
        assert seen_a == [2] and seen_b == [1]
        assert bus.stats()["listeners"] == 2

    def test_a_publish_nobody_listens_to_is_not_counted(self):
        """A key without a mailbox: the publish is refused and leaves
        every counter as it was.  Kills: a session-wide channel that
        hears what no subscription's mailbox took."""
        bus = self.bus()
        seen = []
        bus.subscribe("t", seen.append)
        assert bus.publish("nobody", 1) is False
        assert bus.drain(timeout=5)
        stats = bus.stats()
        assert [stats[name] for name in ("queued", "delivered", "dropped")] == [0] * 3
        assert stats["coalesced"] == stats["delivery_errors"] == 0
        assert seen == []

    def test_the_queueing_questions_of_a_key_without_a_mailbox(self):
        """Never subscribed, or unsubscribed: nothing pending, nothing
        aged, and a restore hands nothing over."""
        bus = self.bus()
        seen = []
        cancel = bus.subscribe("t", seen.append)
        cancel()
        for key in ("t", "nobody"):
            assert bus.capture_pending(key) == ()
            assert bus.oldest_commit_age(key) is None
            assert bus.restore_pending(key, ("a", "b")) == 0
        assert bus.drain(timeout=5)
        assert seen == [] and bus.stats()["queued"] == 0

    def test_peers_still_delivered_after_an_error_storm(self):
        """One key's listener raising on every payload neither starves
        nor reorders another key's deliveries."""
        bus = self.bus()
        seen = []
        bus.subscribe("bad", explode)
        bus.subscribe("good", seen.append)
        for payload in range(20):
            bus.publish("bad", payload)
            bus.publish("good", payload)
        assert bus.drain(timeout=5)
        assert seen == list(range(20))
        stats = bus.stats()
        assert (stats["delivered"], stats["delivery_errors"]) == (20, 20)

    def test_in_order_exactly_once_per_listener(self):
        bus = self.bus(capacity=256)
        seen = []
        bus.subscribe("t", seen.append)
        for i in range(200):
            bus.publish("t", i)
        assert bus.drain(timeout=10)
        assert seen == list(range(200))

    def test_unsubscribe_thunk(self):
        bus = self.bus()
        seen = []
        cancel = bus.subscribe("t", seen.append)
        cancel()
        cancel()  # idempotent
        assert bus.publish("t", 1) == 0
        assert bus.drain(timeout=5)
        assert seen == [] and bus.stats()["listeners"] == 0
        bus.subscribe("t", seen.append)  # the key is free again
        assert bus.publish("t", 2) == 1
        assert bus.drain(timeout=5)
        assert seen == [2]

    def test_totals_survive_an_unsubscribe(self):
        bus = self.bus()
        cancel = []  # the listener unsubscribes itself, mid-callback
        cancel.append(bus.subscribe("t", lambda payload: cancel[0]()))
        bus.publish("t", 1)
        assert bus.drain(timeout=5)
        stats = bus.stats()
        assert (stats["queued"], stats["delivered"], stats["listeners"]) == (1, 1, 0)

    def test_error_isolation_recording_and_logging(self, caplog):
        bus = self.bus()
        seen = []
        bus.subscribe("bad", explode)
        bus.subscribe("good", seen.append)
        with caplog.at_level(logging.ERROR, logger="repro.serve.bus"):
            for payload in ("first", "second"):  # the failing queue keeps going
                bus.publish("bad", payload)
                bus.publish("good", payload)
            assert bus.drain(timeout=5)
        assert seen == ["first", "second"]
        assert [key for key, _ in bus.errors] == ["bad", "bad"]
        assert all(isinstance(error, RuntimeError) for _, error in bus.errors)
        logged = [r for r in caplog.records if r.name == "repro.serve.bus"]
        assert len(logged) == 2
        assert all("'bad'" in r.getMessage() and r.exc_info for r in logged)

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
        bus.subscribe("bad", explode)
        bus.subscribe("good", seen.append)
        bus.publish("bad", "payload")
        bus.publish("good", "payload")
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
        assert bus.backlog() == 0 and bus.oldest_commit_age("good") is None
        assert bus.capture_pending("good") == ()
        assert bus.capture_pending("nobody") == ()
        assert bus.oldest_commit_age("nobody") is None

    def test_pre_ack_crashpoint_is_isolated_like_a_listener_error(self):
        """The listener ran, the acknowledgement did not: recorded as
        that listener's failure, never counted delivered."""
        hooked, seen = [], []
        bus = self.bus(on_delivered=hooked.append)
        bus.subscribe("t", seen.append)
        with faults.armed("delivery.pre_ack", action="raise"):
            bus.publish("t", "payload")
            assert bus.drain(timeout=5)
        assert seen == ["payload"] and hooked == []
        ((key, error),) = bus.errors
        assert key == "t" and isinstance(error, faults.InjectedCrash)
        assert bus.stats()["delivered"] == 0

    def test_restore_pending_hands_each_payload_over_exactly_once(self):
        bus = self.bus(capacity=1)  # a restore never merges
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
        """Kills: ``capacity`` unchecked when ``workers == 0`` — a
        session persists it for one that may have workers."""
        for options in ({"capacity": 0}, {"capacity": -3}):
            with pytest.raises(ValueError):
                EventBus(workers=self.workers, **options)
            bus = self.bus()
            with pytest.raises(ValueError):
                bus.subscribe("t", print, **options)
            assert bus.stats()["listeners"] == 0

