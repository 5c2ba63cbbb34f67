"""The bus with delivery workers: the contract's ``workers=2`` rows, and
what only a worker thread can get wrong (the ``workers=0`` rows are in
``tests/live/test_events.py``)."""

import threading
import time

import pytest

from repro.serve.bus import EventBus
from tests.serve.bus_contract import STATS_KEYS, BusContract, BusRows, Merging


class TestEventBusWithWorkers(BusContract):
    workers = 2

    def test_slow_listener_does_not_stall_fast_peers(self):
        bus = self.bus(capacity=16)
        fast_done = threading.Event()
        release_slow = threading.Event()

        def slow(_):
            release_slow.wait(timeout=10)

        bus.subscribe("slow", slow)
        bus.subscribe("fast", lambda item: fast_done.set())
        bus.publish("slow", "payload")
        bus.publish("fast", "payload")
        # The fast subscriber hears about it while the slow one is stuck.
        assert fast_done.wait(timeout=5)
        release_slow.set()
        assert bus.drain(timeout=5)

    def test_publish_from_worker_thread_never_deadlocks_itself(self):
        """A callback that publishes into a full mailbox pinned to its
        own worker merges, as every publish to a full mailbox does.
        Kills: a publish waiting for space only that worker could ever
        free (the drain times out), and one evicting the waiting payload
        (``second`` delivered alone, ``dropped`` 1)."""
        bus = EventBus(workers=1, capacity=1)
        seen = []
        bus.subscribe("fanin", lambda item: seen.append(item.values))

        def fan_in(_):
            bus.publish("fanin", Merging("first"))
            bus.publish("fanin", Merging("second"))  # full, same worker: merge

        bus.subscribe("trigger", fan_in)
        bus.publish("trigger", None)
        assert bus.drain(timeout=5)
        assert seen == [("first", "second")]  # one merged delivery
        stats = bus.stats()
        assert (stats["coalesced"], stats["dropped"]) == (1, 0)
        bus.close()

    def test_a_publish_to_a_full_mailbox_returns_at_once_and_merges(self):
        """Capacity 1, the subscriber stuck in its first callback: each
        later publish into the full mailbox returns at once and merges
        into the payload waiting, none is dropped, and the newest
        arrives last.  Kills: a publish that waits for space (it returns
        only once the stuck callback gives up, then queues separately),
        and one that evicts the waiting payload instead of merging."""
        bus = EventBus(workers=1, capacity=1)
        running, release = threading.Event(), threading.Event()
        seen = []

        def subscriber(item):
            running.set()
            release.wait(timeout=10)
            seen.append(item.values)

        bus.subscribe("t", subscriber)
        bus.publish("t", Merging("running"))
        assert running.wait(timeout=5)  # the worker holds "running"
        bus.publish("t", Merging("waiting"))
        for payload in ("merged", "newest"):
            started = time.monotonic()
            assert bus.publish("t", Merging(payload)) == 1  # full: merges
            assert time.monotonic() - started < 0.5
        assert not seen  # the subscriber is still stuck
        release.set()
        assert bus.drain(timeout=5)
        assert seen == [("running",), ("waiting", "merged", "newest")]
        stats = bus.stats()
        assert (stats["queued"], stats["coalesced"], stats["dropped"]) == (2, 2, 0)
        bus.close()


class TestDeliveryPool(BusRows):
    """The pool of delivery threads inside a bus with workers."""

    workers = 1

    def _jammed(self, listener):
        """A one-worker bus whose worker sits in a callback until the
        returned event is set — whatever is published meanwhile queues."""
        bus, gate = self.bus(capacity=256), threading.Event()
        bus.subscribe("gate", lambda _: gate.wait(timeout=10))
        cancel = bus.subscribe("t", listener)
        bus.publish("gate", None)
        return bus, gate, cancel

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            EventBus(workers=-1)

    def test_post_delivers_via_worker_thread(self):
        bus = self.bus()
        seen = []
        bus.subscribe("t", lambda item: seen.append((item, threading.get_ident())))
        bus.publish("t", "payload")
        assert bus.drain(timeout=5)
        assert [item for item, _ in seen] == ["payload"]
        assert all(ident != threading.get_ident() for _, ident in seen)

    def test_close_drains_queued_items(self):
        seen = []
        bus, gate, _ = self._jammed(lambda item: (time.sleep(0.001), seen.append(item)))
        for i in range(50):
            bus.publish("t", i)
        gate.set()
        bus.close(drain=True)
        assert seen == list(range(50))

    def test_close_from_its_own_callback_neither_waits_nor_joins(self):
        """A listener shutting its own bus down runs on the worker it
        would have to wait for and join: drain() and close() must skip
        that thread, return promptly, and still deliver what the worker
        has queued once the callback returns."""
        seen, outcome = [], {}

        def listener(item):
            seen.append(item)
            if item == "first":
                started = time.monotonic()
                try:
                    outcome["drained"] = bus.drain(timeout=10)
                    bus.close(drain=True)
                except BaseException as exc:  # noqa: BLE001 — reported below
                    outcome["error"] = exc
                outcome["seconds"] = time.monotonic() - started

        bus, gate, _ = self._jammed(listener)
        bus.publish("t", "first")
        bus.publish("t", "second")
        gate.set()  # both are queued before the callback runs
        (worker,) = bus._workers
        worker.thread.join(timeout=10)
        assert not worker.thread.is_alive()
        assert "error" not in outcome, outcome
        assert outcome["drained"] is True
        assert outcome["seconds"] < 2, "waited on its own worker"
        assert seen == ["first", "second"]  # drain=True: nothing abandoned
        assert bus.publish("t", "third") == 0  # closed

    def test_unregister_stops_delivery(self):
        seen = []
        bus, gate, cancel = self._jammed(seen.append)
        bus.publish("t", "queued")
        cancel()  # what it still held is discarded, and counted
        assert bus.publish("t", "late") == 0
        gate.set()
        assert bus.drain(timeout=5)
        assert seen == []
        assert bus.stats()["dropped"] == 1

    def test_stats_shape(self):
        bus = self.bus()
        bus.subscribe("t", lambda item: None)
        bus.publish("t", 1)
        assert bus.drain(timeout=5)
        stats = bus.stats()
        assert set(stats) == STATS_KEYS
        assert (stats["workers"], stats["queued"], stats["delivered"]) == (1, 1, 1)
        assert stats["backlog"] == 0
