"""Delivery pool and async bus: fan-out, ordering, isolation, drain."""

import threading
import time

import pytest

from repro.serve.bus import AsyncEventBus, DeliveryPool


@pytest.fixture
def bus():
    bus = AsyncEventBus(workers=3, capacity=128, policy="block")
    yield bus
    bus.close(drain=False)


class TestDeliveryPool:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            DeliveryPool(workers=0)

    def test_post_delivers_via_worker_thread(self):
        pool = DeliveryPool(workers=2)
        seen = []
        main = threading.get_ident()
        box = pool.register(
            lambda item: seen.append((item, threading.get_ident()))
        )
        pool.post(box, "payload")
        assert pool.drain(timeout=5)
        assert [item for item, _ in seen] == ["payload"]
        assert all(ident != main for _, ident in seen)
        pool.close()

    def test_close_drains_queued_items(self):
        pool = DeliveryPool(workers=1, policy="block", capacity=256)
        seen = []
        box = pool.register(lambda item: (time.sleep(0.001), seen.append(item)))
        for i in range(50):
            pool.post(box, i)
        pool.close(drain=True)
        assert seen == list(range(50))

    def test_close_from_its_own_callback_neither_waits_nor_joins(self):
        """A listener shutting its own pool down runs on the worker it
        would have to wait for and join: drain() and close() must skip
        that thread, return promptly, and still deliver what the worker
        has queued once the callback returns."""
        pool = DeliveryPool(workers=1, policy="block", capacity=16)
        seen, outcome = [], {}

        def listener(item):
            seen.append(item)
            if item == "first":
                started = time.monotonic()
                try:
                    outcome["drained"] = pool.drain(timeout=10)
                    pool.close(drain=True)
                except BaseException as exc:  # noqa: BLE001 — reported below
                    outcome["error"] = exc
                outcome["seconds"] = time.monotonic() - started

        box = pool.register(listener)
        worker = box._worker
        with worker.condition:  # both are queued before the callback runs
            pool.post(box, "first")
            pool.post(box, "second")
        worker.thread.join(timeout=10)
        assert not worker.thread.is_alive()
        assert "error" not in outcome, outcome
        assert outcome["drained"] is True
        assert outcome["seconds"] < 2, "waited on its own worker"
        assert seen == ["first", "second"]  # drain=True: nothing abandoned
        assert pool.closed

    def test_unregister_stops_delivery(self):
        pool = DeliveryPool(workers=1)
        seen = []
        box = pool.register(seen.append)
        pool.unregister(box)
        assert pool.post(box, "late") == "rejected"
        pool.drain(timeout=5)
        assert seen == []
        pool.close()

    def test_stats_shape(self):
        pool = DeliveryPool(workers=2)
        box = pool.register(lambda item: None)
        pool.post(box, 1)
        pool.drain(timeout=5)
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["queued"] == 1
        assert stats["delivered"] == 1
        assert stats["backlog"] == 0
        pool.close()


class TestAsyncEventBus:
    def test_fan_out_reaches_every_listener(self, bus):
        seen_a, seen_b = [], []
        bus.subscribe("t", seen_a.append)
        bus.subscribe("t", seen_b.append)
        assert bus.publish("t", 1) == 2
        assert bus.drain(timeout=5)
        assert seen_a == [1] and seen_b == [1]

    def test_in_order_exactly_once_per_listener(self, bus):
        seen = []
        bus.subscribe("t", seen.append)
        for i in range(200):
            bus.publish("t", i)
        assert bus.drain(timeout=10)
        assert seen == list(range(200))

    def test_topics_are_independent(self, bus):
        seen = []
        bus.subscribe("a", seen.append)
        bus.publish("b", 1)
        bus.drain(timeout=5)
        assert seen == []
        assert bus.listener_count("a") == 1
        assert bus.listener_count() == 1

    def test_unsubscribe_thunk(self, bus):
        seen = []
        cancel = bus.subscribe("t", seen.append)
        cancel()
        cancel()  # idempotent
        assert bus.publish("t", 1) == 0
        bus.drain(timeout=5)
        assert seen == []

    def test_slow_listener_does_not_stall_fast_peers(self):
        bus = AsyncEventBus(workers=2, policy="block", capacity=16)
        fast_done = threading.Event()
        release_slow = threading.Event()

        def slow(_):
            release_slow.wait(timeout=10)

        bus.subscribe("t", slow)
        bus.subscribe("t", lambda item: fast_done.set())
        bus.publish("t", "payload")
        # The fast subscriber hears about it while the slow one is stuck.
        assert fast_done.wait(timeout=5)
        release_slow.set()
        assert bus.drain(timeout=5)
        bus.close()

    def test_error_isolation_and_recording(self, bus):
        seen = []

        def explode(_):
            raise RuntimeError("boom")

        bus.subscribe("t", explode)
        bus.subscribe("t", seen.append)
        bus.publish("t", "payload")
        assert bus.drain(timeout=5)
        assert seen == ["payload"]
        ((topic, listener, error),) = bus.errors
        assert topic == "t" and listener is explode
        assert isinstance(error, RuntimeError)

    def test_listener_failures_announced_on_listener_error_topic(self, bus):
        failures = []
        bus.subscribe(AsyncEventBus.LISTENER_ERROR_TOPIC, failures.append)

        def explode(_):
            raise RuntimeError("boom")

        bus.subscribe("t", explode)
        bus.publish("t", "payload")
        assert bus.drain(timeout=5)
        ((topic, listener, error),) = failures
        assert topic == "t" and listener is explode

    def test_publish_from_worker_thread_never_deadlocks_itself(self):
        """A callback that publishes into a full block-policy mailbox
        pinned to its own worker must degrade, not wait for space only
        that worker could ever free."""
        bus = AsyncEventBus(workers=1, capacity=1, policy="block")
        seen = []
        bus.subscribe("fanin", seen.append)

        def fan_in(_):
            bus.publish("fanin", "first")
            bus.publish("fanin", "second")  # full, same worker: degrade

        bus.subscribe("trigger", fan_in)
        bus.publish("trigger", None)
        assert bus.drain(timeout=5)
        assert seen == ["second"]  # oldest evicted, newest delivered
        assert bus.stats()["dropped"] == 1
        bus.close()

    def test_coalesce_policy_keeps_latest_information(self):
        bus = AsyncEventBus(workers=1, capacity=1, policy="coalesce")
        release = threading.Event()
        seen = []

        def subscriber(item):
            if not seen:
                release.wait(timeout=10)  # jam the worker on delivery #1
            seen.append(item)

        bus.subscribe("t", subscriber)
        bus.publish("t", "first")  # delivered (slowly)
        time.sleep(0.05)  # let the worker pick "first" up
        for payload in ("second", "third", "fourth"):
            bus.publish("t", payload)  # capacity 1: unmergeable → newest kept
        release.set()
        assert bus.drain(timeout=5)
        assert seen[0] == "first"
        assert seen[-1] == "fourth"  # the latest payload always arrives
        assert len(seen) < 4  # the backlog really was bounded
        bus.close()
