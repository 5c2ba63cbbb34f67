"""Bounded mailboxes: capacity, merging when full, capture and restore."""

import threading
import time

import pytest

from repro.live.events import RefreshNotification
from repro.engine.delta import Delta
from repro.relational.tuples import OngoingTuple
from repro.core.intervalset import UNIVERSAL_SET
from repro.serve.queues import COALESCED, Mailbox, QUEUED, REJECTED
from tests.serve.bus_contract import Merging


def _mailbox(**kwargs):
    condition = threading.Condition()
    received = []
    box = Mailbox(received.append, condition=condition, **kwargs)
    return box, received


def _drain(box):
    """Pop everything queued (what the delivery worker would do)."""
    items = []
    with box.condition:
        while len(box._items):
            items.append(box._items.popleft())
    return items


def _row(value):
    return OngoingTuple((value,), UNIVERSAL_SET)


def _notification(subscription, *, inserted=(), result="result"):
    return RefreshNotification(
        subscription=subscription,
        result=result,
        changed_tables=("R",),
        delta=Delta.insert(tuple(_row(v) for v in inserted)),
    )


class TestAdmission:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            _mailbox(capacity=0)

    def test_queued_until_capacity(self):
        box, _ = _mailbox(capacity=3)
        assert [box.put(i) for i in range(3)] == [QUEUED] * 3
        assert len(box) == 3

    def test_a_full_mailbox_never_evicts_its_head(self):
        """Kills: a full mailbox admitting the newest by evicting the
        oldest (the head would be gone and ``dropped`` 1), or counting
        the merge in ``queued`` too."""
        box, _ = _mailbox(capacity=2)
        box.put(Merging("a"))
        box.put(Merging("b"))
        assert box.put(Merging("c")) == COALESCED
        assert [item.values for item in _drain(box)] == [("a",), ("b", "c")]
        assert (box.queued, box.coalesced, box.dropped) == (2, 1, 0)

    def test_a_full_mailbox_merges_without_waiting(self):
        """A put into a full mailbox that nobody drains returns at once.
        Kills: a put that waits for space (the producer is still waiting
        when joined, and a pop would then let it queue separately)."""
        box, _ = _mailbox(capacity=1)
        box.put(Merging("a"))
        outcomes = []
        producer = threading.Thread(
            target=lambda: outcomes.append(box.put(Merging("b")))
        )
        started = time.monotonic()
        producer.start()
        producer.join(timeout=5)
        assert not producer.is_alive() and outcomes == [COALESCED]
        assert time.monotonic() - started < 0.25
        assert [item.values for item in _drain(box)] == [("a", "b")]

    def test_a_popped_slot_queues_the_next_put_separately(self):
        """A full mailbox merges only while it is full.  Kills: a put
        that merges into the tail although a pop has freed a slot (the
        consumer would hear ``a`` and ``b`` as one)."""
        box, _ = _mailbox(capacity=1)
        box.put(Merging("a"))
        with box.condition:
            assert box._items.popleft().values == ("a",)
        assert box.put(Merging("b")) == QUEUED
        assert [item.values for item in _drain(box)] == [("b",)]
        assert (box.queued, box.coalesced, box.dropped) == (2, 0, 0)

    def test_closed_mailbox_rejects(self):
        box, _ = _mailbox(capacity=2)
        box.put("a")
        with box.condition:
            box._close()
        assert box.put("b") == REJECTED
        assert len(box) == 0


class _FakeSubscription:
    pass


class TestCoalescing:
    def test_notifications_merge_at_capacity(self):
        subscription = _FakeSubscription()
        box, _ = _mailbox(capacity=1)
        first = _notification(subscription, inserted=("a",), result="r1")
        second = _notification(subscription, inserted=("b",), result="r2")
        assert box.put(first) == QUEUED
        assert box.put(second) == COALESCED
        (merged,) = _drain(box)
        # Latest result wins; the result-level deltas are merged so the
        # subscriber misses nothing by skipping the intermediate delivery.
        assert merged.result == "r2"
        assert {row.values[0] for row in merged.delta.inserted} == {"a", "b"}
        assert box.coalesced == 1
        assert box.dropped == 0
        # queued and coalesced partition the admitted payloads: the merge
        # occupied no new queue slot, so it must not bump ``queued`` too
        # (the counter used to double-count coalesced admissions).
        assert box.queued == 1
        assert box.queued + box.coalesced == 2

    def test_counters_partition_admitted_payloads(self):
        subscription = _FakeSubscription()
        box, _ = _mailbox(capacity=2)
        outcomes = [
            box.put(_notification(subscription, inserted=(str(i),)))
            for i in range(5)
        ]
        assert outcomes == [QUEUED, QUEUED, COALESCED, COALESCED, COALESCED]
        assert box.queued == 2
        assert box.coalesced == 3
        assert box.dropped == 0
        # Admitted = queued + coalesced; nothing counted twice, nothing lost.
        assert box.queued + box.coalesced == 5
        assert len(box) == 2

    def test_below_capacity_items_stay_distinct(self):
        subscription = _FakeSubscription()
        box, _ = _mailbox(capacity=4)
        box.put(_notification(subscription, inserted=("a",)))
        box.put(_notification(subscription, inserted=("b",)))
        assert len(box) == 2
        assert box.coalesced == 0

    def test_different_subscriptions_never_merge(self):
        """A mailbox holds one subscription's notifications; another's
        reaching it is a fault, refused loudly rather than dropped."""
        box, _ = _mailbox(capacity=1)
        box.put(_notification(_FakeSubscription(), inserted=("a",)))
        with pytest.raises(ValueError, match="different subscriptions"):
            box.put(_notification(_FakeSubscription(), inserted=("b",)))
        assert len(box) == 1 and box.dropped == box.coalesced == 0

    def test_a_full_mailbox_drops_nothing(self):
        """Three notifications of one subscription into capacity 1 keep
        them all in the one slot.  Kills: evicting the older ones (the
        kept delta would hold ``c`` only, ``dropped`` 2)."""
        subscription = _FakeSubscription()
        box, _ = _mailbox(capacity=1)
        for value in ("a", "b", "c"):
            box.put(_notification(subscription, inserted=(value,)))
        (kept,) = _drain(box)
        assert (box.dropped, box.coalesced) == (0, 2)
        assert {row.values[0] for row in kept.delta.inserted} == {"a", "b", "c"}

    def test_unknown_delta_coalesces_to_unknown(self):
        subscription = _FakeSubscription()
        first = RefreshNotification(
            subscription=subscription, result="r1", delta=None
        )
        second = _notification(subscription, inserted=("b",), result="r2")
        merged = first.coalesce_with(second)
        assert merged.delta is None  # unknown + known = unknown
        assert merged.result == "r2"


class TestCaptureRestore:
    """The durability hooks: checkpoint capture and recovery restore."""

    def test_capture_is_non_destructive_and_ordered(self):
        box, received = _mailbox(capacity=4)
        box.put("first")
        box.put("second")
        assert box.capture() == ("first", "second")
        assert box.capture() == ("first", "second")  # still queued
        assert _drain(box) == ["first", "second"]

    def test_capture_of_empty_mailbox(self):
        box, _ = _mailbox(capacity=2)
        assert box.capture() == ()

    def test_restore_appends_behind_queued_items(self):
        box, _ = _mailbox(capacity=4)
        box.put("live")
        assert box.restore(("recovered-a", "recovered-b")) == 2
        assert _drain(box) == ["live", "recovered-a", "recovered-b"]
        assert box.queued == 3

    def test_restore_never_merges(self):
        """Kills: a restore that merges or evicts at capacity, and a put
        after it that evicts rather than merges."""
        box, _ = _mailbox(capacity=1)
        box.put(Merging("live"))
        # A restore may transiently exceed capacity: recovery must never
        # silently drop the notification it is re-enqueueing.
        assert box.restore((Merging("recovered"),)) == 1
        assert [item.values for item in _drain(box)] == [("live",), ("recovered",)]
        # The next ordinary put merges into the tail as usual.
        box.put(Merging("a"))
        assert box.put(Merging("b")) == COALESCED
        assert [item.values for item in _drain(box)] == [("a", "b")]
        assert box.dropped == 0

    def test_restore_into_closed_mailbox_is_refused(self):
        box, _ = _mailbox(capacity=2)
        box.closed = True
        assert box.restore(("recovered",)) == 0
        assert box.capture() == ()
