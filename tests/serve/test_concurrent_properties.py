"""Concurrency exactness: a concurrent serve() equals a serial flush().

Property: for any plan with a delta rule and any random modification
sequence (the generators of ``tests/properties/test_delta_properties.py``,
reused verbatim), running the sequence against a *concurrent* session —
writers racing the background serve loop, threaded delivery — yields
byte-identical final results to running it against the plain serial
session.  The stress test then drives ≥8 writer threads against ≥32
subscribers and checks every result against a from-scratch evaluation.
"""

import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

# Reuse the delta-exactness generators: one representative plan per delta
# rule, and typed modification sequences (inserts, current deletes/updates,
# current inserts).  The tests directory is not a package, so the module
# is loaded off its own directory, the way pytest itself would.
sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "properties")
)
from test_delta_properties import (  # noqa: E402
    PLAN_KEYS,
    _MODIFICATIONS,
    _apply,
    _fresh_database,
    _plans,
)


@given(st.sampled_from(PLAN_KEYS), _MODIFICATIONS)
@settings(max_examples=25, deadline=None)
def test_concurrent_serve_equals_serial_flush(plan_key, modifications):
    """Same modifications, same plan: the served result is byte-identical
    to the serially flushed one — across all operators on the delta path."""
    plan = _plans()[plan_key]

    serial_db = _fresh_database()
    serial = LiveSession(serial_db)
    serial_sub = serial.subscribe(plan)

    concurrent_db = _fresh_database()
    concurrent = LiveSession(
        concurrent_db,
        delivery_workers=2,
        backpressure="block",
    )
    concurrent_sub = concurrent.subscribe(plan)
    concurrent.serve(debounce=0.0)  # flush races the writes below

    for modification in modifications:
        _apply(serial_db, modification)
        serial.flush()
        _apply(concurrent_db, modification)

    concurrent.stop_serving()
    concurrent.flush()  # whatever the loop had not picked up yet
    serial_result = frozenset(serial_sub.result.tuples)
    concurrent_result = frozenset(concurrent_sub.result.tuples)
    assert concurrent_result == serial_result, (
        f"{plan_key}: concurrent serve diverged from serial flush "
        f"after {modifications!r}"
    )
    # Byte-identical, not merely set-equal: the stored representations
    # match once canonically ordered.
    assert sorted(map(repr, concurrent_sub.result.tuples)) == sorted(
        map(repr, serial_sub.result.tuples)
    )
    assert concurrent.stats()["repro_live_refresh_errors_total"] == 0
    concurrent.close()
    serial.close()


@given(_MODIFICATIONS)
@settings(max_examples=10, deadline=None)
def test_concurrent_instantiations_agree_at_all_reference_times(modifications):
    """Exactness through the bind operator under concurrent serving."""
    plan = _plans()["hash-join"]
    db = _fresh_database()
    session = LiveSession(db, delivery_workers=2)
    sub = session.subscribe(plan)
    session.serve(debounce=0.0)
    for modification in modifications:
        _apply(db, modification)
    session.stop_serving()
    session.flush()
    expected = db.query(plan)
    for rt in range(-2, 35):
        assert sub.instantiate(rt) == expected.instantiate(rt)
    session.close()


@pytest.mark.timeout(120)
class TestStress:
    """≥8 writer threads, ≥32 subscribers, full serving pipeline."""

    N_WRITERS = 8
    N_SUBSCRIBERS = 32
    WRITES_PER_WRITER = 40

    def _database(self):
        db = Database("stress")
        r = db.create_table("R", Schema.of("K", ("VT", "interval")))
        s = db.create_table("S", Schema.of("K", ("VT", "interval")))
        for i in range(24):
            r.insert(i % 6, until_now(i % 10))
            s.insert(i % 6, until_now(i % 10 + 1))
        return db

    def _plans(self):
        return [
            scan("R").where(col("K") == lit(1)),
            scan("R").where(col("K") == lit(2)),
            scan("R").select_columns("K"),
            scan("R").join(
                scan("S"),
                on=col("R.K") == col("S.K"),
                left_name="R",
                right_name="S",
            ),
            scan("R").union(scan("S")),
            scan("R").difference(scan("S")),
        ]

    def test_stress_writers_and_subscribers(self):
        db = self._database()
        session = LiveSession(
            db,
            delivery_workers=4,
            backpressure="block",
            queue_capacity=256,
        )
        plans = self._plans()
        received = [[] for _ in range(self.N_SUBSCRIBERS)]
        subscriptions = [
            session.subscribe(
                plans[index % len(plans)],
                on_refresh=received[index].append,
                name=f"stress-{index}",
            )
            for index in range(self.N_SUBSCRIBERS)
        ]
        session.serve(debounce=0.001)

        def writer(seed: int) -> None:
            for i in range(self.WRITES_PER_WRITER):
                key = (seed + i) % 6
                at = 100 + seed * self.WRITES_PER_WRITER + i
                if i % 5 == 4:
                    current_delete(
                        db.table("R"),
                        lambda row, k=key: row.values[0] == k,
                        at=at,
                    )
                elif i % 2 == 0:
                    current_insert(db.table("R"), (key,), at=at)
                else:
                    current_insert(db.table("S"), (key,), at=at)

        threads = [
            threading.Thread(target=writer, args=(seed,), name=f"writer-{seed}")
            for seed in range(self.N_WRITERS)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "writer thread hung"
        session.stop_serving()
        session.flush()  # whatever the loop had not picked up yet
        assert session.bus.drain(timeout=30)
        elapsed = time.monotonic() - started

        stats = session.stats()
        assert stats["repro_live_refresh_errors_total"] == 0
        assert stats["repro_serve_dropped_notifications_total"] == 0  # block policy: lossless
        assert session.bus.backlog() == 0
        assert stats["repro_serve_delivered_notifications_total"] == stats["repro_serve_queued_notifications_total"]
        # Every subscriber converged on the exact from-scratch result.
        for index, subscription in enumerate(subscriptions):
            expected = db.query(plans[index % len(plans)])
            assert frozenset(subscription.result.tuples) == frozenset(
                expected.tuples
            ), f"subscriber {index} diverged after {elapsed:.1f}s"
        # Exactly-once, in-order: each subscriber's pushes carry weakly
        # growing union-result sizes only for monotone plans; universally,
        # no subscriber may receive more pushes than flush rounds ran.
        flushes = stats["repro_live_flushes_total"]
        for pushes in received:
            assert len(pushes) <= flushes
        session.close()

    def test_writers_against_subscribe_unsubscribe_churn(self):
        db = self._database()
        session = LiveSession(db, delivery_workers=2)
        session.serve(debounce=0.001)
        stop = threading.Event()

        def writer(seed: int) -> None:
            i = 0
            while not stop.is_set() and i < 200:
                current_insert(db.table("R"), (seed % 6,), at=1000 + i)
                i += 1

        def churner() -> None:
            for i in range(30):
                sub = session.subscribe(
                    self._plans()[i % len(self._plans())],
                    on_refresh=lambda event: None,
                )
                time.sleep(0.001)
                sub.close()

        writers = [
            threading.Thread(target=writer, args=(seed,)) for seed in range(8)
        ]
        churners = [threading.Thread(target=churner) for _ in range(2)]
        for thread in writers + churners:
            thread.start()
        for thread in churners:
            thread.join(timeout=60)
        stop.set()
        for thread in writers:
            thread.join(timeout=60)
            assert not thread.is_alive(), "writer thread hung"
        session.close()
        assert session.stats()["repro_live_refresh_errors_total"] == 0
