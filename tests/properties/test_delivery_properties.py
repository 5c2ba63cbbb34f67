"""Property tests: delivery binds what is read, and what is read is exact.

A refresh hands its subscribers the change and the pinned snapshot;
nothing is bound until somebody reads.  The contract of the three reads:
for any plan, any sequence of modifications (the PR-2 generators of
``test_delta_properties.py`` plus a bulk ``replace_all``), any
grouping of them into flushes and any of the three ways a notification
travels — the synchronous bus, one delivery worker, a ``coalesce``
mailbox of capacity 1 behind a consumer that is held back —

* folding every delivered notification's ``changes_at(rt)`` into the
  counted :class:`~repro.live.BoundRows` obtained at subscribe time,
* the snapshot the notification pins, instantiated at ``rt``, and
* the notification's lazy ``rows`` (at the reference time in force when
  it was notified, however late it is read)

agree at **every critical point** of every ongoing interval in play, a
count never turns negative (:meth:`BoundRows.apply` raises), and the
``(appeared, vanished)`` it returns replayed on a plain ``set`` give the
same rows.  The fold has to *count*: the last test is the mutation check
— a set-based fold of the same bound changes loses a row.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import fixed_interval, until_now
from repro.engine.modifications import current_delete
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit

from tests.conftest import critical_points
from test_delta_properties import (
    _MODIFICATIONS,
    _apply,
    _fresh_database,
    _plans,
)

#: Every component the generators produce lies in 0..32, so these are
#: the critical points of any interval in play, whatever was drawn.
_RTS = critical_points(*range(33))


def _delivery_plans():
    plans = _plans()
    # Dropping the ongoing column leaves tuples that differ in RT only:
    # they bind to one fixed tuple wherever their reference times meet.
    plans["filter-project"] = (
        scan("R")
        .where(col("VT").overlaps(lit(fixed_interval(10, 20))))
        .select_columns("K")
    )
    return plans


PLAN_KEYS = sorted(_delivery_plans())

#: mode → (session options, per-subscription options, consumer held back)
_MODES = {
    "sync": ({}, {}, False),
    "worker": ({"delivery_workers": 1, "backpressure": "block"}, {}, False),
    "coalesce": (
        {"delivery_workers": 1},
        {"backpressure": "coalesce", "queue_capacity": 1},
        True,
    ),
}

_CUTS = st.lists(st.booleans(), min_size=9, max_size=9)
_REFERENCE_TIMES = st.lists(st.sampled_from(_RTS), min_size=10, max_size=10)


def _extras(kinds, tables, **sizes):
    """Modifications the PR-2 generators lack, as ``(position in the
    script, modification)``: ``replace_all`` — a bulk swap, committed as
    its multiset difference — and ``delete_row``, which removes one row
    of several that may bind alike (the current deletes terminate rows,
    they rarely remove one)."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.tuples(
                st.sampled_from(kinds),
                st.sampled_from(tables),
                st.integers(min_value=0, max_value=9),
            ),
        ),
        **sizes,
    )


def _script(modifications, extras):
    script = list(modifications)
    for position, modification in extras:
        script.insert(min(position, len(script)), modification)
    return script


def _modify(db, modification) -> None:
    kind, table_name, number = modification[:3]
    if kind == "replace_all":  # keeps the rows of the other keys
        table = db.table(table_name)
        kept = [row for row in tuple(table.rows()) if row.values[0] != number % 4]
        table.replace_all(kept)
    elif kind == "delete_row":  # the number-th row, with its duplicates
        table = db.table(table_name)
        rows = tuple(table.rows())
        if rows:
            target = rows[number % len(rows)]
            table.delete_where(lambda row: row != target)
    else:
        _apply(db, modification)


@pytest.mark.parametrize("mode", sorted(_MODES))
@given(
    plan_key=st.sampled_from(PLAN_KEYS),
    modifications=_MODIFICATIONS,
    extras=_extras(["replace_all", "delete_row"], "RS", max_size=2),
    cuts=_CUTS,
    reference_times=_REFERENCE_TIMES,
)
@settings(max_examples=100, deadline=None)
def test_every_read_of_a_notification_agrees_at_every_critical_point(
    mode, plan_key, modifications, extras, cuts, reference_times
):
    _deliver_and_check(
        mode,
        _delivery_plans()[plan_key],
        _script(modifications, extras),
        cuts,
        reference_times,
    )


@given(
    modifications=_MODIFICATIONS,
    extras=_extras(["delete_row"], "R", min_size=1, max_size=3),
    cuts=_CUTS,
    reference_times=_REFERENCE_TIMES,
)
@settings(max_examples=100, deadline=None)
def test_the_fold_counts_where_a_projection_drops_the_ongoing_column(
    modifications, extras, cuts, reference_times
):
    """The plan whose tuples differ in RT only, losing one of them at a
    time: a fold that forgets to count is caught on the synchronous bus."""
    _deliver_and_check(
        "sync",
        _delivery_plans()["filter-project"],
        _script(modifications, extras),
        cuts,
        reference_times,
    )


def _deliver_and_check(mode, plan, script, cuts, reference_times):
    """Run *script* against a session in *mode*, flushing after the steps
    *cuts* marks (and the last), with the subscription's reference time
    reassigned before each flush; check the module's contract."""
    session_options, subscribe_options, held_back = _MODES[mode]
    db = _fresh_database()
    session = LiveSession(db, **session_options)
    delivered = []
    gate = threading.Event()

    def on_refresh(notification):
        assert gate.wait(timeout=30)
        delivered.append(notification)

    try:
        sub = session.subscribe(
            plan,
            on_refresh=on_refresh,
            reference_time=reference_times[-1],
            **subscribe_options,
        )
        bound = {rt: sub.bound_rows(rt) for rt in _RTS}
        plain = {rt: set(bound[rt].rows) for rt in _RTS}
        folded = 0
        expected_rows = []  # (notification, its rows by a cold evaluation)

        def fold_delivered():
            nonlocal folded
            gate.set()
            assert session.bus.drain(timeout=30)
            for notification in delivered[folded:]:
                result = notification.result
                for rt in _RTS:
                    appeared, vanished = bound[rt].apply(notification)
                    assert not appeared & vanished
                    assert appeared.isdisjoint(plain[rt]) and vanished <= plain[rt]
                    plain[rt] = (plain[rt] | appeared) - vanished
                    assert bound[rt].rows == result.instantiate(rt) == plain[rt]
            folded = len(delivered)

        if not held_back:
            gate.set()
        for step, modification in enumerate(script):
            _modify(db, modification)
            if not cuts[step] and step + 1 < len(script):
                continue
            sub.reference_time = reference_times[step]
            session.flush()
            if held_back:
                continue
            seen = len(delivered)
            fold_delivered()
            cold = db.query(plan)
            for notification in delivered[seen:]:
                assert notification.reference_time == reference_times[step]
                expected_rows.append(
                    (notification, cold.instantiate(reference_times[step]))
                )
        fold_delivered()
        # Whatever was not delivered was merged, never dropped.
        stats = session.stats()
        assert stats["repro_serve_dropped_notifications_total"] == 0
        assert stats["repro_serve_coalesced_notifications_total"] == (
            sub.stats.notifications - len(delivered)
        )

        cold = db.query(plan)
        for rt in _RTS:
            assert bound[rt].rows == sub.result.instantiate(rt) == cold.instantiate(rt)
        # ``rows`` is read last, after the subscription moved on to other
        # reference times: each notification answers at its own.
        for notification, rows in expected_rows:
            assert notification.rows == rows
        for notification in delivered:
            rt = notification.reference_time
            assert notification.rows == notification.result.instantiate(rt)
        if delivered:
            assert delivered[-1].rows == bound[delivered[-1].reference_time].rows
    finally:
        gate.set()
        session.close()


def test_a_set_fold_loses_the_row_two_ongoing_tuples_bind_to():
    """The mutation check: replace the counts by a set and this fails."""
    db = _fresh_database()
    db.table("R").insert(1, until_now(12))  # beside (1, [8, 18))
    session = LiveSession(db)
    received = []
    rt = 15
    sub = session.subscribe(
        _delivery_plans()["filter-project"],
        on_refresh=received.append,
        reference_time=rt,
    )
    ones = [item for item in sub.result.tuples if item.values == (1,)]
    assert len(ones) > 1 and all(item.instantiate(rt) == (1,) for item in ones)
    counted = sub.bound_rows()
    as_set = set(counted.rows)

    current_delete(
        db.table("R"),
        lambda row: row.values == (1, fixed_interval(8, 18)),
        at=9,  # [8, 18) ends at 9: it no longer overlaps [10, 20)
    )
    session.flush()
    (notification,) = received
    changes = notification.changes_at()
    assert (1,) in changes.deleted and (1,) not in changes.inserted
    as_set |= set(changes.inserted)
    as_set -= set(changes.deleted)
    assert counted.apply(notification) == (frozenset(), frozenset())
    assert (1,) in counted.rows and counted.rows == notification.rows
    assert (1,) not in as_set  # what a fold that does not count believes
