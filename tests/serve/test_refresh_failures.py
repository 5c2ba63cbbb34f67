"""The refresher's escape hatch: an exception that gets past
``_refresh_one``'s own isolation — the refresh *machinery* failing, not a
plan — must be counted, announced, and must neither kill the serve loop
nor strand the other plans of its round."""

import time

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.live import EventBus
from repro.relational.schema import Schema

_TABLES = ("A", "B", "C")


def _database():
    db = Database("failures")
    for name in _TABLES:
        db.create_table(name, Schema.of("K", ("VT", "interval"))).insert(
            1, until_now(10)
        )
    return db


def _fail_once(session, routine):
    """Make the first call of ``session.<routine>`` raise."""
    real = getattr(session, routine)
    calls = []

    def fails_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("machinery failure past the isolation layer")
        return real(*args)

    setattr(session, routine, fails_once)


def _wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


@pytest.mark.timeout(60)
@pytest.mark.parametrize("routine", ["_refresh_one", "flush"])
def test_an_escaped_refresh_error_does_not_kill_the_serve_loop(routine):
    """Default options, ``serve()``: the first refresh escapes, the loop
    keeps serving and says so.  Kills: ``ServeLoop._run`` catching
    ``QueryError`` only (``routine="flush"`` — at the parent the thread
    died with ``serving`` still True and the write pending forever), and
    that together with no per-plan isolation in the round loop
    (``routine="_refresh_one"``).  The raising listener is what
    ``test_broken_error_hook_does_not_kill_the_shard`` pinned for the
    shard worker this hatch was moved from."""
    db = _database()
    session = LiveSession(db)
    _fail_once(session, routine)
    announced, delivered = [], []

    def broken_hook(payload):
        raise ValueError("the hook itself is broken")

    session.bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, broken_hook)
    session.bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, announced.append)
    sub = session.subscribe(scan("A"), on_refresh=delivered.append)
    session.serve(debounce=0.001)
    thread = session._serve_loop._thread

    def errors():
        return session.stats()["repro_live_refresh_errors_total"]

    db.table("A").insert(2, until_now(20))
    assert _wait_for(lambda: errors() == 1), "the failure was not counted"
    db.table("A").insert(3, until_now(30))
    assert _wait_for(lambda: delivered), "the loop stopped serving"
    assert sub.result == db.query(scan("A"))
    assert errors() == 1
    (flush_failure,) = [p for p in announced if p[0] == "flush"]
    assert isinstance(flush_failure[2], RuntimeError)
    assert session.serving and thread.is_alive()
    assert session._serve_loop._thread is thread
    session.close()


def test_an_escape_mid_round_does_not_strand_the_other_plans():
    """``flush()`` swaps the dirty set out before the round: when plan 1
    of 3 escapes, plans 2–3 must still refresh in that round, and plan 1
    must stay marked for the next.  Kills: no per-plan isolation in the
    round loop (the escape aborts the round — at the parent plans 2–3
    kept their pending records, lost their dirty marks and stayed stale
    until somebody wrote to their tables again)."""
    db = _database()
    session = LiveSession(db)
    told = {name: [] for name in _TABLES}
    subs = {
        name: session.subscribe(scan(name), on_refresh=told[name].append)
        for name in _TABLES
    }
    announced = []
    session.bus.subscribe(EventBus.LISTENER_ERROR_TOPIC, announced.append)
    _fail_once(session, "_refresh_one")
    for name in _TABLES:  # first noted, first refreshed: "A" escapes
        db.table(name).insert(2, until_now(20))
    assert session.flush() == 2
    assert [len(told[name]) for name in _TABLES] == [0, 1, 1]
    assert session.stats()["repro_live_refresh_errors_total"] == 1
    assert [(source, detail) for source, detail, _ in announced] == [
        ("flush", subs["A"].fingerprint[:12])
    ]
    # The failed plan's record is still owed, and the next flush answers it.
    assert subs["A"].stats.pending_events == 1 and session.pending == 1
    assert session.flush() == 1
    assert len(told["A"]) == 1 and session.pending == 0
    for name in _TABLES:
        assert subs[name].result == db.query(scan(name))
    session.close()
