"""Refresh failures are counted and logged, never published: a plan whose
refresh raises, and the refresher's escape hatch — an exception that
gets past ``_refresh_one``'s own isolation, the refresh *machinery*
failing, not a plan — which must neither kill the serve loop nor strand
the other plans of its round."""

import logging
import time

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.live import LiveSession
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


def _failures(caplog):
    """The refresh failures logged on the session's logger."""
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "repro.live.manager" and record.levelno == logging.ERROR
    ]


def _wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def test_a_refresh_that_raises_is_counted_once_and_logged(caplog):
    """A plan whose refresh raises keeps its last result; the failure is
    counted once and logged with the plan's fingerprint and the commit
    it owed.  Kills: the count or the log line going missing, or the
    failure escaping to the round loop (counted twice)."""
    db = _database()
    session = LiveSession(db)
    delivered = []
    sub = session.subscribe(scan("A"), on_refresh=delivered.append)
    (maintainer,) = session.shared_results()

    def broken():
        raise RuntimeError("the plan cannot refresh")

    maintainer.refresh = broken
    db.table("A").insert(2, until_now(20))
    tick = db.last_commit.tick
    with caplog.at_level(logging.ERROR, logger="repro.live.manager"):
        assert session.flush() == 0
    assert session.stats()["repro_live_refresh_errors_total"] == 1
    (message,) = _failures(caplog)
    assert message == (
        f"refresh failed: plan {sub.fingerprint[:12]}, owed commit tick {tick}"
    )
    assert delivered == [] and len(sub.result.tuples) == 1
    session.close()


@pytest.mark.timeout(60)
@pytest.mark.parametrize("routine", ["_refresh_one", "flush"])
def test_an_escaped_refresh_error_does_not_kill_the_serve_loop(routine, caplog):
    """Default options, ``serve()``: the first refresh escapes, the loop
    keeps serving and logs it.  Kills: ``ServeLoop._run`` catching
    ``QueryError`` only (``routine="flush"`` — at the parent the thread
    died with ``serving`` still True and the write pending forever), and
    that together with no per-plan isolation in the round loop
    (``routine="_refresh_one"``)."""
    db = _database()
    session = LiveSession(db)
    _fail_once(session, routine)
    delivered = []
    sub = session.subscribe(scan("A"), on_refresh=delivered.append)
    session.serve(debounce=0.001)
    thread = session._serve_loop._thread

    def errors():
        return session.stats()["repro_live_refresh_errors_total"]

    with caplog.at_level(logging.ERROR, logger="repro.live.manager"):
        db.table("A").insert(2, until_now(20))
        assert _wait_for(lambda: errors() == 1), "the failure was not counted"
        db.table("A").insert(3, until_now(30))
        assert _wait_for(lambda: delivered), "the loop stopped serving"
    assert sub.result == db.query(scan("A"))
    assert errors() == 1
    # The serve loop knows no plan; the round loop names the one it ran.
    plan = "?" if routine == "flush" else sub.fingerprint[:12]
    (message,) = _failures(caplog)
    assert message.startswith(f"refresh machinery failed: plan {plan},")
    assert session.serving and thread.is_alive()
    assert session._serve_loop._thread is thread
    session.close()


def test_an_escape_mid_round_does_not_strand_the_other_plans(caplog):
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
    _fail_once(session, "_refresh_one")
    for name in _TABLES:  # first noted, first refreshed: "A" escapes
        db.table(name).insert(2, until_now(20))
    owed = subs["A"]._maintainer.owed.commit.tick
    with caplog.at_level(logging.ERROR, logger="repro.live.manager"):
        assert session.flush() == 2
    assert [len(told[name]) for name in _TABLES] == [0, 1, 1]
    assert session.stats()["repro_live_refresh_errors_total"] == 1
    assert _failures(caplog) == [
        f"refresh machinery failed: plan {subs['A'].fingerprint[:12]}, "
        f"owed commit tick {owed}"
    ]
    # The failed plan's record is still owed, and the next flush answers it.
    assert subs["A"].stats.pending_events == 1 and session.pending == 1
    assert session.flush() == 1
    assert len(told["A"]) == 1 and session.pending == 0
    for name in _TABLES:
        assert subs[name].result == db.query(scan(name))
    session.close()
