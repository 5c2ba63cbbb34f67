"""A ratchet on the session's option count, its series and its modules' size.

Every independent constructor switch doubles the configurations the
suites and the ledger have to cover.  The next knob is a reviewed
decision: it has to edit this list.  Likewise a session stays a few
small parts (ROADMAP 5): no module of the live or serving layer grows
past :data:`MAX_CODE_LINES` without a reviewed edit here, and the
session's metric families are exactly the ones its one table lists
(ROADMAP 4c, first half).
"""

import ast
import inspect
import io
import threading
import time
import tokenize
from pathlib import Path

import pytest

import repro
from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_insert
from repro.errors import QueryError
from repro.live import LiveSession
from repro.live.manager import SubscriptionManager
from repro.live.metrics import CANONICAL_SAMPLES
from repro.live.serving import ServeLoop
from repro.relational.schema import Schema
from repro.serve import bus as bus_module
from repro.serve.bus import EventBus
from repro.serve.queues import Mailbox

#: The constructor's keyword names.  ``flush_shards`` is not an option:
#: it accepts ``0`` only (see the guard test below).
SESSION_OPTIONS = [
    "delivery_workers",
    "flush_shards",
    "queue_capacity",
    "backpressure",
    "registry",
    "freshness_slo",
    "trace",
]
SERVE_OPTIONS = ["debounce", "debounce_min", "debounce_max"]
#: What one subscription may say about itself.  A refresh that changed
#: nothing notifies nobody: there is no keyword to ask otherwise.
SUBSCRIBE_OPTIONS = [
    "on_refresh",
    "reference_time",
    "name",
    "backpressure",
    "queue_capacity",
    "statement",
]


def test_session_options_are_exactly_these():
    for function, positional, options in (
        (LiveSession.__init__, ["self", "database"], SESSION_OPTIONS),
        (LiveSession.serve, ["self"], SERVE_OPTIONS),
        (LiveSession.subscribe, ["self", "plan"], SUBSCRIBE_OPTIONS),
    ):
        parameters = inspect.signature(function).parameters
        assert list(parameters) == positional + options
        assert all(
            parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
            for name in options
        )


#: What the bus and its mailboxes take: a size, and nothing about what a
#: full mailbox does — every full one merges at once, whoever publishes.
BUS_SIGNATURES = (
    (EventBus.__init__, ["self", "workers", "capacity", "tracer", "on_delivered"]),
    (EventBus.subscribe, ["self", "key", "listener", "capacity"]),
    (Mailbox.__init__, ["self", "listener", "condition", "capacity"]),
    (Mailbox.put, ["self", "payload"]),
)


@pytest.mark.parametrize(
    "function, parameters",
    BUS_SIGNATURES,
    ids=[function.__qualname__ for function, _ in BUS_SIGNATURES],
)
def test_the_bus_takes_no_backpressure_policy(function, parameters):
    """Kills: a policy, or a wait with its timeout, coming back as a
    parameter of the bus or of its mailboxes."""
    assert list(inspect.signature(function).parameters) == parameters


def test_the_bus_has_no_block_timeout():
    """Kills: the publisher's wait coming back with its module-level
    bound."""
    assert not hasattr(bus_module, "BLOCK_TIMEOUT")


#: What the serve window reads is the band, ``queue_capacity`` and the
#: measured queue depth; a saturation point stretched by fan-out is gone.
REMOVED_WINDOW_INPUTS = (
    (ServeLoop, "debounce_scale"),
    (SubscriptionManager, "_fanout"),
)


@pytest.mark.parametrize(
    "owner, name",
    REMOVED_WINDOW_INPUTS,
    ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED_WINDOW_INPUTS],
)
def test_the_serve_window_reads_no_fanout(owner, name):
    """Kills: the window's saturation stretched by fan-out coming back."""
    assert not hasattr(owner, name)


def _database():
    db = Database("options")
    db.create_table("R", Schema.of("K", ("VT", "interval")))
    return db


def test_flush_shards_accepts_zero_and_nothing_else():
    """The keyword the ledger's lifecycle still passes selects nothing:
    ``0`` is accepted, stored nowhere and reported nowhere."""
    db = _database()
    for shards in (1, 2, -1):
        with pytest.raises(QueryError, match="flush_shards"):
            LiveSession(db, flush_shards=shards)
    session = LiveSession(db, flush_shards=0)
    assert not hasattr(session, "flush_shards")
    assert "flush_shards" not in session.stats()
    session.close()


def _fill_a_mailbox(backpressure):
    """One worker stuck in the first callback, capacity 1, two more
    refreshes: what the subscriber hears, and the session's stats."""
    session = LiveSession(
        _database(), delivery_workers=1, queue_capacity=1,
        backpressure=backpressure,
    )
    stuck, release = threading.Event(), threading.Event()
    heard = []

    def subscriber(event):
        if not stuck.is_set():
            stuck.set()
            release.wait(timeout=5)
        changes = event.changes_at(60)
        heard.append((sorted(changes.inserted), sorted(changes.deleted)))

    session.subscribe_sql(
        "SELECT * FROM R", on_refresh=subscriber, reference_time=60
    )
    table = session.database.table("R")
    current_insert(table, (1,), at=20)
    session.flush()
    assert stuck.wait(timeout=5)
    for key, at in ((2, 21), (3, 22)):  # the first fills it, the second merges
        current_insert(table, (key,), at=at)
        started = time.monotonic()
        session.flush()
        assert time.monotonic() - started < 0.25, "the flush waited"
    release.set()
    assert session.bus.drain(timeout=10)
    stats = session.stats()
    assert not hasattr(session, "backpressure")
    session.close()
    return heard, stats


def _open_session_with(db, backpressure):
    session = LiveSession(db, backpressure=backpressure)
    assert not hasattr(session, "backpressure")
    session.close()


def _subscribe_with(db, backpressure):
    session = LiveSession(db)
    try:
        subscription = session.subscribe_sql(
            "SELECT * FROM R", backpressure=backpressure
        )
        assert subscription.backpressure == backpressure
    finally:
        session.close()


#: Where ``backpressure=`` is checked: the session-wide value, stored
#: nowhere, and a subscription's own, kept for its manifest.
BACKPRESSURE_ENTRY_POINTS = {
    "session": _open_session_with,
    "subscribe": _subscribe_with,
}


@pytest.mark.parametrize("entry", sorted(BACKPRESSURE_ENTRY_POINTS))
def test_backpressure_accepts_block_and_coalesce(entry):
    """The names the ledger's lifecycle (``"block"``) and its burst
    workload (``"coalesce"``) pass.  Kills: either refused."""
    for name in ("block", "coalesce"):
        BACKPRESSURE_ENTRY_POINTS[entry](_database(), name)


@pytest.mark.parametrize("entry", sorted(BACKPRESSURE_ENTRY_POINTS))
def test_backpressure_refuses_drop_oldest_by_name(entry):
    """Kills: ``drop_oldest`` accepted again, or refused with a message
    that does not say what to choose instead."""
    with pytest.raises(ValueError, match="drop_oldest .* removed.*'coalesce'"):
        BACKPRESSURE_ENTRY_POINTS[entry](_database(), "drop_oldest")


@pytest.mark.parametrize("entry", sorted(BACKPRESSURE_ENTRY_POINTS))
def test_backpressure_rejects_an_unknown_name(entry):
    with pytest.raises(ValueError, match="unknown backpressure policy 'bounce'"):
        BACKPRESSURE_ENTRY_POINTS[entry](_database(), "bounce")


def test_block_and_coalesce_give_identical_streams():
    """Either accepted name selects nothing: a session built with either
    hears the same stream once a mailbox fills.  Kills: a leftover
    ``block`` wait (its third refresh waits for the stuck callback; a
    wait that outlasts it queues separately: three notifications,
    nothing coalesced)."""
    block, coalesce = _fill_a_mailbox("block"), _fill_a_mailbox("coalesce")
    assert block == coalesce
    heard, stats = block
    assert len(heard) == 2
    assert stats["repro_serve_coalesced_notifications_total"] == 1
    assert stats["repro_serve_dropped_notifications_total"] == 0


def test_the_session_families_a_scrape_exposes_are_the_canonical_table():
    """Every ``repro_live_*`` / ``repro_store_*`` / ``repro_serve_*``
    series is a row of ``live/metrics.CANONICAL_SAMPLES`` and the other
    way round: a deleted series cannot drift back, a new one is a
    reviewed edit of that table."""
    session = LiveSession(_database(), delivery_workers=1)
    session.subscribe_sql("SELECT * FROM R", on_refresh=lambda event: None)
    session.database.table("R").insert(1, until_now(5))
    session.flush()
    session.bus.drain(timeout=5)
    scraped = set(session.metrics.snapshot())
    exposed = {
        name
        for name in scraped
        if name.startswith(("repro_live_", "repro_store_", "repro_serve_"))
    }
    session.close()
    canonical = {name for name, _, _ in CANONICAL_SAMPLES}
    assert exposed == canonical
    assert len(canonical) == len(CANONICAL_SAMPLES) == 17
    assert not {name for name in scraped if "cost_adaptations" in name}
    # Nor a count of full refreshes a cost model chose: a refresh is a
    # delta unless an operator's rule refuses it.
    assert not {name for name in scraped if "_cost_" in name}


MAX_CODE_LINES = 500
_SKIPPED_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def _code_lines(path: Path) -> int:
    """Lines holding code: not blank, not comment, not docstring."""
    source = path.read_text()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED_TOKENS:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(
                range(docstring.lineno, docstring.end_lineno + 1)
            )
    return len(lines)


def test_no_live_or_serve_module_outgrows_the_gate():
    package = Path(repro.__file__).parent
    sizes = {
        str(path.relative_to(package)): _code_lines(path)
        for layer in ("live", "serve")
        for path in sorted((package / layer).glob("*.py"))
    }
    assert sizes and not {
        name: size for name, size in sizes.items() if size > MAX_CODE_LINES
    }
