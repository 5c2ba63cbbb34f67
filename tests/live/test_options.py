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
import tokenize
from pathlib import Path

import pytest

import repro
from repro.core.interval import until_now
from repro.engine.database import Database
from repro.errors import QueryError
from repro.live import LiveSession
from repro.live.metrics import CANONICAL_SAMPLES
from repro.relational.schema import Schema

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


def test_session_options_are_exactly_these():
    for function, positional, options in (
        (LiveSession.__init__, ["self", "database"], SESSION_OPTIONS),
        (LiveSession.serve, ["self"], SERVE_OPTIONS),
    ):
        parameters = inspect.signature(function).parameters
        assert list(parameters) == positional + options
        assert all(
            parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
            for name in options
        )


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
