"""A ratchet on the session's option count and on its modules' size.

Every independent constructor switch doubles the configurations the
suites and the ledger have to cover.  The next knob is a reviewed
decision: it has to edit this list.  Likewise a session stays a few
small parts (ROADMAP 4): no module of the live or serving layer grows
past :data:`MAX_CODE_LINES` without a reviewed edit here.
"""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import repro
from repro.live import LiveSession

SESSION_OPTIONS = [
    "delivery_workers",
    "flush_shards",
    "queue_capacity",
    "backpressure",
    "state_budget_bytes",
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
