"""A ratchet on the session's option count.

Every independent constructor switch doubles the configurations the
suites and the ledger have to cover.  The next knob is a reviewed
decision: it has to edit this list.
"""

import inspect

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
