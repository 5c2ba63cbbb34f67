"""Shared hypothesis strategies and helpers for the test suite.

The central testing idea mirrors the paper's Definition 4: an operation on
ongoing values is correct iff, at **every** reference time, its result
instantiates to the fixed operation applied to the instantiated inputs.
Truth values of our operations can only change at the *component values* of
their operands (and their successors), so :func:`critical_points` returns a
complete set of reference times to check — the assertions are exhaustive,
not sampled.
"""

from __future__ import annotations

import logging
from typing import Iterable, List

import hypothesis
import pytest
from hypothesis import strategies as st

from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.core.timepoint import OngoingTimePoint
from repro.relational.tuples import OngoingTuple

# The bus contract is stated once and collected through subclasses in two
# test modules; its asserts are rewritten like any test's.
pytest.register_assert_rewrite("tests.serve.bus_contract")

hypothesis.settings.register_profile(
    "repro", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("repro")


def pytest_configure(config):
    # The concurrency suite (tests/serve) marks its stress tests with
    # @pytest.mark.timeout(...).  The marker is enforced by pytest-timeout
    # where installed (CI); registering it here keeps the suite runnable
    # without the plugin — the tests carry their own join() deadlines, so
    # they fail rather than hang either way.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test timeout, enforced by pytest-timeout "
        "when installed (registered as a no-op fallback otherwise)",
    )


@pytest.fixture
def fallback_log(caplog):
    """The fallback log lines of this test, as messages.

    A refresh that falls back to a full re-evaluation logs one INFO line
    on ``repro.engine.delta`` naming the plan fingerprint, the operator,
    the table, the delta shape and the cause — the record of a fallback;
    EXPLAIN's ``delta_fallbacks=`` and ``repro_live_full_refreshes_total``
    count them."""
    caplog.set_level(logging.INFO, logger="repro.engine.delta")
    return lambda: [
        record.getMessage()
        for record in caplog.records
        if record.name == "repro.engine.delta"
        and "fell back" in record.getMessage()
    ]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Finite component values; small so critical-point sweeps stay cheap.
finite_points = st.integers(min_value=-30, max_value=30)

#: Component values including the domain limits.
component_points = st.one_of(
    finite_points, st.just(MINUS_INF), st.just(PLUS_INF)
)


@st.composite
def ongoing_points(draw) -> OngoingTimePoint:
    """Arbitrary elements ``a+b`` of Ω (including fixed/now/growing/limited)."""
    a = draw(component_points)
    b = draw(component_points)
    if a > b:
        a, b = b, a
    return OngoingTimePoint(a, b)


@st.composite
def ongoing_intervals(draw) -> OngoingInterval:
    """Arbitrary ongoing intervals (possibly always/partially empty)."""
    return OngoingInterval(draw(ongoing_points()), draw(ongoing_points()))


@st.composite
def interval_sets(draw) -> IntervalSet:
    """Arbitrary normalized interval sets over the finite grid."""
    raw = draw(
        st.lists(
            st.tuples(finite_points, finite_points).map(
                lambda pair: (min(pair), max(pair) + 1)
            ),
            max_size=5,
        )
    )
    extras = []
    if draw(st.booleans()):
        extras.append((MINUS_INF, draw(finite_points)))
    if draw(st.booleans()):
        extras.append((draw(finite_points), PLUS_INF))
    return IntervalSet(raw + extras)


@st.composite
def ongoing_integers(draw) -> OngoingInt:
    """Arbitrary piecewise-affine ongoing integers (one to four segments)."""
    cuts = sorted(draw(st.lists(finite_points, max_size=3, unique=True)))
    forms = draw(
        st.lists(
            st.tuples(st.integers(-(2**40), 2**40), st.integers(-5, 5)),
            min_size=len(cuts) + 1,
            max_size=len(cuts) + 1,
        )
    )
    bounds = zip([MINUS_INF, *cuts], [*cuts, PLUS_INF])
    return OngoingInt([(start, end, *form) for (start, end), form in zip(bounds, forms)])


class Label(str):
    """A ``str`` subclass: stored as text, read back as plain ``str``."""


class Code(int):
    """An ``int`` subclass: stored as an integer, read back as plain ``int``."""


def storable_values(texts=st.text(max_size=24)):
    """Every kind of value the tagged (WAL / checkpoint) codec stores."""
    integers = st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from([-(2**31) - 1, -(2**31), 2**31 - 1, 2**31]),
    )
    return st.one_of(
        st.none(),
        st.booleans(),
        integers,
        integers.map(Code),
        texts,
        texts.map(Label),
        ongoing_points(),
        ongoing_intervals(),
        ongoing_integers(),
        st.builds(OngoingRational, ongoing_integers(), ongoing_integers()),
    )


def storable_rows(texts=st.text(max_size=24)):
    """Rows of :func:`storable_values` under the trivial RT (the singleton
    every base row carries) or an arbitrary, possibly multi-interval one."""
    return st.builds(
        OngoingTuple,
        st.lists(storable_values(texts), max_size=6).map(tuple),
        st.one_of(st.just(UNIVERSAL_SET), interval_sets()),
    )


# ----------------------------------------------------------------------
# Reference time sweeps
# ----------------------------------------------------------------------


def critical_points(*values: object) -> List[int]:
    """A complete set of reference times for the given operands.

    Includes every finite component value, its predecessor and successor,
    the far past/future, and ``MINUS_INF``.  Between consecutive critical
    points all our piecewise-constant constructions keep their value, so
    checking these points checks all reference times.
    """
    components: set[int] = set()
    for value in values:
        if isinstance(value, OngoingTimePoint):
            components.update(value.components())
        elif isinstance(value, OngoingInterval):
            components.update(value.components())
        elif isinstance(value, IntervalSet):
            for start, end in value:
                components.add(start)
                components.add(end)
        elif isinstance(value, int):
            components.add(value)
    finite = sorted(c for c in components if MINUS_INF < c < PLUS_INF)
    points = {MINUS_INF, -100, 100}
    for component in finite:
        points.update((component - 1, component, component + 1))
    return sorted(points)


def instantiate_set(rts: Iterable[int], value) -> List[object]:
    """Instantiate *value* at each rt (for table-style comparisons)."""
    return [value.instantiate(rt) for rt in rts]
