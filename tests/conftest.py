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
from unittest import mock

import hypothesis
import pytest
from hypothesis import strategies as st

from repro.baselines import clifford
from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core import intervalset
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.core import timepoint
from repro.core.timepoint import OngoingTimePoint
from repro.engine.delta import NonIncrementalDelta
from repro.engine.plan import Aggregate, Scan, SortLimit
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


@pytest.fixture
def force_fallback():
    """``force_fallback(target)`` makes the next warm propagation of one
    plan — *target* is its ``IncrementalMaintainer`` or a subscription of
    it — raise :class:`~repro.engine.delta.NonIncrementalDelta` at the
    plan's root operator, once.  The refresh then falls back exactly as
    an operator rule refusing the delta would: annotated with the table
    and the delta shape, logged, counted in ``delta_fallbacks`` and
    ``full_refreshes``.  Every modification names its rows, so this is
    how a test gets a fallback whose cause does not matter."""
    forced = []

    def force(target) -> None:
        evaluator = getattr(target, "_maintainer", target)._evaluator

        def refuse(node, table_deltas, path="0"):
            del evaluator._apply
            raise NonIncrementalDelta("fallback forced by the test").annotate(
                operator=type(node).__name__, node_path=path
            )

        evaluator._apply = refuse
        forced.append(evaluator)

    yield force
    for evaluator in forced:
        evaluator.__dict__.pop("_apply", None)


def empty_intern_table() -> None:
    """Empty :class:`OngoingTimePoint`'s intern table the way a full one is
    emptied: one miss while ``INTERN_LIMIT`` is 1.  Afterwards the table
    holds ``NOW`` and the one fresh point."""
    fresh = PLUS_INF - 1
    while (fresh, fresh) in timepoint._INTERNED:
        fresh -= 1
    with mock.patch.object(timepoint, "INTERN_LIMIT", 1):
        OngoingTimePoint(fresh, fresh)


def empty_rt_table() -> None:
    """Empty :class:`IntervalSet`'s intern table the way a full one is
    emptied: one miss while its limit is 1.  Afterwards the table holds
    ``EMPTY_SET``, ``UNIVERSAL_SET`` and the one fresh set."""
    fresh = PLUS_INF - 1
    while ((fresh, PLUS_INF),) in intervalset._INTERNED:
        fresh -= 1
    with mock.patch.object(intervalset, "_INTERN_LIMIT", 1):
        IntervalSet.at_least(fresh)


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


# ----------------------------------------------------------------------
# The paper's definition as the oracle: ‖Q(D)‖rt = Q(‖D‖rt)
# ----------------------------------------------------------------------


def sweep(database, plans, *results) -> List[int]:
    """Every reference time at which *plans* over *database* or one of
    *results* can change: :func:`repro.baselines.clifford.critical_points`,
    and each result row's RT, time points, intervals and ongoing-number
    segments."""
    values: List[object] = []
    for result in results:
        for item in result.tuples:
            values.append(item.rt)
            for value in item.values:
                if isinstance(value, OngoingRational):
                    value = value.numerator  # aligned with the denominator's
                if isinstance(value, OngoingInt):
                    values.extend(start for start, _, _, _ in value.segments)
                elif isinstance(value, (OngoingTimePoint, OngoingInterval)):
                    values.append(value)
    points = set(clifford.critical_points(database, plans))
    return sorted(points.union(critical_points(*values)))


def assert_fixed_semantics(plan, database, *results, context=None) -> None:
    """Each of *results* instantiates, at every critical reference time, to
    ``evaluate_fixed(plan, database, rt)``: the fixed query on the
    database bound at rt (Theorem 2)."""
    for rt in sweep(database, [plan], *results):
        expected = clifford.evaluate_fixed(plan, database, rt)
        for position, result in enumerate(results):
            assert result.instantiate(rt) == expected, (context, position, rt)


def assert_reference_semantics(plan, database, *results, context=None) -> None:
    """For a plan ``evaluate_fixed`` refuses (an aggregate, a limited
    sort): each of *results* instantiates, at every critical reference
    time, to ``evaluate_pointwise(plan, child, rt)`` — the definition
    over the bag of the child's ongoing tuples, *child* being
    ``database.query(plan.child)``.  That child result is first held to
    its own definition: this one again for an aggregate or a limited
    sort, :func:`assert_fixed_semantics` for any other node."""
    child = database.query(plan.child)
    if isinstance(plan.child, Aggregate) or (
        isinstance(plan.child, SortLimit) and plan.child.limit is not None
    ):
        assert_reference_semantics(plan.child, database, child, context=context)
    elif not isinstance(plan.child, Scan):  # a bare scan is its table
        assert_fixed_semantics(plan.child, database, child, context=context)
    for rt in sweep(database, [plan.child], child, *results):
        expected = clifford.evaluate_pointwise(plan, child, rt)
        for position, result in enumerate(results):
            assert result.instantiate(rt) == expected, (context, position, rt)
