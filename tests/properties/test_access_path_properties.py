"""Property tests: a cold read through an access path loses no row.

The cold build of a plan — what ``Database.query`` and every subscribe,
resume and fallback refresh run — reads a scan under a selection
through its access path: the constant's bucket of
``Table.partition_index`` under ``column = constant``, the
``IntervalIndex`` window under a temporal conjunct.  Either must be a
superset of what the selection keeps.  So at every critical reference
time three evaluations agree: the cold build, the paper's definition
(:func:`repro.baselines.clifford.evaluate_fixed` on the bound table; for
a top-k, which it refuses, :func:`~repro.baselines.clifford.evaluate_pointwise`
over the cold build of the selection, itself held to ``evaluate_fixed``)
and — after each random
batch of modifications — the delta-maintained result.

The tables are built to stress the access paths: the equality column
mixes ``True`` / ``1`` and ``False`` / ``0`` (values that compare and hash
equal, so share a bucket); the interval column mixes expanding
``[a, now)``, shrinking ``[now, b)`` and fixed intervals, and a row
inserted and terminated at one instant leaves the empty envelope
``[at, at)``.  Sort keys take two values, so ``ORDER BY … LIMIT k``
ties.  A batch may update a row *into* the probed bucket.  Each test
patches ``INDEX_THRESHOLD`` to 0, so every table is read through its
access path, however small.

Each invariant, and the mutant it was seen to kill:

* cold build ≡ oracle on the generated table — an interval
  window handed up without the ``OngoingFilter`` above it (and, for a
  plan that is the bare selection, the ``FixedFilter`` dropped above a
  bucket: the scan is then the root, which serves the whole table);
* maintained ≡ oracle after every batch — the ``FixedFilter`` dropped
  above a bucket below a projection or a sort (the scan's delta rule
  forwards the whole table's transitions, so a row outside the bucket
  leaks in), and the sort tie-break compared by identity (a window row's
  delete is taken for one beyond the limit, and the row stays);
* a fresh cold build ≡ oracle after every batch — a table cache not
  dropped on write (the stale bucket misses the row updated into it).
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.timepoint import NOW, fixed
from repro.engine import indexes
from repro.engine.database import Database
from repro.engine.delta import (
    Delta,
    DeltaBuilder,
    DeltaEvaluator,
    NonIncrementalDelta,
)
from repro.engine.modifications import current_delete, current_insert
from repro.engine.plan import SortLimit, scan
from repro.engine.planner import plan_query
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import assert_fixed_semantics, assert_reference_semantics

_SCHEMA = Schema.of("K", "G", ("VT", "interval"))
_EQUALS = (0, 1, 2, True, False)
_TIMES = st.integers(min_value=0, max_value=12)
_WINDOW = fixed_interval(3, 7)

_INTERVALS = st.one_of(
    _TIMES.map(until_now),
    _TIMES.map(lambda end: OngoingInterval(NOW, fixed(end))),
    st.tuples(_TIMES, _TIMES).map(  # (a, a) is the empty envelope
        lambda pair: fixed_interval(min(pair), max(pair))
    ),
)
_ROWS = st.tuples(
    st.sampled_from(_EQUALS), st.integers(min_value=0, max_value=1), _INTERVALS
).map(OngoingTuple)

_MODIFICATION = st.one_of(
    st.tuples(st.just("insert"), _ROWS),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("move"), st.integers(min_value=0, max_value=63)),
    st.tuples(
        st.just("current_insert"),
        st.sampled_from(_EQUALS),
        st.integers(min_value=0, max_value=1),
        _TIMES,
    ),
    st.tuples(st.just("terminate"), st.sampled_from(_EQUALS), _TIMES),
)
_BATCHES = st.lists(
    st.lists(_MODIFICATION, min_size=1, max_size=4), min_size=1, max_size=4
)


def _plans(value):
    """plan name → logical plan over R."""
    equal = col("K") == lit(value)
    flipped = lit(value) == col("K")
    overlaps = col("VT").overlaps(lit(_WINDOW))
    return {
        "equality": scan("R").where(equal),
        "temporal": scan("R").where(overlaps),
        "mixed": scan("R").where(flipped & overlaps),
        "projected": scan("R").where(equal).select_columns("G", "VT"),
        "top-k": scan("R").where(equal).order_by(("G", True), limit=2),
        "top-k-window": scan("R").where(overlaps).order_by("G", limit=3),
    }


PLAN_KEYS = sorted(_plans(0))


def _modify(table, modification, value) -> None:
    kind = modification[0]
    rows = list(table.as_relation())
    if kind == "insert":
        table.insert_tuples((modification[1],))
    elif kind == "current_insert":
        _, key, group, at = modification
        current_insert(table, (key, group), at=at)
    elif kind == "terminate":
        _, key, at = modification
        current_delete(table, lambda item: item.values[0] == key, at=at)
    elif rows:
        row = rows[modification[1] % len(rows)]
        if kind == "delete":
            table.apply_delta(Delta.delete((row,)))
        else:  # move: the row's key becomes the probed constant
            moved = OngoingTuple((value,) + row.values[1:], row.rt)
            table.apply_delta(Delta.update((row,), (moved,)))


def _assert_agree(db, plan, maintained=None):
    """The cold build (position 0) and *maintained* (position 1) ≡ the
    oracle at every critical point."""
    compared = [db.query(plan)] + ([maintained] if maintained is not None else [])
    if isinstance(plan, SortLimit):
        assert_reference_semantics(plan, db, *compared)
    else:
        assert_fixed_semantics(plan, db, *compared)


@pytest.mark.parametrize("plan_key", PLAN_KEYS)
@given(
    initial=st.lists(_ROWS, max_size=12),
    value=st.sampled_from(_EQUALS),
    batches=_BATCHES,
)
@settings(max_examples=40, deadline=None)
def test_cold_pull_maintained_and_oracle_agree(plan_key, initial, value, batches):
    plan = _plans(value)[plan_key]
    db = Database("access-paths")
    table = db.create_table("R", _SCHEMA)
    table.insert_tuples(initial)
    with patch.object(indexes, "INDEX_THRESHOLD", 0):
        _assert_agree(db, plan)  # builds the caches a write must drop
        evaluator = DeltaEvaluator(plan, db)
        evaluator.refresh_full()
        pending = [DeltaBuilder()]  # what the table committed since the last apply
        table.add_delta_listener(
            lambda name, version, delta: pending[0].add(delta)
        )
        for batch in batches:
            with table.batch():
                for modification in batch:
                    _modify(table, modification, value)
            taken, pending[0] = pending[0].build(), DeltaBuilder()
            try:
                evaluator.apply({"R": taken})
            except NonIncrementalDelta:  # the fallback: an evicted top-k boundary
                evaluator.refresh_full()
            _assert_agree(db, plan, evaluator.result)


@pytest.mark.parametrize(
    "plan_key, access_path",
    [
        ("equality", "SeqScan R (K = 1: 3 of 5 tuples)"),
        ("projected", "SeqScan R (K = 1: 3 of 5 tuples)"),
        ("temporal", "IntervalScan R"),
        ("top-k-window", "IntervalScan R"),
    ],
)
def test_the_plans_read_through_their_access_path(plan_key, access_path):
    """The suite above exercises the access paths, not the plain scan:
    ``1`` finds the rows holding ``1`` and ``True`` alike."""
    db = Database("access-paths")
    db.create_table("R", _SCHEMA).insert_tuples(
        OngoingTuple((key, 0, until_now(at)))
        for at, key in enumerate((1, True, 2, 1, False))
    )
    plan = _plans(1)[plan_key]
    with patch.object(indexes, "INDEX_THRESHOLD", 0):
        assert access_path in plan_query(plan, db).explain()
