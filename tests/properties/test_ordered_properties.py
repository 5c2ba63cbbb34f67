"""Property tests: the ordered SQL surface is delta-exact.

The ordered extension of the delta-engine contract: for multi-aggregate
GROUP BY (COUNT + AVG + MAX in one pass), HAVING selections over the
aggregate's output, DISTINCT's multiplicity counting, and maintained
ORDER BY / top-k windows, any sequence of typed modifications (the PR-2
generator shapes) produces — step for step — a result byte-identical to
a from-scratch evaluation.

Two plan families, two guarantees:

* **in-window plans** (pure ORDER BY, or a limit no modification sequence
  can overflow) must never fall back to full re-evaluation — asserted, so
  the test cannot silently pass by re-running everything;
* the **tight-k plan** (``LIMIT 2`` over churning groups) exercises the
  boundary-eviction fallback on purpose — there only exactness is
  asserted; the fallback is the documented, logged escape hatch.

An aggregate or a top-k that sits right over the scan or over an
aggregate is also held, at every critical point, to its pointwise
definition (:func:`repro.baselines.clifford.evaluate_pointwise`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)
from repro.engine.plan import Aggregate, Scan, SortLimit, scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

from tests.conftest import assert_reference_semantics

_MULTI_SPECS = [("count", None, "n"), ("avg", "N", "a"), ("max", "N", "m")]


def _in_window_plans():
    """Plans whose delta path must never fall back.

    The top-k limits are far above the 4 possible group keys / any row
    count the generators can produce, so the window is never full and
    every delete lands on the incremental path.
    """
    window = lit(fixed_interval(10, 20))
    return {
        "multi-aggregate": scan("R").group_by(("K",), specs=_MULTI_SPECS),
        "scalar-avg": scan("R").group_by((), "avg", "N"),
        "having-count": scan("R")
        .group_by(("K",), specs=_MULTI_SPECS)
        .where(col("n") >= lit(2)),
        "having-avg": scan("R")
        .group_by(("K",), specs=_MULTI_SPECS)
        .where(col("a") > lit(0)),
        "distinct": scan("R").select_columns("K", "N").distinct(),
        "order-by": scan("R").order_by(("N", True), "K"),
        "topk-wide": scan("R").order_by(("N", True), ("K", False), limit=100),
        "ordered-aggregate": scan("R")
        .group_by(("K",), specs=_MULTI_SPECS)
        .where(col("n") >= lit(1))
        .distinct()
        .order_by(("a", True), "K", limit=50),
        "filtered-order-by": scan("R")
        .where(col("VT").overlaps(window))
        .order_by(("N", True)),
    }


IN_WINDOW_KEYS = sorted(_in_window_plans())


def _tight_plans():
    """Plans whose boundary can be evicted — correctness only."""
    return {
        "topk-tight": scan("R").order_by(("N", True), limit=2),
        "topk-tight-aggregate": scan("R")
        .group_by(("K",), specs=_MULTI_SPECS)
        .order_by(("a", True), limit=2),
    }


TIGHT_KEYS = sorted(_tight_plans())

_KEYS = st.integers(min_value=0, max_value=3)
_NUMS = st.integers(min_value=-5, max_value=5)
_TIMES = st.integers(min_value=0, max_value=30)


def _intervals():
    return st.one_of(
        st.tuples(_TIMES).map(lambda t: until_now(t[0])),
        st.tuples(_TIMES, _TIMES).map(
            lambda pair: fixed_interval(min(pair), max(pair) + 2)
        ),
    )


_MODIFICATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS, _NUMS, _intervals()),
        st.tuples(st.just("current_insert"), _KEYS, _NUMS, _TIMES),
        st.tuples(st.just("current_delete"), _KEYS, _TIMES),
        st.tuples(st.just("current_update"), _KEYS, _KEYS, _NUMS, _TIMES),
        st.tuples(st.just("delete_rows"), _KEYS),
    ),
    min_size=1,
    max_size=6,
)


def _assert_pointwise(plan, db, result) -> None:
    """Hold *result* to ``evaluate_pointwise`` where *plan* is an aggregate
    or a top-k over a scan or an aggregate."""
    pointwise = isinstance(plan, Aggregate) or (
        isinstance(plan, SortLimit) and plan.limit is not None
    )
    if pointwise and isinstance(plan.child, (Scan, Aggregate)):
        assert_reference_semantics(plan, db, result)


def _fresh_database() -> Database:
    db = Database("ordered-props")
    table = db.create_table("R", Schema.of("K", "N", ("VT", "interval")))
    table.insert(0, 2, until_now(5))
    table.insert(1, -1, until_now(3))
    table.insert(1, 4, fixed_interval(8, 18))
    table.insert(2, 0, until_now(12))
    return db


def _apply(db: Database, modification) -> None:
    kind = modification[0]
    table = db.table("R")
    if kind == "insert":
        table.insert(modification[1], modification[2], modification[3])
    elif kind == "current_insert":
        current_insert(
            table, (modification[1], modification[2]), at=modification[3]
        )
    elif kind == "current_delete":
        key = modification[1]
        current_delete(table, lambda r: r.values[0] == key, at=modification[2])
    elif kind == "current_update":
        key = modification[1]
        current_update(
            table,
            lambda r: r.values[0] == key,
            (modification[2], modification[3]),
            at=modification[4],
        )
    else:  # delete_rows: drop the key's rows entirely
        key = modification[1]
        table.delete_where(lambda r: r.values[0] != key)


@given(st.sampled_from(IN_WINDOW_KEYS), _MODIFICATIONS)
@settings(max_examples=120)
def test_ordered_delta_paths_equal_full_reevaluation(plan_key, modifications):
    """After every modification, the maintained result is byte-identical
    to a from-scratch evaluation — with zero full-refresh fallbacks."""
    plan = _in_window_plans()[plan_key]
    db = _fresh_database()
    session = LiveSession(db)
    sub = session.subscribe(plan)
    for step, modification in enumerate(modifications):
        _apply(db, modification)
        session.flush()
        expected = db.query(plan)
        assert sub.result == expected, (
            f"{plan_key}: maintained result diverged at step {step} "
            f"after {modification!r}"
        )
    assert session.stats()["repro_live_full_refreshes_total"] == 0


@given(st.sampled_from(TIGHT_KEYS), _MODIFICATIONS)
@settings(max_examples=80)
def test_tight_topk_is_exact_even_through_fallbacks(plan_key, modifications):
    """A k=2 window over churning rows: boundary evictions may force the
    logged full-refresh fallback, but the served result never diverges."""
    plan = _tight_plans()[plan_key]
    db = _fresh_database()
    session = LiveSession(db)
    sub = session.subscribe(plan)
    for step, modification in enumerate(modifications):
        _apply(db, modification)
        session.flush()
        expected = db.query(plan)
        assert sub.result == expected, (
            f"{plan_key}: top-k diverged at step {step} after "
            f"{modification!r}"
        )
    _assert_pointwise(plan, db, sub.result)


@given(st.sampled_from(IN_WINDOW_KEYS), _MODIFICATIONS)
@settings(max_examples=40)
def test_ordered_instantiations_agree_at_all_reference_times(
    plan_key, modifications
):
    """Exactness through the bind operator: the maintained result
    instantiates identically to a fresh evaluation at every rt."""
    plan = _in_window_plans()[plan_key]
    db = _fresh_database()
    session = LiveSession(db)
    sub = session.subscribe(plan)
    for modification in modifications:
        _apply(db, modification)
    session.flush()
    expected = db.query(plan)
    for rt in range(-2, 35):
        assert sub.instantiate(rt) == expected.instantiate(rt)
    _assert_pointwise(plan, db, sub.result)
    assert session.stats()["repro_live_full_refreshes_total"] == 0
