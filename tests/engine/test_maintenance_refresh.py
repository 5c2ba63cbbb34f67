"""A refresh is a delta unless an operator's rule refuses it.

Nothing the maintainer has measured of itself — a slow delta apply, a
fast cold build, a batch a thousand times larger than the last — turns a
warm refresh into a re-evaluation.  A full refresh happens only on cold
state or a :class:`~repro.engine.delta.NonIncrementalDelta`, and the
delta result is the one a fresh cold build computes, at every reference
time.
"""

import time

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.delta import DeltaEvaluator
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

from tests.conftest import critical_points

_BATCH = 1_000


def _plan():
    return (
        scan("T")
        .where(col("VT").overlaps(lit(fixed_interval(40, 80))))
        .group_by(("K",), "count", output_name="n")
    )


def _session():
    db = Database("refresh-rule")
    table = db.create_table("T", Schema.of("K", ("VT", "interval")))
    for key in range(8):
        table.insert(key, until_now(10 * key))
    return db, LiveSession(db)


def _insert_batch(db):
    table = db.table("T")
    with table.batch():
        for row in range(_BATCH):
            start = row % 97
            table.insert(row % 10, fixed_interval(start, start + row % 31 + 1))


def _assert_equals_a_cold_build(db, result):
    cold = DeltaEvaluator(_plan(), db).refresh_full()
    values = []
    for relation in (cold, result, db.table("T").rows()):
        for item in relation:
            values.extend(item.values)
            values.append(item.rt)
    for rt in critical_points(*values):
        assert result.instantiate(rt) == cold.instantiate(rt), rt


def test_a_slow_warm_plan_still_refreshes_a_large_batch_by_delta(monkeypatch):
    """One measured delta refresh whose apply took 50 ms for one row, then
    a batch of a thousand rows: the plan propagates the batch.  Kills: a
    refresh policy that projects a batch's cost from the plan's measured
    apply time and re-evaluates when that looks cheaper."""
    db, session = _session()
    try:
        session.subscribe(_plan())
        (shared,) = session.shared_results()
        evaluator = shared._evaluator
        apply = evaluator.apply

        def slow_apply(pending):
            time.sleep(0.05)
            return apply(pending)

        monkeypatch.setattr(evaluator, "apply", slow_apply)
        db.table("T").insert(3, until_now(50))
        session.flush()
        assert (shared.delta_refreshes, shared.full_refreshes) == (1, 0)
        _insert_batch(db)
        session.flush()
        assert shared.delta_refreshes == 2
        assert shared.full_refreshes == shared.delta_fallbacks == 0
        _assert_equals_a_cold_build(db, shared.result)
    finally:
        session.close()


def test_a_session_reports_a_large_batch_as_one_delta_refresh():
    """The session's counters and EXPLAIN ANALYZE say what ran: one delta
    refresh, no full refresh, and no line about a refresh decision."""
    db, session = _session()
    try:
        subscription = session.subscribe(_plan())
        _insert_batch(db)
        session.flush()
        stats = session.stats()
        assert stats["repro_live_delta_refreshes_total"] == 1
        assert stats["repro_live_full_refreshes_total"] == 0
        text = subscription.explain_analyze()
        assert "full_refreshes=0  delta_refreshes=1" in text
        assert "decision=" not in text
        _assert_equals_a_cold_build(db, subscription.result)
    finally:
        session.close()
