"""Property tests: stateless scans under a writer that runs ahead.

A scan keeps no copy of its table: which rows entered or left the *set*
is decided by the table as each modification commits, and the scan nets
those transitions over whatever run of commits one flush coalesces.  It
must never consult the table at flush time — the table may be commits
ahead of the delta being applied.

Tables hold duplicate rows; commits insert a copy or delete one copy
(so ``insert dup → delete one → delete last`` and its reverse are
common).  The commits reach the evaluator one by one, coalesced in
random groups, and with a further commit landing between taking a
pending delta and applying it.  After every apply the maintained result
must instantiate, at every critical reference time, like
:func:`repro.baselines.clifford.evaluate_fixed` on the table contents
*the applied deltas describe* (the aggregate like its pointwise
definition, :func:`repro.baselines.clifford.evaluate_pointwise`, over
the cold build of its child there) — and like a cold evaluation once
everything is applied.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.delta import Delta, DeltaBuilder, DeltaEvaluator
from repro.engine.plan import Aggregate, scan
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import assert_fixed_semantics, assert_reference_semantics

_SCHEMA = Schema.of("K", ("VT", "interval"))
_ROWS = [
    OngoingTuple((1, until_now(3))),
    OngoingTuple((1, fixed_interval(2, 8))),
    OngoingTuple((2, until_now(5))),
]
_FILTER = (col("K") == lit(1)) & col("VT").overlaps(lit(fixed_interval(0, 6)))
_ON = (col("B.K") == col("A.K")) & col("B.VT").overlaps(col("A.VT"))

#: plan key → logical plan over B and A
_PLANS = {
    "scan": scan("B"),
    "filter": scan("B").where(_FILTER),
    "join": scan("B").join(scan("A"), on=_ON, left_name="B", right_name="A"),
    "aggregate": scan("B").group_by(("K",), "count"),
}

_COMMITS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), st.sampled_from(_ROWS)),
    min_size=1,
    max_size=10,
)


def _database(initial):
    db = Database("scan-props")
    db.create_table("B", _SCHEMA).insert_tuples(initial)
    db.create_table("A", _SCHEMA).insert_tuples(_ROWS)
    return db


def _commit(db, kind, row) -> bool:
    """Insert a copy of *row* into B, or delete one copy if one is held."""
    table = db.table("B")
    if kind == "insert":
        table.insert_tuples((row,))
    elif row in table.rows():
        table.apply_delta(Delta.delete((row,)))
    else:
        return False
    return True


def _assert_matches(evaluator, plan, b_rows):
    """The maintained result ≡ the oracle over B holding *b_rows*."""
    described = _database(b_rows)
    if isinstance(plan, Aggregate):
        assert_reference_semantics(plan, described, evaluator.result)
    else:
        assert_fixed_semantics(plan, described, evaluator.result)


@pytest.mark.parametrize("plan_key", sorted(_PLANS))
@given(
    initial=st.lists(st.sampled_from(_ROWS), max_size=4),
    commits=_COMMITS,
    cuts=st.lists(st.booleans(), min_size=10, max_size=10),
    ahead=st.tuples(st.sampled_from(["insert", "delete"]), st.sampled_from(_ROWS)),
)
@settings(max_examples=40)
def test_scans_net_transitions_whatever_the_flush_grouping(
    plan_key, initial, commits, cuts, ahead
):
    plan = _PLANS[plan_key]
    db = _database(initial)
    evaluator = DeltaEvaluator(plan, db)
    evaluator.refresh_full()
    pending = {"builder": DeltaBuilder()}
    db.table("B").add_delta_listener(
        lambda name, version, delta: pending["builder"].add(delta)
    )

    def flush(*, writer_runs_ahead=False):
        taken = pending["builder"].build()
        pending["builder"] = DeltaBuilder()
        described = tuple(db.table("B").rows())  # what *taken* leads up to
        if writer_runs_ahead:
            _commit(db, *ahead)  # lands in the next pending delta
        evaluator.apply({"B": taken})
        _assert_matches(evaluator, plan, described)

    for (kind, row), cut in zip(commits, cuts):
        _commit(db, kind, row)
        if cut:  # False: this commit coalesces with the next one
            flush()
    flush(writer_runs_ahead=True)
    flush()
    assert evaluator.full_evaluations == 1  # never fell back
    assert evaluator.result == DeltaEvaluator(plan, db).refresh_full()
    assert evaluator.result == db.query(plan)
