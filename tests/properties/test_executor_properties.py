"""Property tests: the physical join algorithms are interchangeable, and
every operator's one delta rule serves both evaluation paths.

For random ongoing relations and a predicate eligible for all three
algorithms (fixed equality + temporal overlaps), HashJoin,
MergeIntervalJoin, and NestedLoopJoin must produce the same ongoing
relation — and that relation must satisfy the Theorem 2 law against
a brute-force fixed evaluation.

Per operator family, the cold build ``Database.query`` runs (the one a
subscription starts from) and the same rows fed as random insert
batches through ``DeltaEvaluator.apply`` must both instantiate — at
every critical point — to the paper's definition,
:func:`repro.baselines.clifford.evaluate_fixed` on the bound tables.
An aggregate and a top-k, which that definition does not cover, are
compared with :func:`repro.baselines.clifford.evaluate_pointwise` over
their child's result, the child held to ``evaluate_fixed`` first.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.accumulators import scalar_empty_row
from repro.engine.delta import Delta, DeltaEvaluator
from repro.engine.executor import (
    HashJoin,
    MergeIntervalJoin,
    NestedLoopJoin,
    SeqScan,
)
from repro.engine.plan import Aggregate, scan
from repro.engine.planner import plan_query
from repro.errors import QueryError
from repro.relational.predicates import col, lit
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import (
    assert_fixed_semantics,
    assert_reference_semantics,
    interval_sets,
    ongoing_intervals,
)

_LEFT = Schema.of("K", ("VT", "interval")).qualify("R")
_RIGHT = Schema.of("K", ("VT", "interval")).qualify("S")
_OUT = _LEFT.concat(_RIGHT)

_EQUI = col("R.K") == col("S.K")
_TEMPORAL = col("R.VT").overlaps(col("S.VT"))


@st.composite
def relations(draw, schema):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                ongoing_intervals(),
                interval_sets(),
            ),
            max_size=4,
        )
    )
    return OngoingRelation(
        schema,
        [
            OngoingTuple((key, interval), rt)
            for key, interval, rt in rows
            if not rt.is_empty()
        ],
    )


def _evaluated(join_op, left, right):
    """A hand-built join's cold evaluation over *left* and *right*."""
    state = join_op.delta_state()
    join_op.evaluate(state, (left.tuples, right.tuples))
    return OngoingRelation(join_op.schema, state.counts)


@given(relations(_LEFT), relations(_RIGHT))
def test_all_three_join_algorithms_agree(left, right):
    hash_join = HashJoin(
        SeqScan(left), SeqScan(right), [0], [0], _OUT,
        fixed_residual=(), ongoing_residual=(_TEMPORAL,),
    )
    merge_join = MergeIntervalJoin(
        SeqScan(left), SeqScan(right), 1, 1, _OUT,
        fixed_residual=(_EQUI,), ongoing_residual=(_TEMPORAL,),
    )
    nested = NestedLoopJoin(
        SeqScan(left), SeqScan(right), _OUT,
        fixed_residual=(_EQUI,), ongoing_residual=(_TEMPORAL,),
    )
    first = _evaluated(hash_join, left, right)
    assert first == _evaluated(merge_join, left, right)
    assert first == _evaluated(nested, left, right)


@given(relations(_LEFT), relations(_RIGHT))
def test_join_satisfies_theorem_two(left, right):
    joined = _evaluated(
        HashJoin(
            SeqScan(left), SeqScan(right), [0], [0], _OUT,
            fixed_residual=(), ongoing_residual=(_TEMPORAL,),
        ),
        left,
        right,
    )
    db = _database(R=left.tuples, S=right.tuples)
    assert_fixed_semantics(_joined(_EQUI & _TEMPORAL), db, joined)


# ----------------------------------------------------------------------
# cold ≡ batched deltas ≡ oracle, per operator family
# ----------------------------------------------------------------------

_BASE = Schema.of("K", ("VT", "interval"))
_WINDOW = lit(fixed_interval(-5, 10))
_MAP = (col("K") >= lit(1)) & col("VT").overlaps(_WINDOW)
_BEFORE = col("R.VT").before(col("S.VT"))
_SPECS = [("count", None, "n"), ("avg", "K", "a")]


def _joined(on, right="S"):
    return scan("R").join(scan(right), on=on, left_name="R", right_name="S")


#: family → logical plan over tables R and S.
_FAMILIES = {
    "map-like": scan("R").where(_MAP).select_columns("K"),
    "union": scan("R").union(scan("S")),
    "hash-join": _joined(_EQUI & _TEMPORAL),
    "merge-join": _joined(_TEMPORAL),
    "nested-loop-join": _joined(_BEFORE),
    "self-join": _joined(_EQUI & _TEMPORAL, right="R"),
    "difference": scan("R").difference(scan("S")),
    "aggregate": scan("R").group_by(("K",), specs=_SPECS),
    "scalar-aggregate": scan("R").group_by((), specs=_SPECS),
    "aggregate-over-distinct-union": (
        scan("R").union(scan("S")).distinct().group_by(("K",), "count")
    ),
    "order-by": scan("R").order_by(("K", True)),
}


def _database(**tables):
    db = Database("executor-props")
    for name, rows in tables.items():
        db.create_table(name, _BASE).insert_tuples(rows)
    return db


def _maintained(plan, **tables):
    """A warm evaluator over its own database, fed every delta the tables
    emit — the tables decide which rows entered or left the set."""
    db = _database(**tables)
    evaluator = DeltaEvaluator(plan, db)
    evaluator.refresh_full()
    db.add_delta_listener(
        lambda name, version, delta: evaluator.apply({name: delta})
    )
    return db, evaluator


def _cold_and_batched(plan, rng, **tables):
    """*plan* evaluated cold, and as random insert batches."""
    cold = _database(**tables).query(plan)
    live, evaluator = _maintained(plan, **{name: () for name in tables})
    batches = []
    for name, rows in tables.items():
        rows = list(rows)
        while rows:
            cut = rng.randint(1, len(rows))
            batches.append((name, rows[:cut]))
            rows = rows[cut:]
    rng.shuffle(batches)
    for name, batch in batches:
        live.table(name).insert_tuples(batch)
    return cold, evaluator.result


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@given(
    left=relations(_BASE),
    right=relations(_BASE),
    duplicates=st.integers(min_value=0, max_value=2),
    rng=st.randoms(use_true_random=False),
)
def test_pull_cold_and_batched_deltas_match_the_oracle(
    family, left, right, duplicates, rng
):
    plan = _FAMILIES[family]
    # Base tables are multisets: repeat some rows under the scans.
    tables = {
        "R": left.tuples + left.tuples[:duplicates],
        "S": right.tuples + right.tuples[:duplicates],
    }
    results = _cold_and_batched(plan, rng, **tables)
    db = _database(**tables)
    if isinstance(plan, Aggregate):
        assert_reference_semantics(plan, db, *results)
    else:
        assert_fixed_semantics(plan, db, *results)


@given(relations(_BASE), st.randoms(use_true_random=False))
def test_top_k_paths_agree_and_respect_the_order(relation, rng):
    plan = scan("R").order_by(("K", True), limit=2)
    cold, batched = _cold_and_batched(plan, rng, R=relation.tuples)
    assert frozenset(cold.tuples) == frozenset(batched.tuples)
    assert len(cold) == min(2, len(relation))
    assert_reference_semantics(plan, _database(R=relation.tuples), cold, batched)


def test_scalar_aggregate_over_an_empty_child_is_the_constant_row():
    """Cold over zero rows: the SQL empty-aggregate row; then it tracks
    insert → delete-all back to that row."""
    plan = scan("R").group_by((), specs=_SPECS)
    db = _database(R=())
    empty_row = scalar_empty_row(["count", "avg"])
    assert db.query(plan).tuples == (empty_row,)
    evaluator = DeltaEvaluator(plan, db)
    assert evaluator.refresh_full().tuples == (empty_row,)
    rows = (
        OngoingTuple((1, until_now(3))),
        OngoingTuple((2, fixed_interval(0, 9))),
    )
    evaluator.apply({"R": Delta.insert(rows)})
    assert evaluator.result == _database(R=rows).query(plan)
    assert_reference_semantics(plan, _database(R=rows), evaluator.result)
    evaluator.apply({"R": Delta.delete(rows)})
    assert evaluator.result.tuples == (empty_row,)


def test_duplicate_base_rows_are_one_tuple_until_the_last_copy_goes():
    row = OngoingTuple((1, until_now(3)))
    plan = scan("R").select_columns("K")
    db = _database(R=(row, row))
    assert len(db.query(plan)) == 1
    live, evaluator = _maintained(plan, R=(row, row))
    assert len(evaluator.result) == 1
    live.table("R").apply_delta(Delta.delete((row,)))
    assert len(evaluator.result) == 1
    live.table("R").apply_delta(Delta.delete((row,)))
    assert len(evaluator.result) == 0


def test_unlimited_order_by_presents_sorted_through_query():
    db = _database(
        R=tuple(OngoingTuple((key, until_now(key))) for key in (1, 3, 0, 2))
    )
    assert db.query(scan("R").order_by(("K", True))).column("K") == [3, 2, 1, 0]
    assert db.query(scan("R").order_by("K")).column("K") == [0, 1, 2, 3]


def test_merge_join_over_an_empty_envelope_beyond_the_rebuild_floor():
    """A row inserted and terminated at the same time has the empty
    envelope ``[50, 50)``; with enough rows for the side's probe index to
    build its tree, the build used to recurse without end on it."""
    rng = random.Random(15)

    def rows(count):
        starts = (rng.randrange(0, 100) for _ in range(count))
        return tuple(
            OngoingTuple((key, fixed_interval(start, start + rng.randrange(1, 9))))
            for key, start in enumerate(starts)
        )

    left = (OngoingTuple((-1, fixed_interval(50, 50))),) + rows(100)
    right = rows(100)
    plan = _joined(_TEMPORAL)
    db = _database(R=left, S=right)
    assert type(plan_query(plan, db)) is MergeIntervalJoin
    cold, batched = _cold_and_batched(plan, rng, R=left, S=right)
    assert cold == batched
    assert_fixed_semantics(plan, db, cold)
    assert not any(item.values[0] == -1 for item in cold)


def test_hash_join_rejects_an_empty_key():
    empty = OngoingRelation(_LEFT, ()), OngoingRelation(_RIGHT, ())
    with pytest.raises(QueryError, match="equi-key"):
        HashJoin(SeqScan(empty[0]), SeqScan(empty[1]), [], [], _OUT)
