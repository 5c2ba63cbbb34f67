"""An operator owns its state: it checks it (``check_state``) and says
how its probes read it (``access_paths``).  ``DeltaEvaluator`` only walks
the tree — ``check_index_integrity()`` reports each operator's problems
under the node's path, and ``node_report()`` / EXPLAIN ANALYZE read the
access paths from the operator, not from a key an apply wrote."""

from unittest.mock import patch

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.engine import indexes
from repro.engine.database import Database
from repro.engine.delta import DeltaEvaluator
from repro.engine.executor import (
    AggregateOp,
    DifferenceOp,
    HashJoin,
    MergeIntervalJoin,
    SortLimitOp,
)
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

_SCHEMA = Schema.of("ID", "P", ("VT", "interval"))

_HASH_JOIN = scan("E").join(
    scan("F"), on=col("E.P") == col("F.P"), left_name="E", right_name="F"
)
_MERGE_JOIN = scan("E").join(
    scan("F"), on=col("E.VT").overlaps(col("F.VT")), left_name="E", right_name="F"
)
_DIFFERENCE = scan("E").difference(scan("F"))
_AGGREGATE = scan("E").group_by(("P",), "count", output_name="N")
_TOP_K = scan("E").order_by("ID", limit=2)


def _database():
    db = Database("operator-state")
    e = db.create_table("E", _SCHEMA)
    e.insert(0, "x", fixed_interval(0, 10))
    e.insert(1, "x", fixed_interval(5, 15))
    e.insert(2, "y", until_now(3))
    f = db.create_table("F", _SCHEMA)
    f.insert(0, "x", fixed_interval(0, 10))
    f.insert(5, "z", fixed_interval(8, 20))
    return db


def _built(plan):
    """The database and a warm evaluator of *plan*, consistent as built."""
    db = _database()
    evaluator = DeltaEvaluator(plan, db)
    evaluator.refresh_full()
    assert evaluator.check_index_integrity() == []
    return db, evaluator


def _node(evaluator, operator):
    """The problem prefix and the state of the tree's one *operator* node."""
    ((path, state),) = [
        (path, evaluator._states[node])
        for node, path, _ in evaluator._preorder()
        if type(node) is operator
    ]
    return f"{path} {operator.__name__}: ", state


class TestEachOperatorChecksItsOwnState:
    def test_hash_join_one_row_bucket_dict(self):
        _, evaluator = _built(_HASH_JOIN)
        prefix, state = _node(evaluator, HashJoin)
        row = state.extra["left"]["y"]  # the one row under "y": held bare
        state.extra["left"]["y"] = {row: None}
        assert evaluator.check_index_integrity() == [
            prefix + "left key 'y' keeps a bucket of 1 row(s)"
        ]

    def test_hash_join_cached_rows_off_by_one(self):
        _, evaluator = _built(_HASH_JOIN)
        prefix, state = _node(evaluator, HashJoin)
        state.cached_rows += 1
        assert evaluator.check_index_integrity() == [
            prefix + f"buckets hold 5 rows, state caches {state.cached_rows}"
        ]

    def test_aggregate_cached_rows_off_by_one(self):
        _, evaluator = _built(_AGGREGATE)
        prefix, state = _node(evaluator, AggregateOp)
        held = state.cached_rows
        state.cached_rows -= 1
        assert evaluator.check_index_integrity() == [
            prefix + f"accumulators hold {held} entries, state caches {held - 1}"
        ]

    def test_aggregate_output_row_disagrees_with_its_accumulators(self):
        _, evaluator = _built(_AGGREGATE)
        prefix, state = _node(evaluator, AggregateOp)
        outs = state.extra["out"]
        outs[("x",)] = outs[("y",)]
        problems = evaluator.check_index_integrity()
        assert problems == [
            prefix + "output row of group ('x',) is not what its "
            "accumulators walk to"
        ]

    def test_top_k_window_keys_out_of_order(self):
        _, evaluator = _built(scan("E").order_by("ID", limit=5))
        prefix, state = _node(evaluator, SortLimitOp)
        state.extra["window"].reverse()
        assert evaluator.check_index_integrity() == [
            prefix + "window keys out of order"
        ]

    def test_top_k_overflow_with_a_non_full_window(self):
        _, evaluator = _built(scan("E").order_by("ID", limit=5))
        prefix, state = _node(evaluator, SortLimitOp)
        state.extra["overflow"] = 1
        assert evaluator.check_index_integrity() == [
            prefix + "overflow=1 with a non-full window (3/5)"
        ]

    def test_merge_join_side_size_disagrees_with_cached_rows(self):
        db, evaluator = _built(_MERGE_JOIN)
        prefix, state = _node(evaluator, MergeIntervalJoin)
        state.extra["left"].remove(tuple(db.table("E").rows())[0])
        assert evaluator.check_index_integrity() == [
            prefix + "sides hold 4 rows, state caches 5"
        ]

    def test_difference_side_size_disagrees_with_cached_rows(self):
        _, evaluator = _built(_DIFFERENCE)
        prefix, state = _node(evaluator, DifferenceOp)
        state.extra["right"][OngoingTuple((9, "q", until_now(1)))] = None
        assert evaluator.check_index_integrity() == [
            prefix + "sides hold 6 rows, state caches 5"
        ]


class TestAccessPathsAreRead:
    @pytest.mark.parametrize(
        "plan, access",
        [
            (_MERGE_JOIN, "access=left=index:interval(4),right=scan(2)"),
            (_DIFFERENCE, "access=left=index:partition(4)"),
            (_TOP_K, "access=window=topk:window(2)+overflow(2)"),
        ],
        ids=["merge-join", "difference", "top-k"],
    )
    def test_no_apply_writes_them_and_explain_shows_the_current_sizes(
        self, plan, access
    ):
        """Three E rows build cold, a fourth arrives warm; the cut at 3
        puts the merge join's left side on the index, its right on a
        scan."""
        db = _database()
        with patch.object(indexes, "INDEX_THRESHOLD", 3):
            session = LiveSession(db)
            try:
                sub = session.subscribe(plan)
                db.table("E").insert(3, "y", fixed_interval(1, 4))
                session.flush()
                (maintainer,) = session.shared_results()
                evaluator = maintainer._evaluator
                assert evaluator.delta_applications == 1
                for state in evaluator._states.values():
                    assert "access_paths" not in state.extra
                assert access in sub.explain_analyze()
                assert sub.result == db.query(plan)
            finally:
                session.close()
