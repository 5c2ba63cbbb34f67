"""Deterministic memory bounds of operator state (tracemalloc, no clock).

The sequel of ``test_memory_bounds.py``: rows exist once in the heap,
scans keep no copy — and join state exists once per session and costs
what it holds.  Measured where the ledger's ``rss_mb`` was attributed:
a hash-join side is one index entry per row (not one ``dict`` per key),
a plan that contains another maintained plan of its session reads that
plan's result instead of building its state again, and a one-sided
conjunct of a join predicate filters below the join, so the side caches
only the rows that can ever match.
"""

import gc
import tracemalloc

from repro.core.interval import until_now
from repro.datasets import generate_mozilla
from repro.engine.database import Database
from repro.engine.executor import HashJoin, SeqScan
from repro.engine.plan import scan
from repro.relational.predicates import col
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

_SCHEMA = Schema.of("K", ("VT", "interval"))

J1 = (
    "SELECT * FROM A, S WHERE A.ID = S.ID "
    "AND A.VT OVERLAPS S.VT AND S.Severity = 'major'"
)
J2 = (
    "SELECT A.ID, A.Email, A.VT, S.Severity, B.Product, B.Component "
    "FROM A, S, B WHERE A.ID = S.ID AND A.VT OVERLAPS S.VT "
    "AND S.Severity = 'major' AND A.ID = B.ID"
)


def _allocated(block) -> int:
    """Bytes still allocated by *block* when it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep = block()  # noqa: F841 — alive until measured
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _hash_join() -> HashJoin:
    side = SeqScan(OngoingRelation(_SCHEMA, ()))
    return HashJoin(side, side, [0], [0], _SCHEMA.qualify("L").concat(_SCHEMA.qualify("R")))


def test_a_hash_join_side_over_unique_keys_is_an_index_entry_per_row():
    join = _hash_join()
    state = join.delta_state()
    rows = [OngoingTuple((key, until_now(key % 100))) for key in range(20_000)]

    def build():
        for row in rows:
            join._add_side(state, "left", row, join._key("left", row))

    extra = _allocated(build)
    assert state.cached_rows == len(rows)
    assert extra <= 128 * len(rows)  # a dict per key was ≈ 250 B per row
    assert not any(type(bucket) is dict for bucket in state.extra["left"].values())


def test_buckets_grow_and_shrink_in_order_with_exact_counts():
    join = _hash_join()
    state = join.delta_state()
    first, second, third = (OngoingTuple((7, until_now(at))) for at in (1, 2, 3))

    def add(row):
        join._add_side(state, "left", row, 7)

    def remove(row):
        join._remove_side(state, "left", row, 7)

    def matches():
        return list(join._matches(state, "left", 7))

    assert matches() == [] and state.cached_rows == 0
    add(first)
    add(first)  # the same row again is the same row
    assert matches() == [first] and state.cached_rows == 1
    add(second)
    add(third)
    add(second)
    assert matches() == [first, second, third] and state.cached_rows == 3
    remove(first)
    assert matches() == [second, third] and state.cached_rows == 2
    remove(third)  # delete-to-one: the bucket is the row again
    assert matches() == [second] and state.extra["left"][7] is second
    add(first)
    assert matches() == [second, first] and state.cached_rows == 2
    remove(second)
    remove(first)  # delete-to-empty: the key is gone
    assert matches() == [] and 7 not in state.extra["left"]
    assert state.cached_rows == 0


def _mozilla(name: str) -> Database:
    dataset = generate_mozilla(1500, seed=7)
    db = Database(name)
    db.register("B", dataset.bug_info)
    db.register("A", dataset.bug_assignment)
    db.register("S", dataset.bug_severity)
    return db


def test_a_plan_that_contains_a_maintained_plan_pays_for_the_rest_only():
    alone = _mozilla("alone").live_session()
    alone_bytes = _allocated(lambda: alone.subscribe_sql(J2))
    after = _mozilla("after").live_session()
    after.subscribe_sql(J1)
    after_bytes = _allocated(lambda: after.subscribe_sql(J2))
    assert after_bytes <= 0.6 * alone_bytes
    alone.close()
    after.close()


def test_a_one_sided_constant_keeps_non_matching_rows_out_of_the_join():
    db = _mozilla("sink")
    nodes = db.explain_analyze(J1, format="json")["nodes"]
    join, *_ = nodes
    assert join["operator"] == "HashJoin" and "0+1 residual" in join["describe"]
    matching = next(n for n in nodes if n["operator"] == "FixedFilter")["state_rows"]
    majors = sum(1 for row in db.table("S").rows() if row.values[1] == "major")
    assert matching == majors < len(db.table("S"))
    assert join["cached_rows"] == len(db.table("A")) + matching
    # The fluent spelling of the same join sinks the same conjunct.
    fluent = scan("A").join(
        scan("S"),
        on=(col("A.ID") == col("S.ID"))
        & col("A.VT").overlaps(col("S.VT"))
        & (col("S.Severity") == "major"),
        left_name="A",
        right_name="S",
    )
    assert db.explain_analyze(fluent, format="json")["nodes"][0]["cached_rows"] == (
        join["cached_rows"]
    )
