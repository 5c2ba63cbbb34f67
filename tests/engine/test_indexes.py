"""Unit tests for the envelope interval index (Section X future work)
and the incrementally maintained secondary indexes."""

import gc
import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.timeline import MINUS_INF, PLUS_INF, mmdd
from repro.core.timepoint import NOW, fixed
from repro.datasets import generate_dsc
from repro.engine import indexes
from repro.engine.database import Database
from repro.engine.delta import Delta, DeltaEvaluator, NonIncrementalDelta
from repro.engine.executor import MergeIntervalJoin, SeqScan
from repro.engine.indexes import IntervalIndex, IntervalProbeIndex, OrderedIndex
from repro.engine.plan import scan
from repro.engine.planner import plan_query
from repro.errors import QueryError
from repro.relational.predicates import col, lit
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

_SCHEMA = Schema.of("ID", ("VT", "interval"))


def _relation(intervals) -> OngoingRelation:
    return OngoingRelation.from_rows(
        _SCHEMA, [(i, interval) for i, interval in enumerate(intervals)]
    )


def _brute_force(relation, start, end):
    position = relation.schema.index_of("VT")
    hits = []
    for item in relation:
        value = item.values[position]
        lo, hi = value.start.a, value.end.b
        if lo < hi and lo < end and hi > start:  # an empty envelope hits nothing
            hits.append(item)
    return hits


class TestBasics:
    def test_build_and_size(self):
        index = IntervalIndex(_relation([fixed_interval(0, 5)]), "VT")
        assert index.size == 1

    def test_rejects_fixed_attribute(self):
        with pytest.raises(QueryError, match="fixed"):
            IntervalIndex(_relation([fixed_interval(0, 5)]), "ID")

    def test_rejects_non_interval_values(self):
        schema = Schema.of(("VT", "interval"))
        relation = OngoingRelation.from_rows(schema, [(42,)])
        with pytest.raises(QueryError, match="expected an"):
            IntervalIndex(relation, "VT")

    def test_empty_relation(self):
        index = IntervalIndex(_relation([]), "VT")
        assert index.overlapping(0, 100) == []

    def test_empty_envelope_builds_and_matches_nothing(self):
        # A row inserted and terminated at the same time: the centered
        # tree used to recurse without end on its envelope [50, 50).
        index = IntervalIndex(
            _relation([fixed_interval(50, 50), fixed_interval(40, 60)]), "VT"
        )
        assert index.size == 2
        assert [t.values[0] for t in index.overlapping(0, 100)] == [1]

    def test_empty_query_range(self):
        index = IntervalIndex(_relation([fixed_interval(0, 5)]), "VT")
        assert index.overlapping(5, 5) == []

    def test_stabbing(self):
        index = IntervalIndex(
            _relation([fixed_interval(0, 5), fixed_interval(10, 20)]), "VT"
        )
        assert [t.values[0] for t in index.stabbing(12)] == [1]

    def test_expanding_interval_reaches_the_future(self):
        index = IntervalIndex(_relation([until_now(mmdd(1, 25))]), "VT")
        assert len(index.stabbing(mmdd(12, 31))) == 1

    def test_shrinking_interval_reaches_the_past(self):
        index = IntervalIndex(
            _relation([OngoingInterval(NOW, fixed(mmdd(3, 1)))]), "VT"
        )
        assert len(index.stabbing(mmdd(1, 1))) == 1
        assert len(index.stabbing(mmdd(4, 1))) == 0

    def test_probe_right_of_center_over_equal_ends(self):
        # One node: the middle entry [2, 10) puts the center at 6, which
        # every envelope straddles.  A query starting right of it keeps the
        # prefix of the descending ends above its start — the bisection
        # must stop before ends equal to the start, not after them.
        index = IntervalIndex(
            _relation([fixed_interval(s, 10) for s in range(3)] + [fixed_interval(3, 8)]),
            "VT",
        )
        assert [t.values[0] for t in index.overlapping(10, 20)] == []
        assert [t.values[0] for t in index.overlapping(9, 20)] == [0, 1, 2]
        assert [t.values[0] for t in index.overlapping(8, 20)] == [0, 1, 2]
        assert [t.values[0] for t in index.overlapping(7, 20)] == [0, 1, 2, 3]

    def test_an_envelope_costs_list_slots_not_a_tuple(self):
        """D_sc at 50k rows: a node holds its envelopes as four parallel
        lists (≈ 50 B per envelope with the nodes); nodes that kept a
        ``(start, end, row)`` tuple per envelope cost 89 B."""
        relation = generate_dsc(50_000, seed=2020)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = IntervalIndex(relation, "VT")
            gc.collect()
            steady = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert index.size == 50_000
        assert steady <= 56 * index.size


class TestAgainstBruteForce:
    def test_randomized_queries(self):
        rng = random.Random(7)
        intervals = []
        for _ in range(300):
            start = rng.randrange(0, 1000)
            if rng.random() < 0.15:
                intervals.append(until_now(start))
            else:
                intervals.append(fixed_interval(start, start + rng.randrange(0, 60)))
        relation = _relation(intervals)
        index = IntervalIndex(relation, "VT")
        for _ in range(50):
            qs = rng.randrange(-50, 1100)
            qe = qs + rng.randrange(1, 120)
            got = {t.values[0] for t in index.overlapping(qs, qe)}
            want = {t.values[0] for t in _brute_force(relation, qs, qe)}
            assert got == want, (qs, qe)

    @given(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 20)), max_size=40
        ),
        st.integers(-10, 80),
        st.integers(1, 30),
    )
    def test_hypothesis_queries(self, raw, qs, width):
        intervals = [fixed_interval(s, s + w) for s, w in raw]
        relation = _relation(intervals)
        index = IntervalIndex(relation, "VT")
        got = {t.values[0] for t in index.overlapping(qs, qs + width)}
        want = {t.values[0] for t in _brute_force(relation, qs, qs + width)}
        assert got == want


#: Envelopes that reach ``+inf`` (``[a, now)``) and ``-inf`` (``[now, b)``),
#: empty ones (``[a, a)``) and plain fixed ones.
_ANY_INTERVAL = st.one_of(
    st.integers(0, 60).map(until_now),
    st.integers(0, 60).map(lambda end: OngoingInterval(NOW, fixed(end))),
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(
        lambda pair: fixed_interval(min(pair), max(pair))
    ),
)
_WINDOWS = st.lists(
    st.one_of(
        st.tuples(st.integers(-5, 65), st.integers(1, 30)).map(
            lambda pair: (pair[0], pair[0] + pair[1])
        ),
        st.just((MINUS_INF, PLUS_INF)),
    ),
    min_size=1,
    max_size=8,
)


def _envelope(interval):
    return interval.start.a, interval.end.b


class TestOneSortTree:
    """Both trees are built from one sort by envelope start; each returns
    exactly the brute-force envelope-overlap filter, every hit once."""

    @given(
        intervals=st.lists(_ANY_INTERVAL, max_size=60),
        duplicated=st.integers(0, 10),
        windows=_WINDOWS,
    )
    def test_interval_index_is_the_brute_force_filter(
        self, intervals, duplicated, windows
    ):
        relation = _relation(intervals + intervals[:duplicated])  # equal envelopes
        index = IntervalIndex(relation, "VT")
        for start, end in windows:
            got = [item.values[0] for item in index.overlapping(start, end)]
            want = [item.values[0] for item in _brute_force(relation, start, end)]
            assert sorted(got) == sorted(want), (start, end)

    @given(
        intervals=st.lists(_ANY_INTERVAL, min_size=20, max_size=80),
        removed=st.sets(st.integers(0, 79)),
        windows=_WINDOWS,
    )
    def test_probe_index_rebuild_is_the_brute_force_filter(
        self, intervals, removed, windows
    ):
        # Twenty adds outgrow the overlay (REBUILD_FLOOR): the base tree
        # is rebuilt, and removals leave tombstones or rebuild again.
        index = IntervalProbeIndex()
        live = {}
        for item, interval in enumerate(intervals):
            live[item] = _envelope(interval)
            index.add(item, *live[item])
        for item in removed & set(live):
            index.remove(item)
            del live[item]
        for start, end in windows:
            want = [
                item
                for item, (low, high) in live.items()
                if low < high and low < end and start < high
            ]
            assert sorted(index.overlapping(start, end)) == want, (start, end)
            assert index.scan(start, end) == want, (start, end)

    def test_nested_envelopes_terminate(self):
        """Envelopes halving from the whole domain down, all starting at
        0: each level's middle entry straddles its own midpoint, so the
        build ends, with every hit found once."""
        intervals = [fixed_interval(0, 2**60 >> depth) for depth in range(60)]
        intervals += [fixed_interval(7, 8)] * 3 + [until_now(0)] * 3
        index = IntervalIndex(_relation(intervals), "VT")
        assert len(index.overlapping(0, 1)) == len(intervals) - 3
        assert len(index.overlapping(MINUS_INF, PLUS_INF)) == len(intervals)


class TestPerVersionCaches:
    """Every write drops the interval index and the equality buckets of
    the version it replaced, and a cold build after it sees the write."""

    _SCHEMA = Schema.of("ID", "P", ("VT", "interval"))
    _ROWS = (
        OngoingTuple((0, "x", fixed_interval(0, 10))),
        OngoingTuple((1, "y", fixed_interval(2, 8))),
        OngoingTuple((2, "x", until_now(5))),
    )
    _WRITES = {
        "insert_tuples": lambda table: table.insert_tuples(
            (OngoingTuple((3, "x", fixed_interval(1, 4))),)
        ),
        "apply_delta": lambda table: table.apply_delta(  # updated into "x"
            Delta.update(
                (OngoingTuple((1, "y", fixed_interval(2, 8))),),
                (OngoingTuple((1, "x", fixed_interval(2, 8))),),
            )
        ),
        "delete_where": lambda table: table.delete_where(
            lambda row: row.values[0] != 0
        ),
        "replace_all": lambda table: table.replace_all(
            (OngoingTuple((5, "x", fixed_interval(3, 6))),)
        ),
        "restore": lambda table: table.restore(
            (OngoingTuple((6, "x", fixed_interval(0, 3))),), table.version + 1
        ),
    }
    _SELECTIONS = (
        col("P") == lit("x"),
        col("VT").overlaps(lit(fixed_interval(1, 6))),
    )

    @staticmethod
    def _cold(db, predicate):
        plan = scan("E").where(predicate)
        with patch.object(indexes, "INDEX_THRESHOLD", 0):  # every table is big enough
            text = plan_query(plan, db).explain()
            assert "IntervalScan" in text or "P = 'x':" in text  # an access path
            return DeltaEvaluator(plan, db).refresh_full()

    @pytest.mark.parametrize("write", sorted(_WRITES))
    def test_a_write_drops_both_caches(self, write):
        db = Database("caches")
        table = db.create_table("E", self._SCHEMA)
        table.insert_tuples(self._ROWS)
        before = [self._cold(db, predicate) for predicate in self._SELECTIONS]
        interval, buckets = table.interval_index("VT"), table.partition_index("P")
        assert table.interval_index("VT") is interval
        assert table.partition_index("P") is buckets
        self._WRITES[write](table)
        assert table.interval_index("VT") is not interval
        assert table.partition_index("P") is not buckets
        for predicate, old in zip(self._SELECTIONS, before):
            cold = self._cold(db, predicate)
            plain = db.query(scan("E").where(predicate), optimize=False)
            assert cold == plain  # the unoptimized plan reads no access path
            assert cold != old  # the write moved this selection


class TestOrderedIndex:
    def test_below_and_between(self):
        index = OrderedIndex()
        for key, item in [(5, "e"), (1, "a"), (3, "c"), (3, "cc"), (9, "i")]:
            index.add(key, item)
        assert sorted(index.below(4)) == ["a", "c", "cc"]
        assert sorted(index.between(3, 9)) == ["c", "cc", "e"]
        assert len(index) == 5

    def test_remove_exact_entry_among_equal_keys(self):
        index = OrderedIndex()
        index.add(3, "c")
        index.add(3, "cc")
        index.remove(3, "c")
        assert sorted(index.below(10)) == ["cc"]
        with pytest.raises(KeyError):
            index.remove(3, "c")


class TestIntervalProbeIndex:
    def test_matches_brute_force_under_mutation(self):
        rng = random.Random(11)
        index = IntervalProbeIndex()
        live = {}
        counter = 0
        for _ in range(600):
            if live and rng.random() < 0.4:
                item = rng.choice(list(live))
                index.remove(item)
                del live[item]
            else:
                start = rng.randrange(0, 500)
                end = start + rng.randrange(0, 50)  # 0: empty envelope
                item = f"i{counter}"
                counter += 1
                index.add(item, start, end)
                live[item] = (start, end)
            if rng.random() < 0.25:
                qs = rng.randrange(-20, 520)
                qe = qs + rng.randrange(1, 80)
                got = set(index.overlapping(qs, qe))
                want = {
                    it
                    for it, (s, e) in live.items()
                    if s < e and s < qe and e > qs
                }
                assert got == want
        assert len(index) == len(live)

    def test_duplicate_add_raises(self):
        index = IntervalProbeIndex()
        index.add("a", 0, 5)
        with pytest.raises(KeyError):
            index.add("a", 0, 5)

    def test_remove_then_readd_same_envelope(self):
        index = IntervalProbeIndex()
        index.add("a", 0, 5)
        index.remove("a")
        assert index.overlapping(0, 10) == []
        index.add("a", 2, 7)
        assert index.overlapping(0, 10) == ["a"]

    def test_empty_probe_window(self):
        index = IntervalProbeIndex()
        index.add("a", 0, 5)
        assert index.overlapping(3, 3) == []


class TestMergeJoinSideIndexes:
    def test_both_sides_are_indexed_from_the_empty_state(self):
        """A merge join's side *is* one interval index, from the empty
        state on: the state keeps no second map of the same rows, and a
        delete of a row the side never held is refused."""
        side = SeqScan(OngoingRelation(_SCHEMA, ()))
        join = MergeIntervalJoin(
            side, side, 1, 1, _SCHEMA.qualify("L").concat(_SCHEMA.qualify("R"))
        )
        state = join.delta_state()
        assert sorted(state.extra) == ["left", "right"]
        for name in ("left", "right"):
            assert type(state.extra[name]) is IntervalProbeIndex
        rows = [OngoingTuple((key, fixed_interval(key, key + 5))) for key in range(3)]
        join.apply_delta(state, (Delta.insert(rows), Delta.insert(rows[:1])))
        join.apply_delta(state, (Delta.delete(rows[1:2]), Delta()))
        assert len(state.extra["left"]) == 2 and rows[1] not in state.extra["left"]
        assert state.cached_rows == 3
        with pytest.raises(NonIncrementalDelta, match="unknown to the join's right"):
            join.apply_delta(state, (Delta(), Delta.delete(rows[1:2])))
