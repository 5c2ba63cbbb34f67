"""The versioned copy-on-read result store and operator-state pricing.

Tentpole contracts of the O(|Δ|) refresh tail:

* a delta refresh mutates the store and bumps its version **without**
  materializing anything — the O(|result|) copy happens only when a
  consumer reads, at most once per version, shared by all readers;
* a snapshot, once handed out, is frozen: later mutations of the store
  (including structural churn that leaves the output set unchanged) can
  never reach it — byte-for-byte;
* ``state_bytes()`` prices what the operators hold — cached rows and
  accumulators, not the served result and not an aggregate's input.
"""

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.delta import Delta, DeltaEvaluator
from repro.engine.plan import scan
from repro.engine.storage import pack_tuple
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.relation import OngoingRelation, ResultStore
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


def _database():
    db = Database("store-unit")
    r = db.create_table("R", Schema.of("K", ("VT", "interval")))
    s = db.create_table("S", Schema.of("K", ("VT", "interval")))
    for i in range(8):
        r.insert(i % 4, until_now(i))
        s.insert(i % 4, until_now(i + 1))
    return db


def _join_plan():
    return scan("R").join(
        scan("S"),
        on=(col("R.K") == col("S.K")) & col("R.VT").overlaps(col("S.VT")),
        left_name="R",
        right_name="S",
    )


def _commit(db, evaluator, write):
    """Run *write* against ``R`` and push the delta the table emits — the
    table, not the scan, decides which rows entered or left the set."""
    emitted = []
    listener = db.add_delta_listener(
        lambda name, version, delta: emitted.append((name, delta))
    )
    try:
        write(db.table("R"))
    finally:
        db.remove_delta_listener(listener)
    (delta,) = emitted
    return evaluator.apply(dict([delta]))


def _packed(relation: OngoingRelation) -> bytes:
    """The relation's tuples serialized in order — the byte-stability probe."""
    return b"".join(pack_tuple(item) for item in relation.tuples)


class TestResultStore:
    def _store(self):
        schema = Schema.of("K", ("VT", "interval"))
        # A plain ordered mapping keyed by tuples — exactly the shape of
        # the delta engine's root derivation-count index.
        rows = {OngoingTuple((i, until_now(i))): 1 for i in range(3)}
        return schema, rows, ResultStore(schema, rows)

    def test_snapshot_is_lazy_cached_and_shared(self):
        schema, rows, store = self._store()
        assert store.peek() is None  # nothing materialized yet
        first = store.snapshot()
        assert isinstance(first, OngoingRelation)
        assert store.snapshot() is first  # same version → same object
        assert store.peek() is first

    def test_bump_invalidates_the_cache_only_on_read(self):
        schema, rows, store = self._store()
        first = store.snapshot()
        extra = OngoingTuple((99, until_now(9)))
        with store.lock:
            rows[extra] = 1
            store.bump()
        assert store.peek() is None  # stale — but no copy was taken
        second = store.snapshot()
        assert second is not first
        assert extra in second.tuples

    def test_snapshot_stats_partition_reads(self):
        stats = {"snapshots_taken": 0, "snapshots_reused": 0}
        schema, rows, _ = self._store()
        store = ResultStore(schema, rows, stats=stats)
        store.snapshot()
        store.snapshot()
        with store.lock:
            store.bump()
        store.snapshot()
        assert stats == {"snapshots_taken": 2, "snapshots_reused": 1}

    def test_partial_stats_dict_gains_missing_keys(self):
        """A caller-supplied dict only needs the keys it cares about —
        the store fills in the canonical counters it maintains."""
        stats = {"snapshots_taken": 3}
        schema, rows, _ = self._store()
        store = ResultStore(schema, rows, stats=stats)
        assert stats == {"snapshots_taken": 3, "snapshots_reused": 0}
        store.snapshot()
        assert stats["snapshots_taken"] == 4

    def test_materialize_is_uncached_and_uncounted(self):
        stats = {"snapshots_taken": 0, "snapshots_reused": 0}
        schema, rows, _ = self._store()
        store = ResultStore(schema, rows, stats=stats)
        eager = store.materialize()
        assert store.materialize() is not eager
        assert stats == {"snapshots_taken": 0, "snapshots_reused": 0}
        assert frozenset(eager.tuples) == frozenset(store.snapshot().tuples)

    def test_len_is_live_without_materializing(self):
        stats = {"snapshots_taken": 0, "snapshots_reused": 0}
        schema, rows, _ = self._store()
        store = ResultStore(schema, rows, stats=stats)
        assert len(store) == 3
        with store.lock:
            rows[OngoingTuple((42, until_now(1)))] = 1
            store.bump()
        assert len(store) == 4
        assert stats["snapshots_taken"] == 0


class TestSnapshotAliasingRegression:
    """The satellite regression: `apply` used to skip the rebuild when the
    root delta was empty, so the served relation could alias state that
    kept churning.  The versioned store makes the hazard impossible —
    a held snapshot is byte-stable across any later mutation."""

    def test_held_snapshot_is_byte_stable_across_mutations(self):
        db = _database()
        evaluator = DeltaEvaluator(_join_plan(), db)
        evaluator.refresh_full()
        held = evaluator.result
        before = _packed(held)
        baseline = frozenset(held.tuples)
        # Structural churn with an empty root delta: add a duplicate of an
        # existing R row (multiplicity 1 → 2, no set-level change), then
        # delete one copy (2 → 1).
        duplicate = next(iter(db.table("R").rows()))
        assert _commit(
            db, evaluator, lambda r: r.insert_tuples((duplicate,))
        ).is_empty()
        assert _commit(
            db, evaluator, lambda r: r.apply_delta(Delta.delete((duplicate,)))
        ).is_empty()
        # And a genuine set-level change on top.
        delta = evaluator.apply(
            {"R": Delta.insert((OngoingTuple((0, fixed_interval(2, 9))),))}
        )
        assert not delta.is_empty() and not delta.deleted
        assert _packed(held) == before  # the held copy never moved
        # The *store* did move — a fresh read sees the new version...
        assert evaluator.result is not held
        # ...which is exactly the old set plus the propagated inserts.
        assert frozenset(evaluator.result.tuples) == baseline | frozenset(
            delta.inserted
        )

    def test_empty_root_delta_keeps_the_cached_snapshot(self):
        db = _database()
        evaluator = DeltaEvaluator(_join_plan(), db)
        first = evaluator.refresh_full()
        # Duplicate-row churn propagates an empty root delta — the cached
        # snapshot must stay valid (no version bump, no new copy).
        taken_before = evaluator.snapshot_stats["snapshots_taken"]
        duplicate = next(iter(db.table("R").rows()))
        delta = _commit(db, evaluator, lambda r: r.insert_tuples((duplicate,)))
        assert delta.is_empty()
        assert evaluator.result is first
        assert evaluator.snapshot_stats["snapshots_taken"] == taken_before

    def test_delta_refresh_takes_no_snapshot_until_read(self):
        """The tentpole invariant: refreshes without readers never copy."""
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_join_plan())
        taken_after_subscribe = session.stats()["repro_store_snapshots_taken_total"]
        for i in range(5):
            db.table("R").insert(i % 4, until_now(20 + i))
            session.flush()
        stats = session.stats()
        assert stats["repro_live_delta_refreshes_total"] == 5
        assert stats["repro_store_snapshots_taken_total"] == taken_after_subscribe  # no reads
        # The first read pays the one copy; the second shares it.
        first = sub.result
        assert sub.result is first
        stats = session.stats()
        assert stats["repro_store_snapshots_taken_total"] == taken_after_subscribe + 1
        assert stats["repro_store_snapshots_reused_total"] == 1  # exactly the second read


class TestSharedSnapshots:
    def test_equal_plan_subscribers_share_one_snapshot_per_version(self):
        db = _database()
        session = LiveSession(db)
        a = session.subscribe(_join_plan())
        b = session.subscribe(_join_plan())
        assert a.result is b.result  # one copy serves both
        db.table("R").insert(1, until_now(30))
        session.flush()
        assert a.result is b.result
        assert frozenset(a.result.tuples) == frozenset(
            db.query(_join_plan()).tuples
        )


class TestVersionMonotonicity:
    def test_version_survives_store_rebuilds(self):
        """A full refresh replaces the store; the version sequence must
        keep climbing so version-watchers never miss the rebuild."""
        db = _database()
        evaluator = DeltaEvaluator(_join_plan(), db)
        evaluator.refresh_full()
        evaluator.apply(
            {"R": Delta.insert((OngoingTuple((1, fixed_interval(3, 7))),))}
        )
        version_before = evaluator.store.version
        assert version_before >= 1
        evaluator.refresh_full()  # e.g. a delta fallback rebuilt the store
        assert evaluator.store.version > version_before


class TestServingContinuity:
    def test_result_stays_served_through_full_rebuild(self, monkeypatch):
        """A full re-evaluation must not make the result transiently
        None or half-built: a reader landing anywhere inside the rebuild
        still sees the last served relation (the evaluator swaps its
        store in only once the new one is complete)."""
        from repro.engine.maintenance import IncrementalMaintainer

        db = _database()
        maintainer = IncrementalMaintainer(_join_plan(), db, label="rebuild")
        maintainer.evaluate()
        served = maintainer.result
        db.table("R").insert(2, until_now(40))
        seen = []
        real_evaluate = DeltaEvaluator._evaluate

        def spying_evaluate(self, *args):
            seen.append(maintainer.result)  # a reader, before each operator
            built = real_evaluate(self, *args)
            seen.append(maintainer.result)  # ... and after it
            return built

        monkeypatch.setattr(DeltaEvaluator, "_evaluate", spying_evaluate)
        maintainer.evaluate()
        monkeypatch.undo()
        assert seen and all(result is served for result in seen)
        assert maintainer.result != served
        assert frozenset(maintainer.result.tuples) == frozenset(
            db.query(_join_plan()).tuples
        )


class TestStateBudget:
    """What ``state_bytes()`` prices, and that counters retire."""

    def test_state_bytes_of_an_aggregate_ignores_its_input(self):
        """A group is its accumulators, not its members: what an
        invertible GROUP BY holds — and what ``state_bytes()`` prices —
        is a few map entries per group, however many and however wide
        the input rows are."""
        from repro.engine.storage import sizeof_tuple

        def state_bytes(rows):
            db = Database("store-width")
            table = db.create_table(
                "W", Schema.of("K", "PAYLOAD", ("VT", "interval"))
            )
            for i in range(rows):
                table.insert(i % 3, "x" * 500, until_now(i % 7))
            evaluator = DeltaEvaluator(scan("W").group_by(("K",), "count"), db)
            evaluator.refresh_full()
            return evaluator.state_bytes(), sizeof_tuple(next(iter(table.rows())))

        small, member_bytes = state_bytes(50)
        assert 0 < small < 10 * member_bytes
        assert state_bytes(500)[0] == small

    def test_state_bytes_tracks_cached_rows(self):
        """Warm join state prices both cached sides plus interior
        counts; the served result is not part of it."""
        db = _database()
        evaluator = DeltaEvaluator(_join_plan(), db)
        evaluator.refresh_full()
        assert evaluator.state_rows() >= len(db.table("R")) + len(
            db.table("S")
        )
        assert evaluator.state_bytes() > 0

    def test_session_counters_survive_unsubscribe(self):
        """The stats are monotonic: a departing last subscriber
        retires its counters into the session totals instead of
        vanishing with the cache entry."""
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_join_plan())
        sub.result  # force at least one snapshot
        before = session.stats()
        assert before["repro_store_snapshots_taken_total"] >= 1
        assert before["repro_live_evaluations_total"] >= 1
        sub.close()  # last subscriber → cache entry dropped
        after = session.stats()
        for key in (
            "repro_store_snapshots_taken_total",
            "repro_store_snapshots_reused_total",
            "repro_live_evaluations_total",
        ):
            assert after[key] >= before[key], f"{key} went backward"
        session.close()
