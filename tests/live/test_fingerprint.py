"""Plan fingerprints: deterministic structural identity for result sharing."""

from repro.core.interval import fixed_interval
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import Scan, scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _window_plan(start, end):
    return scan("B").where(col("VT").overlaps(lit(fixed_interval(start, end))))


class TestFingerprint:
    def test_structurally_equal_plans_share_a_fingerprint(self):
        left = _window_plan(d(8, 1), d(9, 1))
        right = _window_plan(d(8, 1), d(9, 1))
        assert left is not right
        assert left.fingerprint() == right.fingerprint()

    def test_different_plans_differ(self):
        assert (
            _window_plan(d(8, 1), d(9, 1)).fingerprint()
            != _window_plan(d(8, 1), d(9, 2)).fingerprint()
        )
        assert Scan("B").fingerprint() != Scan("P").fingerprint()

    def test_fingerprint_is_hashable_and_stable(self):
        plan = _window_plan(d(8, 1), d(9, 1))
        assert plan.fingerprint() == plan.fingerprint()
        assert {plan.fingerprint(): "entry"}  # usable as a dict key

    def test_fingerprint_is_the_sha256_of_the_canonical_encoding(self):
        """Pinned by value: whichever module supplies the digest
        (``_sha2``, ``_sha256`` or ``hashlib``), fingerprints — the keys
        of shared materializations and of checkpointed plans — are
        byte-identical."""
        assert Scan("B").canonical() == "Scan('B')"
        assert Scan("B").fingerprint() == (
            "557f05a86b51822f9fc53458de37c7ff89f4591ccda2c15a3f097b7875a846e0"
        )

    def test_shape_matters_not_just_content(self):
        join_ab = Scan("A").join(Scan("B"), on=col("A.K") == col("B.K"))
        join_ba = Scan("B").join(Scan("A"), on=col("A.K") == col("B.K"))
        assert join_ab.fingerprint() != join_ba.fingerprint()

    def test_referenced_tables_walks_the_whole_tree(self):
        plan = (
            Scan("A")
            .join(Scan("B"), on=col("A.K") == col("B.K"))
            .union(Scan("C"))
        )
        assert plan.referenced_tables() == frozenset({"A", "B", "C"})


class TestSharedMaterialization:
    """Regression: equal plans share one materialization, different don't."""

    def _database(self):
        db = Database("fp")
        table = db.create_table("B", Schema.of("BID", ("VT", "interval")))
        table.insert(500, fixed_interval(d(1, 1), d(2, 1)))
        return db

    def test_equal_plans_share_one_materialization(self):
        db = self._database()
        session = LiveSession(db)
        first = session.subscribe(_window_plan(d(8, 1), d(9, 1)))
        second = session.subscribe(_window_plan(d(8, 1), d(9, 1)))
        assert first.fingerprint == second.fingerprint
        assert first.result is second.result
        stats = session.stats()
        assert stats["repro_live_shared_results"] == 1
        assert stats["repro_live_evaluations_total"] == 1  # the second subscribe was free
        assert stats["repro_live_cache_hits_total"] == 1
        assert stats["repro_live_cache_misses_total"] == 1

    def test_different_plans_do_not_share(self):
        db = self._database()
        session = LiveSession(db)
        session.subscribe(_window_plan(d(8, 1), d(9, 1)))
        session.subscribe(_window_plan(d(8, 1), d(9, 2)))
        stats = session.stats()
        assert stats["repro_live_shared_results"] == 2
        assert stats["repro_live_evaluations_total"] == 2
        assert stats["repro_live_cache_hits_total"] == 0
        assert stats["repro_live_cache_misses_total"] == 2
