"""A maintained plan as an input to the plans that contain it.

``J1`` is ``A ⋈ S`` (a one-sided conjunct inside the join predicate, so
what is shared is the *rewritten* sub-tree), ``J2`` is ``J1 ⋈ B``
projected, ``F`` an unrelated filter.  With ``J1`` subscribed first,
``J2`` scans ``J1``'s result store instead of joining ``A`` and ``S``
again.  Two invariants are pinned here by the cases that break them:

* **one cut** — ``J2`` and ``J1`` answer for the same commits in a
  round, however long the round takes
  (:class:`TestOneCut`; fails when each plan claims for itself);
* **clean or private** — a cold build reads ``J1``'s store only while
  ``J1`` owes nothing (:class:`TestCleanOrPrivate`; fails when a dirty
  provider's store is read).

The hypothesis half is ``tests/properties/test_shared_plan_properties.py``.
"""

import logging
import sys
import threading
import time
from collections import Counter

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

_SCHEMA = Schema.of("K", ("VT", "interval"))
_ON_AS = (
    (col("A.K") == col("S.K"))
    & col("A.VT").overlaps(col("S.VT"))
    & (col("S.K") <= lit(2))
)

J1 = scan("A").join(scan("S"), on=_ON_AS, left_name="A", right_name="S")
J2 = J1.join(
    scan("B"), on=col("A.K") == col("B.K"), right_name="B"
).select_columns("A.K", "A.VT", "S.VT", "B.VT")
F = scan("B").where(col("K") == lit(1))

J1_SQL = (
    "SELECT * FROM A, S WHERE A.K = S.K AND A.VT OVERLAPS S.VT AND S.K <= 2"
)
J2_SQL = (
    "SELECT A.K, A.VT, B.VT FROM A, S, B WHERE A.K = S.K "
    "AND A.VT OVERLAPS S.VT AND S.K <= 2 AND A.K = B.K"
)


def _seed(db: Database) -> Database:
    for name in "ASB":
        table = db.create_table(name, _SCHEMA)
        for key in range(4):
            table.insert(key, until_now(3 + key))
        table.insert(1, fixed_interval(8, 18))
    return db


def _key(value):
    return lambda row: row.values[0] == value


def _operators(subscription):
    return [node["operator"] for node in subscription.node_report()]


def _shared_leaf(consumer, provider) -> bool:
    label = f"SeqScan @{provider.fingerprint[:12]}"
    return any(
        node["describe"].startswith(label) for node in consumer.node_report()
    )


def _assert_cold(db, **subscriptions):
    plans = {"j1": J1, "j2": J2, "f": F}
    for name, subscription in subscriptions.items():
        assert subscription.result == db.query(plans[name]), name


class TestSharedState:
    def test_the_inner_join_exists_once(self):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        j1 = session.subscribe(J1)
        j2 = session.subscribe(J2)
        assert _operators(j1).count("HashJoin") == 1
        # J2 joins J1's store with B: no second join over A and S …
        assert _shared_leaf(j2, j1)
        assert _operators(j2).count("HashJoin") == 1
        text = j2.explain_analyze()
        assert "SeqScan A" not in text and "SeqScan S" not in text
        # … the leaf holds nothing, and the session's state counts the
        # inner join once: J2 alone, in a session of its own, holds both.
        leaf = next(
            node for node in j2.node_report() if "@" in node["describe"]
        )
        assert leaf["state_rows"] == leaf["cached_rows"] == leaf["state_bytes"] == 0
        alone = LiveSession(_seed(Database("alone")))
        alone.subscribe(J2)
        shared_bytes = sum(m.state_bytes() for m in session.shared_results())
        (lone,) = alone.shared_results()
        assert shared_bytes < lone.state_bytes() + j1.node_report()[0]["state_bytes"]
        # The routes stay those of the whole logical plan.
        assert session.stats()["table_fanout"] == {"A": 2, "S": 2, "B": 1}
        _assert_cold(db, j1=j1, j2=j2)
        alone.close()
        session.close()

    def test_one_sided_conjuncts_of_the_join_predicate_sink(self):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        j1 = session.subscribe(J1)
        report = j1.node_report()
        describes = [node["describe"] for node in report]
        assert describes[0].startswith("HashJoin") and "0+1 residual" in describes[0]
        assert "FixedFilter (1 conjuncts)" in describes
        # The join caches A and the filter's output, not all of S.
        matching = next(
            node for node in report if node["operator"] == "FixedFilter"
        )["state_rows"]
        assert matching == 4 < len(db.table("S"))
        assert report[0]["cached_rows"] == len(db.table("A")) + matching
        session.close()

    def test_deltas_flow_through_the_provider(self):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        told = {"j1": [], "j2": []}
        j1 = session.subscribe(J1, on_refresh=told["j1"].append)
        j2 = session.subscribe(J2, on_refresh=told["j2"].append)
        current_insert(db.table("A"), (1,), at=15)  # through J1
        assert session.flush() == 2
        current_update(db.table("B"), _key(1), (1,), at=16)  # J2 alone
        assert session.flush() == 1
        current_delete(db.table("S"), _key(3), at=17)  # filtered out: no change
        assert session.flush() == 2
        _assert_cold(db, j1=j1, j2=j2)
        assert [n.changed_tables for n in told["j1"]] == [("A",)]
        assert [n.changed_tables for n in told["j2"]] == [("A",), ("B",)]
        assert all(n.delta is not None for n in told["j1"] + told["j2"])
        assert j1.stats.suppressed == j2.stats.suppressed == 1
        stats = session.stats()
        assert stats["repro_live_full_refreshes_total"] == 0
        assert stats["repro_live_delta_refreshes_total"] == 5
        # The leaf forwarded J1's result-level delta; nothing re-joined A.
        leaf = next(n for n in j2.node_report() if "@" in n["describe"])
        assert leaf["applies"] == 1 and leaf["delta_rows_in"] == len(told["j1"][0].delta)
        for maintainer in session.shared_results():
            assert maintainer._evaluator.check_index_integrity() == []
        session.close()

    @pytest.mark.parametrize("first, second", [(J1, J2), (J2, J1)])
    def test_both_arrival_orders_are_correct(self, first, second):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        subscriptions = [session.subscribe(first), session.subscribe(second)]
        for at, table in enumerate("ABSAB", start=20):
            current_update(db.table(table), _key(at % 3), (at % 3,), at=at)
            session.flush()
            for plan, subscription in zip((first, second), subscriptions):
                assert subscription.result == db.query(plan)
        j1, j2 = subscriptions if first is J1 else reversed(subscriptions)
        # An existing plan is not re-planned onto a newcomer: J2 before
        # J1 stays unshared (and correct).
        assert _shared_leaf(j2, j1) == (first is J1)
        session.close()


class TestOneCut:
    def test_a_commit_between_the_two_refreshes_waits_for_the_next_round(self):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        told = []
        j1 = session.subscribe(J1)
        j2 = session.subscribe(J2, on_refresh=told.append)
        provider = next(
            m for m in session.shared_results() if m.fingerprint == j1.fingerprint
        )
        real_refresh = provider.refresh
        at_the_cut = {}

        def refresh_then_commit():
            outcome = real_refresh()
            at_the_cut["j2"] = db.query(J2)  # the tables are still at the cut
            # A writer slips in between J1's refresh and J2's: a B row
            # that joins is terminated, and A moves again.
            assert current_delete(db.table("B"), _key(1), at=20)
            current_insert(db.table("A"), (2,), at=21)
            return outcome

        provider.refresh = refresh_then_commit
        current_insert(db.table("A"), (1,), at=15)
        assert session.flush() == 2
        provider.refresh = real_refresh
        # J2 answered for the commit J1 answered for and no other: never
        # J1(t₁) ⋈ B(t₂).
        assert j2.result == at_the_cut["j2"] != db.query(J2)
        (first,) = told
        assert first.changed_tables == ("A",)
        assert j2.stats.coalesced_events == 1
        assert first.result == at_the_cut["j2"]
        assert session.pending == 2
        assert session.flush() == 2
        _assert_cold(db, j1=j1, j2=j2)
        assert told[1].changed_tables == ("A", "B")
        assert told[1].commit.tick == first.commit.tick + 1
        assert session.stats()["repro_live_full_refreshes_total"] == 0
        session.close()

    def test_a_provider_that_fails_makes_its_consumer_rebuild(self, caplog):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        j1 = session.subscribe(J1)
        j2 = session.subscribe(J2)
        provider = next(
            m for m in session.shared_results() if m.fingerprint == j1.fingerprint
        )

        def broken(node, table_deltas):
            raise RuntimeError("propagation died half way")

        provider._evaluator._apply = broken
        current_insert(db.table("A"), (1,), at=15)
        with caplog.at_level(logging.ERROR, logger="repro.live.manager"):
            session.flush()
        (failure,) = [r for r in caplog.records if r.name == "repro.live.manager"]
        assert f"plan {j1.fingerprint[:12]}," in failure.getMessage()
        # J1's store lags; J2 did not apply its own half of the commit on
        # top of it — it rebuilt over the base tables.
        assert j1.result != db.query(J1)
        _assert_cold(db, j2=j2)
        assert not _shared_leaf(j2, j1)
        del provider._evaluator._apply
        current_insert(db.table("A"), (2,), at=16)
        session.flush()
        _assert_cold(db, j1=j1, j2=j2)
        session.close()

    def test_a_round_refreshes_providers_ahead_of_consumers(self):
        """Whatever order the writes dirty the plans in: a round visits
        each plan after every plan it reads (B is written first every
        third step, so J2 is noted before J1)."""
        db = _seed(Database("shared"))
        session = LiveSession(db)
        j1 = session.subscribe(J1)
        j2 = session.subscribe(J2)
        f = session.subscribe(F)
        visited = []
        real_refresh = session._refresh_one

        def recording_refresh(fingerprint):
            visited.append(fingerprint)
            return real_refresh(fingerprint)

        session._refresh_one = recording_refresh
        for at in range(20, 50):
            table = "ASB"[at % 3]
            current_update(db.table(table), _key(at % 4), (at % 4,), at=at)
            if at % 2:
                del visited[:]
                session.flush()
                _assert_cold(db, j1=j1, j2=j2, f=f)
                if j2.fingerprint in visited:
                    assert visited.index(j1.fingerprint) < visited.index(
                        j2.fingerprint
                    )
        session.flush()
        _assert_cold(db, j1=j1, j2=j2, f=f)
        stats = session.stats()
        assert stats["repro_live_full_refreshes_total"] == 0
        assert stats["repro_live_refresh_errors_total"] == 0
        session.close()


class TestCleanOrPrivate:
    def test_a_dirty_provider_is_not_read(self):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        j1 = session.subscribe(J1)
        current_insert(db.table("A"), (1,), at=15)  # J1 owes a refresh
        j2 = session.subscribe(J2)
        _assert_cold(db, j2=j2)  # not J1(before) ⋈ B
        assert not _shared_leaf(j2, j1)
        assert _operators(j2).count("HashJoin") == 2
        session.flush()
        current_update(db.table("S"), _key(2), (2,), at=16)
        session.flush()
        _assert_cold(db, j1=j1, j2=j2)
        session.close()

    def test_a_provider_fallback_rebuilds_provider_then_consumer(
        self, fallback_log, force_fallback
    ):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        told = []
        j1 = session.subscribe(J1)
        j2 = session.subscribe(J2, on_refresh=told.append)
        rows = tuple(db.table("S").rows())
        db.table("S").replace_all(rows[1:])
        force_fallback(j1)
        assert session.flush() == 2
        provider, consumer = fallback_log()
        assert f"plan {j1.fingerprint[:12]}" in provider
        assert f"plan {j2.fingerprint[:12]}" in consumer
        assert "delta=rebuild" in consumer
        _assert_cold(db, j1=j1, j2=j2)
        assert session.stats()["repro_live_full_refreshes_total"] == 2
        (rebuilt,) = told
        assert rebuilt.delta is None and rebuilt.changed_tables == ("S",)
        # The consumer rebuilt over the provider's *new* store.
        assert _shared_leaf(j2, j1)
        current_insert(db.table("S"), (0,), at=30)
        session.flush()
        _assert_cold(db, j1=j1, j2=j2)
        assert told[-1].delta is not None
        session.close()


class TestLifetime:
    def test_a_provider_outlives_its_subscribers_while_it_is_read(self):
        db = _seed(Database("shared"))
        session = LiveSession(db)
        told = []
        j1 = session.subscribe(J1)
        j2 = session.subscribe(J2, on_refresh=told.append)
        fingerprint = j1.fingerprint
        j1.close()
        assert fingerprint in session._plans  # J2 holds it
        assert session.stats()["repro_live_shared_results"] == 2
        current_insert(db.table("A"), (1,), at=15)
        assert session.flush() == 2
        _assert_cold(db, j2=j2)
        (only,) = told
        assert only.delta is not None and only.changed_tables == ("A",)
        evaluations = session.stats()["repro_live_evaluations_total"]
        j2.close()
        assert session._plans == {} and session._routes == {}
        stats = session.stats()
        assert stats["table_fanout"] == {} and session.pending == 0
        assert stats["repro_live_evaluations_total"] == evaluations  # retired
        session.close()

    def test_a_checkpointed_session_shares_again_after_reopen(self, tmp_path):
        db = _seed(Database.open(tmp_path, fsync="off"))
        session = db.live_session()
        session.subscribe_sql(J1_SQL, name="j1")
        j2 = session.subscribe_sql(J2_SQL, name="j2")
        current_insert(db.table("A"), (1,), at=15)
        session.flush()
        db.checkpoint()
        current_update(db.table("B"), _key(1), (1,), at=16)  # replayed suffix
        current_insert(db.table("A"), (2,), at=17)
        session.flush()
        expected = j2.result
        db.close()
        reopened = Database.open(tmp_path, session={})
        resumed = {s.name: s for s in reopened.live_session().subscriptions}
        assert _shared_leaf(resumed["j2"], resumed["j1"])
        assert resumed["j2"].result == expected
        stats = reopened.live_session().stats()
        assert stats["repro_live_full_refreshes_total"] == 0
        reopened.close()


@pytest.mark.timeout(60)
class TestSharded:
    def test_writers_racing_the_flush_lose_no_derived_delta(self):
        """More threads than cores and a short switch interval: what J2
        was sent — result-level deltas, or a re-read result when the
        refresh re-evaluated — must add up to its final result.  A
        provider's delta folded into the wrong record, twice or not at
        all would not."""
        db = _seed(Database("shared"))
        session = LiveSession(db)
        folded = Counter()
        rounds = []

        def fold(notification):  # one thread flushes: calls are serial
            rounds.append(notification.delta is not None)
            if notification.delta is None:
                folded.clear()
                folded.update(notification.result.tuples)
            else:
                folded.update(notification.delta.inserted)
                folded.subtract(notification.delta.deleted)

        j1 = session.subscribe(J1)
        j2 = session.subscribe(J2, on_refresh=fold)
        folded.update(j2.result.tuples)

        def writer(offset):
            for step in range(40):
                at = 100 + 3 * step + offset
                table = db.table("ASB"[(step + offset) % 3])
                current_update(table, _key(step % 4), (step % 4,), at=at)
                time.sleep(0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [
                threading.Thread(target=writer, args=(offset,))
                for offset in range(3)
            ]
            for thread in writers:
                thread.start()
            deadline = time.monotonic() + 30
            while (
                any(thread.is_alive() for thread in writers)
                and time.monotonic() < deadline
            ):
                session.flush()
            for thread in writers:
                thread.join(timeout=1)
            assert not any(thread.is_alive() for thread in writers)
            session.flush()
        finally:
            sys.setswitchinterval(interval)
        _assert_cold(db, j1=j1, j2=j2)
        assert sum(rounds) >= 3  # the delta path carried rounds of the race
        assert +folded == Counter(j2.result.tuples)
        assert not -folded
        stats = session.stats()
        assert stats["repro_live_refresh_errors_total"] == 0
        session.close()
