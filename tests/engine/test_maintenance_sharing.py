"""The maintainer's half of shared sub-plans: records, cuts, providers.

The session-level behaviour is in ``tests/serve/test_shared_plans.py``;
these are the primitives it is built from, driven by hand.
"""

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.maintenance import (
    IncrementalMaintainer,
    claim_round,
    providers_of,
)
from repro.engine.plan import scan
from repro.engine.rewrite import push_down_selections
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

_SCHEMA = Schema.of("K", ("VT", "interval"))


def _database() -> Database:
    db = Database("maintenance")
    for name in "ASB":
        table = db.create_table(name, _SCHEMA)
        for key in range(3):
            table.insert(key, until_now(key))
    return db


def _inner():
    return scan("A").join(
        scan("S"), on=col("A.K") == col("S.K"), left_name="A", right_name="S"
    )


def _outer():
    return _inner().join(scan("B"), on=col("A.K") == col("B.K"), right_name="B")


def _maintained(db, plan, plans):
    """What a session's ``_attach_plan`` + intake do, without a session."""
    plan = push_down_selections(plan, db)
    maintainer = IncrementalMaintainer(
        plan,
        db,
        label="test",
        fingerprint=plan.fingerprint(),
        providers=providers_of(plan, plans),
    )
    plans[maintainer.fingerprint] = maintainer
    maintainer.evaluate()
    return maintainer


def _feed(db, plans):
    return db.add_delta_listener(
        lambda table, version, delta: [
            maintainer.note_change(table, delta, db.last_commit)
            for maintainer in plans.values()
        ]
    )


class TestProviders:
    def test_the_largest_proper_sub_tree_not_the_plan_nor_a_bare_scan(self):
        db = _database()
        plans = {}
        base = _maintained(db, scan("B"), plans)
        inner = _maintained(db, _inner(), plans)
        assert inner.providers == ()  # Scan("A") is not worth sharing
        outer = _maintained(db, _outer(), plans)
        assert outer.providers == (inner,) and inner.consumers == [outer]
        assert base.consumers == []
        assert (inner.depth, outer.depth) == (0, 1)
        # One list: a plan after every plan it reads, first noted first
        # at equal depth.
        assert claim_round([outer, base, inner]) == [
            base.fingerprint, inner.fingerprint, outer.fingerprint
        ]
        again = providers_of(outer.plan, plans)
        assert again == [inner]  # never the plan itself
        assert outer.unlink() == (inner,)
        assert inner.consumers == [] and outer.providers == ()

    def test_rows_are_held_for_the_sources_the_tree_scans(self):
        db = _database()
        plans = {}
        inner = _maintained(db, _inner(), plans)
        outer = _maintained(db, _outer(), plans)
        _feed(db, plans)
        db.table("A").insert(1, until_now(9))
        db.table("B").insert(1, until_now(9))
        # Routed by the whole logical plan, but A reaches `outer` as
        # `inner`'s delta, not as rows of its own.
        assert outer.pending.tables == {"A", "B"} and outer.pending.events == 2
        assert set(outer.pending_snapshot()) == {"B"}
        assert set(inner.pending_snapshot()) == {"A"}


class TestCuts:
    def test_a_claimed_record_is_refreshed_alone(self):
        db = _database()
        plans = {}
        inner = _maintained(db, _inner(), plans)
        outer = _maintained(db, _outer(), plans)
        _feed(db, plans)
        assert inner.clean and outer.clean
        db.table("A").insert(1, until_now(9))
        first = db.last_commit
        assert not inner.clean
        ordered = claim_round([outer, inner])  # dirty order is not refresh order
        assert ordered == [inner.fingerprint, outer.fingerprint]
        assert outer.owed is not outer.pending and outer.owed.events == 1
        db.table("B").insert(1, until_now(10))  # after the cut
        db.table("A").insert(2, until_now(11))
        expected = None
        for maintainer in (inner, outer):
            outcome = maintainer.refresh()
            assert (outcome.tables, outcome.events) == ({"A"}, 1)
            assert outcome.commit == first and outcome.delta is not None
            expected = expected or len(outcome.delta.inserted)
        # `outer` saw exactly `inner`'s delta: one new A row, joined
        # with the B rows of the cut — not with the later B insert.
        assert len(outcome.delta.inserted) == expected == 1
        assert not outer.clean and outer.pending.events == 2
        claim_round([inner, outer])
        inner.refresh()
        outer.refresh()
        assert outer.clean and outer.result == db.query(_outer())

    def test_an_unanswered_claim_folds_into_the_next(self):
        db = _database()
        plans = {}
        inner = _maintained(db, _inner(), plans)
        outer = _maintained(db, _outer(), plans)
        _feed(db, plans)
        db.table("B").insert(1, until_now(9))
        oldest = db.last_commit
        outer.claim()
        db.table("B").insert(2, until_now(10))
        outer.claim()  # the first claim was never refreshed
        assert outer.owed.events == 2 and outer.owed.commit == oldest
        assert outer.pending.events == 0
        outcome = outer.refresh()
        assert outcome.events == 2 and len(outcome.delta.inserted) == 2
        assert outer.result == db.query(_outer()) and inner.clean

    def test_a_plan_on_its_own_claims_as_late_as_it_can(self):
        db = _database()
        plans = {}
        alone = _maintained(db, scan("B").where(col("K") == lit(1)), plans)
        _feed(db, plans)
        db.table("B").insert(1, until_now(9))
        assert claim_round([alone]) == [alone.fingerprint]
        assert alone.owed is alone.pending and alone.pending.events == 1
        db.table("B").insert(1, until_now(10))
        assert alone.refresh().events == 2
