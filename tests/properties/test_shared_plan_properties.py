"""Property tests: sharing a maintained plan changes nothing a subscriber sees.

A session plans the largest proper sub-trees of a new plan that it
already maintains as scans over those plans' result stores.  Whatever
the order plans come and go in, and however commits fall into flush
rounds, that must stay invisible: after every flush each maintained
result instantiates like the paper's definition
(:func:`repro.baselines.clifford.evaluate_fixed`) on the tables, is
the result of a session that subscribed that plan *alone*, and every
subscriber's notification stream — result-level deltas, the tables and
event counts answered for, the oldest commit's tick — is the lone
session's stream.

``J1`` is ``A ⋈ S`` with a one-sided conjunct inside its join predicate
(the rewrite sinks it, so the shared sub-tree is the *rewritten* one),
``J2`` is ``J1 ⋈ B`` projected, ``F`` an unrelated filter on ``B``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import fixed_interval, until_now
from repro.engine.database import Database
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)
from repro.engine.plan import scan
from repro.engine.rewrite import push_down_selections
from repro.live import LiveSession
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema

from tests.conftest import assert_fixed_semantics

_SCHEMA = Schema.of("K", ("VT", "interval"))
_ON_AS = (
    (col("A.K") == col("S.K"))
    & col("A.VT").overlaps(col("S.VT"))
    & (col("S.K") <= lit(2))
)
_ON_B = col("A.K") == col("B.K")
_COLUMNS = ("A.K", "A.VT", "S.VT", "B.VT")
_FILTER = col("K") == lit(1)


def _plans():
    inner = scan("A").join(scan("S"), on=_ON_AS, left_name="A", right_name="S")
    return {
        "J1": inner,
        "J2": inner.join(scan("B"), on=_ON_B, right_name="B").select_columns(
            *_COLUMNS
        ),
        "F": scan("B").where(_FILTER),
    }


PLAN_KEYS = sorted(_plans())

_KEYS = st.integers(min_value=0, max_value=3)
_TIMES = st.integers(min_value=0, max_value=30)
_TABLES = st.sampled_from("ASB")


def _intervals():
    return st.one_of(
        st.tuples(_TIMES).map(lambda t: until_now(t[0])),
        st.tuples(_TIMES, _TIMES).map(
            lambda pair: fixed_interval(min(pair), max(pair) + 2)
        ),
    )


_MODIFICATIONS = (
    st.tuples(st.just("insert"), _TABLES, _KEYS, _intervals()),
    st.tuples(st.just("current_insert"), _TABLES, _KEYS, _TIMES),
    st.tuples(st.just("current_delete"), _TABLES, _KEYS, _TIMES),
    st.tuples(st.just("current_update"), _TABLES, _KEYS, _KEYS, _TIMES),
)

#: What happens after the plans were subscribed in a drawn order:
#: modifications, flushes wherever they fall (so commits group at
#: random), and plans leaving and coming back (``toggle``).
_STEPS = st.lists(
    st.one_of(
        *_MODIFICATIONS,
        st.just(("flush",)),
        st.tuples(st.just("toggle"), st.sampled_from(PLAN_KEYS)),
    ),
    min_size=1,
    max_size=16,
)


def _fresh_database() -> Database:
    db = Database("shared-props")
    for name in "ASB":
        table = db.create_table(name, _SCHEMA)
        table.insert(0, until_now(5))
        table.insert(1, until_now(3))
        table.insert(1, fixed_interval(8, 18))
        table.insert(2, until_now(12))
        table.insert(3, until_now(7))
    db.table("A").insert(1, fixed_interval(8, 18))  # a genuine duplicate row
    return db


def _modify(db: Database, action) -> None:
    kind, table = action[0], db.table(action[1])
    if kind == "insert":
        table.insert(action[2], action[3])
    elif kind == "current_insert":
        current_insert(table, (action[2],), at=action[3])
    elif kind == "current_delete":
        key = action[2]
        current_delete(table, lambda r: r.values[0] == key, at=action[3])
    else:  # current_update
        key = action[2]
        current_update(
            table, lambda r: r.values[0] == key, (action[3],), at=action[4]
        )


class _World:
    """One database, one session, the subscriptions it holds by plan key
    and what each of them was told."""

    def __init__(self):
        self.db = _fresh_database()
        self.session = LiveSession(self.db)
        self.subscriptions = {}
        self.streams = {}

    def subscribe(self, key):
        stream = self.streams.setdefault(key, [])

        def record(notification):
            delta = notification.delta
            stream.append(
                (
                    None
                    if delta is None
                    else (frozenset(delta.inserted), frozenset(delta.deleted)),
                    notification.changed_tables,
                    notification.subscription.stats.coalesced_events,
                    notification.commit.tick,
                    frozenset(notification.result.tuples),
                )
            )

        stream.append("subscribed")
        self.subscriptions[key] = self.session.subscribe(
            _plans()[key], on_refresh=record
        )

    def unsubscribe(self, key):
        subscription = self.subscriptions.pop(key)
        stats = subscription.stats
        self.streams[key].append(("left", stats.refreshes, stats.suppressed))
        subscription.close()


def _held_without_subscribers(world: _World, key) -> bool:
    fingerprint = push_down_selections(_plans()[key], world.db).fingerprint()
    return key not in world.subscriptions and any(
        maintainer.fingerprint == fingerprint
        for maintainer in world.session.shared_results()
    )


def _check_after_flush(shared: _World, lone) -> None:
    for key, subscription in shared.subscriptions.items():
        result = subscription.result
        assert_fixed_semantics(_plans()[key], shared.db, result, context=key)
        assert result == lone[key].subscriptions[key].result, key
        assert result == shared.db.query(_plans()[key]), key
    for maintainer in shared.session.shared_results():
        assert maintainer._evaluator.check_index_integrity() == []


@given(st.permutations(PLAN_KEYS), _STEPS)
@settings(max_examples=150, deadline=None)
def test_a_shared_session_is_indistinguishable_from_lone_sessions(order, steps):
    shared = _World()
    lone = {key: _World() for key in PLAN_KEYS}
    worlds = [shared, *lone.values()]
    for step in [*(("toggle", key) for key in order), *steps, ("flush",)]:
        kind = step[0]
        if kind == "flush":
            for world in worlds:
                world.session.flush()
            _check_after_flush(shared, lone)
        elif kind == "toggle":
            key = step[1]
            if _held_without_subscribers(shared, key):
                # Attaching to a plan the session still maintains (for a
                # consumer) delivers what that plan owes, as to any
                # sharer; a lone session starts over.  Same streams only
                # from a flush boundary.
                for world in worlds:
                    world.session.flush()
            for world in (shared, lone[key]):
                if key in world.subscriptions:
                    world.unsubscribe(key)
                else:
                    world.subscribe(key)
        else:
            for world in worlds:
                _modify(world.db, step)
    for key in PLAN_KEYS:
        assert shared.streams[key] == lone[key].streams[key], key
    # Typed modifications only: nothing may have passed by re-evaluating.
    assert shared.session.stats()["repro_live_full_refreshes_total"] == 0
    for key in list(shared.subscriptions):
        shared.unsubscribe(key)
    assert shared.session._plans == {} and shared.session._routes == {}
    assert shared.session.stats()["table_fanout"] == {}
    for world in worlds:
        world.session.close()


@given(st.lists(st.one_of(*_MODIFICATIONS), max_size=6))
@settings(max_examples=60, deadline=None)
def test_whoever_arrives_second_shares_when_it_contains_the_first(modifications):
    """``J1`` then ``J2``: the inner join is held once — whatever was
    modified and flushed before ``J2`` arrived."""
    world = _World()
    world.subscribe("J1")
    for modification in modifications:
        _modify(world.db, modification)
    world.session.flush()
    world.subscribe("J2")
    j1 = world.subscriptions["J1"]
    report = world.subscriptions["J2"].node_report()
    assert f"SeqScan @{j1.fingerprint[:12]}" in "".join(
        node["describe"] for node in report
    )
    assert [node["operator"] for node in report].count("HashJoin") == 1
    assert world.subscriptions["J2"].result == world.db.query(_plans()["J2"])
    world.session.close()
