"""The checkpoint's plan encoding: every plan, predicate and expression
class round-trips through JSON to the same fingerprint and the same
result, and anything else is refused with ``DurabilityError``."""

import base64
import json

import pytest
from hypothesis import given

from repro.core.interval import OngoingInterval, until_now
from repro.core.timepoint import NOW, fixed, growing
from repro.durable.snapshot import decode_plan, encode_plan
from repro.engine.database import Database
from repro.engine.plan import PlanNode, scan
from repro.engine.storage import pack_tagged_value
from repro.errors import DurabilityError
from repro.relational.predicates import (
    TRUE_PREDICATE,
    Expression,
    Predicate,
    col,
    lit,
)
from repro.relational.schema import AttributeKind, Schema

from tests.conftest import assert_fixed_semantics, storable_values

RECENT = lit(OngoingInterval(fixed(5), NOW))


def _database(db=None):
    db = db or Database("codec")
    r = db.create_table("R", Schema.of("K", "C", ("VT", "interval")))
    s = db.create_table("S", Schema.of("K", "L", ("VT", "interval")))
    p = db.create_table("P", Schema.of("PK", "PL"))
    for key, (c, start) in enumerate([("a", 2), ("b", 4), ("a", 7), ("c", 9)]):
        r.insert(key, c, until_now(start))
        vt = OngoingInterval(fixed(start - 1), growing(start + 3))
        s.insert(key % 2, f"l{key}", vt)
        p.insert(key, c)
    return db


#: Queried by every example of the literal property: built once.
LITERALS = _database()


def _catalogue():
    r, s = scan("R"), scan("S")
    joined = r.join(
        s,
        on=(col("R.K") == col("S.K")) & col("R.VT").overlaps(col("S.VT")),
        left_name="R",
        right_name="S",
    )
    return {
        "scan": r,
        "select": r.where(
            ((col("K") >= lit(1)) & col("VT").overlaps(RECENT))
            | ~(col("C") == lit("b"))
        ),
        "true select": r.where(TRUE_PREDICATE),
        "project forms": r.select_columns(
            "K",
            ("W", col("VT").intersect(RECENT)),
            ("KK", col("K"), AttributeKind.FIXED),
        ),
        "named join": joined.select_columns(
            "R.K", "S.L", ("W", col("R.VT").intersect(col("S.VT")))
        ),
        "nameless join": r.join(scan("P"), on=col("K") == col("PK")),
        "cross join": r.join(scan("P"), on=TRUE_PREDICATE),
        "union": r.where(col("C") == lit("a")).union(r.where(col("K") > lit(2))),
        "difference": r.difference(r.where(col("VT").before(lit(until_now(8))))),
        "distinct": r.select_columns("C").distinct(),
        "sort": r.order_by("C", ("K", True)),
        "aggregate": r.group_by(
            ["C"],
            specs=[("count", None), ("min", "K", "least"), ("sum_duration", "VT")],
        ),
        "top-k": joined.order_by(("R.K", True), "S.L", limit=2),
    }


def _round_trip(plan):
    return decode_plan(json.loads(json.dumps(encode_plan(plan))))


def _walk(node):
    """Every plan, predicate and expression object under *node*."""
    stack, seen = [node], []
    while stack:
        item = stack.pop()
        if isinstance(item, (PlanNode, Predicate, Expression)):
            seen.append(item)
            for klass in type(item).__mro__:
                slots = klass.__dict__.get("__slots__", ())
                stack.extend(getattr(item, slot) for slot in slots)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return seen


def _concrete(base):
    found, stack = set(), [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub)
    return found


def test_the_catalogue_covers_every_class():
    covered = {type(node) for plan in _catalogue().values() for node in _walk(plan)}
    expected = _concrete(PlanNode) | _concrete(Predicate) | _concrete(Expression)
    assert len(expected) == 18
    assert expected <= covered, expected - covered


@pytest.mark.parametrize("name", sorted(_catalogue()))
def test_a_plan_round_trips_to_its_fingerprint_and_result(name):
    plan = _catalogue()[name]
    decoded = _round_trip(plan)
    assert decoded.fingerprint() == plan.fingerprint()
    assert decoded.canonical() == plan.canonical()
    db = _database()
    assert db.query(decoded) == db.query(plan)


@given(storable_values())
def test_a_literal_of_every_tagged_kind_round_trips(value):
    plan = scan("R").select_columns("K", ("V", lit(value)))
    decoded = _round_trip(plan)
    assert decoded.fingerprint() == plan.fingerprint()
    assert LITERALS.query(decoded) == LITERALS.query(plan)


def test_resumed_subscriptions_keep_their_fingerprints(tmp_path, caplog):
    db = _database(Database.open(tmp_path, fsync="off"))
    session = db.live_session()
    plans = _catalogue()
    fingerprints = {
        name: session.subscribe(plan, name=name).fingerprint
        for name, plan in plans.items()
    }
    db.checkpoint()
    db.close()
    reopened = Database.open(tmp_path, session={})
    resumed = {sub.name: sub for sub in reopened.live_session().subscriptions}
    assert {name: sub.fingerprint for name, sub in resumed.items()} == fingerprints
    assert "fingerprint changed" not in caplog.text
    for name in ("select", "named join", "union", "difference", "distinct"):
        sub = resumed[name]
        assert_fixed_semantics(sub.plan, reopened, sub.result, context=name)
    reopened.close()


def _where(predicate):
    return ["Select", ["Scan", "R"], predicate]


def _literal(raw: str):
    return _where(["Comparison", "=", ["Column", "K"], ["Literal", raw]])


@pytest.mark.parametrize(
    "encoded",
    [
        None,
        "Scan",
        [],
        ["Nope", "R"],
        [["Scan"], "R"],
        ["Scan"],
        ["Scan", "R", "extra"],
        ["Scan", ""],
        ["Select", ["Scan", "R"], ["Scan", "R"]],
        ["Select", ["Scan", "R"], ["Column", "K"]],
        ["Comparison", "=", ["Column", "K"], ["Column", "K"]],
        ["Project", ["Scan", "R"], [["V", ["Column", "K"], "bogus"]]],
        ["Project", ["Scan", "R"], [["V"]]],
        ["Aggregate", ["Scan", "R"], ["C"], []],
        ["SortLimit", ["Scan", "R"], [], 0],
        _literal("not base64!"),
        _literal(base64.b64encode(b"\xff").decode()),
        _literal(base64.b64encode(pack_tagged_value(1) + b"x").decode()),
        _literal(base64.b64encode(pack_tagged_value(1)[:-1]).decode()),
        _where(["Comparison", "~", ["Column", "K"], ["Column", "K"]]),
        _where(["AllenPredicate", "near", ["Column", "VT"], ["Column", "VT"]]),
        _where(["And", []]),
    ],
)
def test_a_malformed_encoding_is_refused(encoded):
    with pytest.raises(DurabilityError):
        decode_plan(encoded)


def test_an_unencodable_plan_is_refused():
    with pytest.raises(DurabilityError, match="2.5"):
        encode_plan(scan("R").where(col("K") < lit(2.5)))

    class Near(Predicate):
        pass

    with pytest.raises(DurabilityError, match="Near"):
        encode_plan(scan("R").where(Near()))


def test_an_unencodable_literal_fails_the_checkpoint_before_it_writes(tmp_path):
    db = Database.open(tmp_path, fsync="off", segment_bytes=256)
    table = db.create_table("R", Schema.of("K", ("VT", "interval")))
    for key in range(20):
        table.insert(key, until_now(key))
    session = db.live_session()
    session.subscribe(scan("R").where(col("K") < lit(2.5)), name="halves")
    assert len(session.subscriptions[0].result) == 3
    segments = db._durability.wal.segments()
    assert len(segments) > 1
    with pytest.raises(DurabilityError, match="'halves'"):
        db.checkpoint()
    assert not (tmp_path / "checkpoints").exists() or not any(
        (tmp_path / "checkpoints").iterdir()
    )
    assert db._durability.wal.segments() == segments
    db.close()
