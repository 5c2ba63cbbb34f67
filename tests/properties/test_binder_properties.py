"""The schema binder is the bind operator, row by row and type by type.

``Binder.bind`` instantiates many tuples of one schema at once; it must
return exactly what :meth:`OngoingTuple.instantiate` (``bind_value`` on
each value) returns, in value *and* type, for every kind of value a
relation stores — at every relation-level critical point and its
neighbours.  Every whole-relation bind of the engine goes through it, so
its three consumers (``OngoingRelation.instantiate``, ``BoundRows`` and
``changes_at``) must agree with the per-tuple yardstick too, and so must
Clifford's ``bind_relation``, which binds afresh at every access.  Each
is also fed relations the binder has bound before — at two reference
times in either order, or through tuples derived by ``with_rt`` /
``restrict`` — since a row that is the same at every reference time
keeps the row it first bound to.  Sharing equal bound intervals and
keeping rt-invariant rows are memory only: the last two tests pin that
they happen.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.clifford import bind_relation
from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.intervalset import UNIVERSAL_SET
from repro.core.rational import OngoingRational
from repro.core.timeline import MINUS_INF, PLUS_INF
from repro.core.timepoint import fixed
from repro.engine.accumulators import scalar_empty_row
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.predicates import col
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Attribute, AttributeKind, Schema
from repro.relational.tuples import Binder, OngoingTuple

from tests.conftest import (
    critical_points,
    finite_points,
    interval_sets,
    ongoing_integers,
    ongoing_intervals,
    ongoing_points,
)

K = AttributeKind

#: What a column of each kind may hold.  Ongoing columns also hold fixed
#: values (``bind_value`` passes them through); fixed ones never hold
#: ongoing values (a relation refuses them).
_VALUES = {
    K.FIXED: st.one_of(st.none(), st.integers(-50, 50), st.text(max_size=3)),
    K.ONGOING_POINT: ongoing_points(),
    K.ONGOING_INTERVAL: st.one_of(
        ongoing_intervals(),
        finite_points.map(lambda at: OngoingInterval(fixed(at), fixed(at))),
    ),
    K.ONGOING_INTEGER: st.one_of(
        ongoing_integers(),
        st.builds(OngoingRational, ongoing_integers(), ongoing_integers()),
        st.integers(-5, 5),
    ),
}


@st.composite
def relations(draw) -> OngoingRelation:
    """A relation of one to four columns of any kinds, and tuples whose
    RTs are trivial or arbitrary — duplicates of bound intervals likely."""
    kinds = draw(st.lists(st.sampled_from(list(_VALUES)), min_size=1, max_size=4))
    schema = Schema(Attribute(f"A{i}", kind) for i, kind in enumerate(kinds))
    rows = draw(
        st.lists(
            st.tuples(
                st.tuples(*(_VALUES[kind] for kind in kinds)),
                st.one_of(st.just(UNIVERSAL_SET), interval_sets()),
            ),
            max_size=6,
        )
    )
    return OngoingRelation(
        schema, [OngoingTuple(values, rt) for values, rt in rows if not rt.is_empty()]
    )


@st.composite
def bound_before(draw) -> OngoingRelation:
    """A relation whose tuples the binder has already bound at two
    reference times, in either order — or tuples derived by ``with_rt``
    / ``restrict`` from bound ones, themselves bound twice."""
    relation = draw(relations())
    binder = Binder.of(relation.schema)
    for rt in draw(st.lists(st.sampled_from(_reference_times(relation)), max_size=2)):
        binder.bind(relation.tuples, rt)
    derive = draw(st.sampled_from(("none", "with_rt", "restrict")))
    if derive != "none":
        derived = []
        for item in relation:
            rt = draw(interval_sets())
            item = item.with_rt(rt) if derive == "with_rt" else item.restrict(rt)
            if not item.rt.is_empty():
                derived.append(item)
        relation = OngoingRelation(relation.schema, derived)
        for rt in draw(
            st.lists(st.sampled_from(_reference_times(relation)), max_size=2)
        ):
            binder.bind(relation.tuples, rt)
    return relation


#: Fresh relations and relations the binder has bound before.
_RELATIONS = st.one_of(relations(), bound_before())


def _reference_times(relation: OngoingRelation):
    """Every component of every value and RT, ±1 (``critical_points``),
    with the cuts of ongoing integers and rationals added."""
    operands = []
    for item in relation:
        operands.append(item.rt)
        for value in item.values:
            if isinstance(value, OngoingRational):
                value = value.numerator + value.denominator
            if isinstance(value, OngoingInt):
                operands.extend(start for start, *_ in value.segments)
            else:
                operands.append(value)
    return critical_points(*operands)


def _typed(value):
    """*value* with the type of every part spelled out: ``2`` and
    ``Fraction(2)`` compare unequal here."""
    if isinstance(value, tuple):
        return (tuple, tuple(_typed(part) for part in value))
    return (type(value), value)


def _yardstick(tuples, rt):
    bound = (item.instantiate(rt) for item in tuples)
    return [row for row in bound if row is not None]


@given(_RELATIONS)
def test_the_binder_equals_bind_value_in_value_and_type(relation):
    binder = Binder.of(relation.schema)
    for rt in _reference_times(relation):
        expected = _yardstick(relation.tuples, rt)
        assert _typed(binder.bind(relation.tuples, rt)) == _typed(expected), rt


@given(_RELATIONS)
def test_the_whole_relation_consumers_agree_with_the_yardstick(relation):
    for rt in _reference_times(relation):
        expected = _yardstick(relation.tuples, rt)
        assert relation.instantiate(rt) == frozenset(expected), rt
        assert _typed(bind_relation(relation, rt)) == _typed(expected), rt


@given(_RELATIONS, st.data())
def test_bound_rows_and_changes_at_agree_with_the_yardstick(relation, data):
    """A table holding the relation's tuples, subscribed: ``BoundRows``
    binds the whole result and ``changes_at`` a delta of the rest."""
    split = data.draw(st.integers(0, len(relation)))
    held, added = relation.tuples[:split], relation.tuples[split:]
    db = Database("binder")
    table = db.create_table("R", relation.schema)
    table.insert_tuples(held)
    session = LiveSession(db)
    received = []
    sub = session.subscribe(scan("R"), on_refresh=received.append, reference_time=0)
    rts = _reference_times(relation)
    folds = {rt: sub.bound_rows(rt) for rt in rts}
    for rt, fold in folds.items():
        assert set(fold.rows) == set(_yardstick(held, rt)), rt
    table.insert_tuples(added)
    session.flush()
    for rt, fold in folds.items():
        if received:
            (notification,) = received
            changes = notification.changes_at(rt)
            want = tuple(_yardstick(added, rt))
            assert _typed(changes.inserted) == _typed(want), rt
            assert changes.deleted == ()
            fold.apply(notification)
        assert set(fold.rows) == relation.instantiate(rt), rt
    session.close()


def test_every_kind_of_value_binds_to_its_own_type():
    """One row per kind the paper's storage holds, the scalar aggregate's
    empty row included, checked at the edges of the time domain."""
    growing = OngoingInt([(MINUS_INF, 0, 0, 0), (0, PLUS_INF, 0, 1)])
    two = OngoingInt.constant(2)
    schema = Schema.of(
        "F", ("P", "point"), ("VT", "interval"), ("N", "integer"), ("Q", "integer")
    )
    rows = [
        (1, fixed(3), until_now(2), growing, OngoingRational(growing, two)),
        ("x", fixed(3), fixed_interval(4, 4), 7, OngoingRational(two + two, two)),
        (None, fixed(3), until_now(2), two, Fraction(2)),
    ]
    relation = OngoingRelation.from_rows(schema, rows)
    empty = OngoingRelation(
        Schema.of(("COUNT", "integer"), ("AVG", "integer")),
        [scalar_empty_row(["count", "avg"])],
    )
    for candidate in (relation, empty):
        binder = Binder.of(candidate.schema)
        for rt in (MINUS_INF, -1, 0, 1, 2, 3, 4, 5, PLUS_INF - 1):
            expected = _yardstick(candidate.tuples, rt)
            assert _typed(binder.bind(candidate.tuples, rt)) == _typed(expected)
    (count, average), = empty.instantiate(7)
    assert type(count) is int and type(average) is Fraction


def test_a_self_join_holds_one_pair_per_distinct_bound_interval():
    """Eight keys in two groups, four intervals: the join's 32 rows hold
    64 bound intervals, of which 4 are distinct — and 4 pair objects."""
    db = Database("binder-props")
    db.create_table("T", Schema.of("K", "G", ("VT", "interval"))).insert_many(
        (key, key % 2, until_now(key % 4)) for key in range(8)
    )
    plan = scan("T").join(
        scan("T"), on=col("L.G") == col("R.G"), left_name="L", right_name="R"
    )
    rows = db.query(plan).instantiate(100)
    pairs = [row[position] for row in rows for position in (2, 5)]
    assert len(rows) == 32 and len(pairs) == 64
    assert len(set(pairs)) == 4
    assert len({id(pair) for pair in pairs}) == 4


def test_an_rt_invariant_row_binds_to_one_object_at_every_reference_time():
    """A row of fixed values binds once: the same object at every rt, in
    either order.  A row holding an expanding interval binds afresh, to
    ``(a, rt)`` at each rt, after its first bind as before it."""
    schema = Schema.of("K", ("VT", "interval"), ("N", "integer"))
    invariant = OngoingTuple((1, fixed_interval(2, 5), OngoingInt.constant(3)))
    expanding = OngoingTuple((2, until_now(2), 3))
    binder = Binder.of(schema)
    later = binder.bind([invariant, expanding], 20)
    earlier = binder.bind([invariant, expanding], 10)
    assert later[0] is earlier[0]
    assert later[0] == earlier[0] == (1, (2, 5), 3)
    assert later[1] is not earlier[1]
    assert later[1] == (2, (2, 20), 3) and earlier[1] == (2, (2, 10), 3)
    derived = invariant.with_rt(invariant.rt)
    assert binder.bind([derived], 30) == [later[0]]
    # Clifford's baseline instantiates at each access: no row carried over.
    (again,) = bind_relation(OngoingRelation(schema, [invariant]), 30)
    assert again == later[0] and again is not later[0]
