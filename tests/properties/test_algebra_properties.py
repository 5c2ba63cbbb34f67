"""Property tests for the relational operators — Theorem 2 as an executable law.

For every plan node ``Op`` the engine evaluates and every reference time::

    ‖Op(R, S)‖rt  ==  OpF(‖R‖rt, ‖S‖rt)

where the right-hand side is
:func:`repro.baselines.clifford.evaluate_fixed`: the classical operator
on the instantiated (fixed) tables.  The left-hand side is the engine's
plan run through ``Database.query``.  Tables are drawn with random fixed
attributes, random ongoing-interval attributes and random non-trivial
reference times — so the law is exercised on inputs that are themselves
query results.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.clifford import evaluate_fixed
from repro.core.interval import fixed_interval
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.relational.predicates import TRUE_PREDICATE, col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import (
    assert_fixed_semantics,
    interval_sets,
    ongoing_intervals,
    sweep,
)

_SCHEMA = Schema.of("K", ("VT", "interval"))


@st.composite
def small_tables(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                ongoing_intervals(),
                interval_sets(),
            ),
            max_size=5,
        )
    )
    return [
        OngoingTuple((key, interval), rt)
        for key, interval, rt in rows
        if not rt.is_empty()
    ]


def _database(left, right=()):
    db = Database("algebra-props")
    db.create_table("R", _SCHEMA).insert_tuples(left)
    db.create_table("S", _SCHEMA).insert_tuples(right)
    return db


def _holds(plan, db):
    """The engine's result of *plan* ≡ ``evaluate_fixed`` at every
    critical point."""
    assert_fixed_semantics(plan, db, db.query(plan))


class TestSelectionLaw:
    @given(small_tables(), st.integers(-20, 20), st.integers(1, 10))
    def test_selection_commutes_with_instantiation(self, rows, start, width):
        window = fixed_interval(start, start + width)
        _holds(scan("R").where(col("VT").overlaps(lit(window))), _database(rows))

    @given(small_tables())
    def test_selection_on_fixed_attribute_behaves_classically(self, rows):
        _holds(scan("R").where(col("K") == lit(1)), _database(rows))

    @given(small_tables())
    def test_selection_never_leaves_empty_rt(self, rows):
        selected = _database(rows).query(scan("R").where(col("K") == lit(1)))
        assert all(not item.rt.is_empty() for item in selected)


class TestProjectionLaw:
    @given(small_tables(), st.integers(-20, 20), st.integers(1, 10))
    def test_projection_commutes_with_instantiation(self, rows, start, width):
        window = lit(fixed_interval(start, start + width))
        db = _database(rows)
        _holds(scan("R").select_columns("K"), db)
        _holds(
            scan("R").select_columns(("I", col("VT").intersect(window)), "K"), db
        )


class TestProductAndJoinLaw:
    @given(small_tables(), small_tables())
    def test_product_commutes_with_instantiation(self, left, right):
        plan = scan("R").join(
            scan("S"), on=TRUE_PREDICATE, left_name="R", right_name="S"
        )
        _holds(plan, _database(left, right))

    @given(small_tables(), small_tables())
    def test_join_commutes_with_instantiation(self, left, right):
        predicate = (col("R.K") == col("S.K")) & col("R.VT").overlaps(col("S.VT"))
        plan = scan("R").join(scan("S"), on=predicate, left_name="R", right_name="S")
        _holds(plan, _database(left, right))


class TestSetOperatorLaws:
    @given(small_tables(), small_tables())
    def test_union_commutes_with_instantiation(self, left, right):
        _holds(scan("R").union(scan("S")), _database(left, right))

    @given(small_tables(), small_tables())
    def test_difference_commutes_with_instantiation(self, left, right):
        _holds(scan("R").difference(scan("S")), _database(left, right))

    @given(small_tables(), small_tables())
    def test_intersection_commutes_with_instantiation(self, left, right):
        """``R ∩ S`` is spelled ``R − (R − S)``; at every rt it is the
        intersection of the two bound tables."""
        plan = scan("R").difference(scan("R").difference(scan("S")))
        db = _database(left, right)
        result = db.query(plan)
        _holds(plan, db)
        for rt in sweep(db, [plan], result):
            bound = evaluate_fixed(scan("R"), db, rt) & evaluate_fixed(scan("S"), db, rt)
            assert result.instantiate(rt) == bound, rt


class TestIdentityLaws:
    @given(small_tables(), small_tables())
    def test_distinct_commutes_with_instantiation(self, left, right):
        _holds(scan("R").union(scan("S")).distinct(), _database(left, right))

    @given(small_tables())
    def test_unlimited_order_by_commutes_with_instantiation(self, rows):
        _holds(scan("R").order_by(("K", True)), _database(rows))
