"""Unit tests for the plan rewriter (Section VIII's optimization rules)."""

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import (
    Aggregate,
    Difference,
    Join,
    Scan,
    Select,
    Union,
    scan,
)
from repro.engine.rewrite import push_down_selections, split_selections
from repro.relational.predicates import TRUE_PREDICATE, col, lit
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


@pytest.fixture()
def db() -> Database:
    database = Database("rewrite-tests")
    bugs = database.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
    bugs.insert(500, "Spam filter", until_now(d(1, 25)))
    bugs.insert(501, "Spam filter", fixed_interval(d(3, 30), d(8, 21)))
    bugs.insert(502, "Dashboard", until_now(d(7, 1)))
    patches = database.create_table("P", Schema.of("PID", "C", ("VT", "interval")))
    patches.insert(201, "Spam filter", fixed_interval(d(8, 15), d(8, 24)))
    patches.insert(202, "Dashboard", fixed_interval(d(8, 24), d(8, 27)))
    return database


class TestSplit:
    def test_conjunction_cascades(self):
        plan = Select(
            Scan("B"),
            (col("C") == lit("x")) & (col("BID") == lit(1)),
        )
        rebuilt = split_selections(plan)
        assert isinstance(rebuilt, Select)
        assert isinstance(rebuilt.child, Select)
        assert isinstance(rebuilt.child.child, Scan)

    def test_single_conjunct_untouched(self):
        plan = Select(Scan("B"), col("C") == lit("x"))
        rebuilt = split_selections(plan)
        assert isinstance(rebuilt, Select)
        assert isinstance(rebuilt.child, Scan)

    def test_split_preserves_results(self, db):
        plan = Select(
            Scan("B"),
            (col("C") == lit("Spam filter"))
            & col("VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1)))),
        )
        assert db.query(split_selections(plan)) == db.query(plan)


class TestPushDown:
    def _joined(self):
        return Join(
            Scan("B"),
            Scan("P"),
            col("B.C") == col("P.C"),
            left_name="B",
            right_name="P",
        )

    def test_projection_exposes_columns_to_sink_into_join(self, db):
        # A selection over a join with a left-only predicate sinks into
        # the left input once exposure is known via an inner projection.
        inner = Join(
            Select(Scan("B"), col("C") == col("C")),  # keeps schema opaque
            Scan("P"),
            col("B.C") == col("P.C"),
            left_name="B",
            right_name="P",
        )
        plan = Select(inner, col("B.BID") == lit(500))
        rewritten = push_down_selections(plan)
        # scans are opaque to the pure rewriter, so the conjunct merges
        # into the join predicate instead of being lost
        assert isinstance(rewritten, Join)
        assert db.query(rewritten) == db.query(plan)

    def test_union_pushes_into_both_branches(self, db):
        plan = Select(
            Union(Scan("B"), Scan("B")), col("C") == lit("Dashboard")
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Union)
        assert isinstance(rewritten.left, Select)
        assert isinstance(rewritten.right, Select)
        assert db.query(rewritten) == db.query(plan)

    def test_difference_pushes_into_left_only(self, db):
        plan = Select(
            Difference(Scan("B"), Scan("B")), col("C") == lit("Dashboard")
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Difference)
        assert isinstance(rewritten.left, Select)
        assert isinstance(rewritten.right, Scan)
        assert db.query(rewritten) == db.query(plan)

    def test_join_predicate_absorbs_unsinkable_conjunct(self, db):
        plan = Select(self._joined(), col("B.VT").overlaps(col("P.VT")))
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Join)  # the Select disappeared
        assert db.query(rewritten) == db.query(plan)

    def test_results_identical_on_compound_plans(self, db):
        plan = Select(
            Select(
                Union(self._joined(), self._joined()),
                col("B.C") == lit("Spam filter"),
            ),
            col("B.VT").overlaps(lit(fixed_interval(d(8, 1), d(9, 1)))),
        )
        rewritten = push_down_selections(plan)
        assert db.query(rewritten) == db.query(plan)

    def test_projection_pass_through(self, db):
        plan = Select(
            scan("B").select_columns("BID", "C"),
            col("C") == lit("Dashboard"),
        )
        rewritten = push_down_selections(plan)
        assert db.query(rewritten) == db.query(plan)

    def test_catalog_resolves_scan_schemas_for_join_sink(self, db):
        # With the owning database, scans stop being opaque: a left-only
        # conjunct sinks below the join instead of merging into its
        # predicate.
        plan = Select(self._joined(), col("B.BID") == lit(500))
        rewritten = push_down_selections(plan, db)
        assert isinstance(rewritten, Join)
        assert isinstance(rewritten.left, Select)
        assert rewritten.left.predicate.references() == {"BID"}
        assert isinstance(rewritten.right, Scan)
        assert db.query(rewritten) == db.query(plan)

    def test_one_sided_conjuncts_leave_the_join_predicate(self, db):
        # Inside Join.predicate, where `join(on=...)` puts them and where
        # a WHERE conjunct merged into the join lands.
        # One fixed conjunct per side and an ongoing one; the two-sided
        # conjuncts stay, in order.
        window = lit(fixed_interval(d(8, 1), d(9, 1)))
        plan = Join(
            Scan("B"),
            Scan("P"),
            (col("B.C") == col("P.C"))
            & (col("P.PID") == lit(201))
            & col("B.VT").overlaps(col("P.VT"))
            & (col("B.BID") >= lit(500))
            & col("P.VT").overlaps(window),
            left_name="B",
            right_name="P",
        )
        rewritten = push_down_selections(plan, db)
        assert isinstance(rewritten, Join)
        assert repr(rewritten.predicate) == repr(
            (col("B.C") == col("P.C")) & col("B.VT").overlaps(col("P.VT"))
        )
        assert isinstance(rewritten.left, Select)
        assert rewritten.left.predicate.references() == {"BID"}
        assert isinstance(rewritten.left.child, Scan)
        sunk = rewritten.right
        assert isinstance(sunk, Select) and isinstance(sunk.child, Select)
        assert sunk.predicate.references() == {"VT"}
        assert sunk.child.predicate.references() == {"PID"}
        assert db.query(rewritten) == db.query(plan, optimize=False)
        # Rewriting is idempotent — a plan and its sub-trees keep the
        # fingerprints they are shared by.
        again = push_down_selections(rewritten, db)
        assert again.fingerprint() == rewritten.fingerprint()
        # Without the catalog scans stay opaque and nothing moves.
        assert push_down_selections(plan).fingerprint() == plan.fingerprint()

    def test_a_join_of_one_sided_conjuncts_only_keeps_a_true_predicate(self, db):
        plan = Join(
            Scan("B"),
            Scan("P"),
            col("P.PID") == lit(201),
            left_name="B",
            right_name="P",
        )
        rewritten = push_down_selections(plan, db)
        assert repr(rewritten.predicate) == repr(TRUE_PREDICATE)
        assert isinstance(rewritten.right, Select)
        assert db.query(rewritten) == db.query(plan, optimize=False)

    def test_osql_and_fluent_joins_meet_at_one_sub_tree(self, db):
        from repro.sqlish import compile_statement

        inner = push_down_selections(
            compile_statement(
                "SELECT * FROM B, P WHERE B.C = P.C AND P.PID = 201", db
            ),
            db,
        )
        outer = push_down_selections(
            compile_statement(
                "SELECT B.BID, B2.BID FROM B, P, B AS B2 "
                "WHERE B.C = P.C AND P.PID = 201 AND B.C = B2.C",
                db,
            ),
            db,
        )
        assert outer.child.left.fingerprint() == inner.fingerprint()
        assert isinstance(inner.right, Select)  # σ(P) below the join

    def test_difference_right_side_never_restricted(self, db):
        # Regression for the unsound direction: a right tuple failing θ
        # still subtracts reference time, so σθ must not reach R.
        plan = Select(
            Difference(Scan("B"), Scan("B")), col("C") == lit("Dashboard")
        )
        rewritten = push_down_selections(plan, db)
        assert isinstance(rewritten, Difference)
        assert isinstance(rewritten.right, Scan)
        assert db.query(rewritten) == db.query(plan)


class TestAggregatePushdown:
    def test_group_column_predicate_sinks_below_aggregate(self, db):
        plan = Select(
            Aggregate(Scan("B"), ("C",), "count"),
            col("C") == lit("Dashboard"),
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Aggregate)
        assert isinstance(rewritten.child, Select)
        assert db.query(rewritten) == db.query(plan)

    def test_aggregated_column_predicate_stays_above(self):
        # θ over the aggregate's output column is NOT constant per group
        # member; pushing it below γ would filter inputs, not groups.
        plan = Select(
            Aggregate(Scan("B"), ("C",), "count"),
            col("count") == lit(1),
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Select)
        assert isinstance(rewritten.child, Aggregate)

    def test_mixed_reference_predicate_stays_above(self):
        plan = Select(
            Aggregate(Scan("B"), ("C",), "count"),
            (col("C") == lit("Dashboard")) | (col("count") == lit(1)),
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Select)
        assert isinstance(rewritten.child, Aggregate)

    def test_ongoing_literal_blocks_push(self):
        # Even over a grouping column, comparing against an ongoing value
        # can change truth as time passes — it must stay above γ.
        plan = Select(
            Aggregate(Scan("B"), ("C",), "count"),
            col("C") == lit(until_now(d(1, 25))),
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Select)
        assert isinstance(rewritten.child, Aggregate)

    def test_allen_predicate_blocks_push(self):
        plan = Select(
            Aggregate(Scan("B"), ("C",), "count"),
            col("C").overlaps(lit(fixed_interval(d(1, 1), d(2, 1)))),
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Select)
        assert isinstance(rewritten.child, Aggregate)

    def test_scalar_aggregate_never_pushed(self):
        # A scalar γ emits an empty-group row; a selection above it must
        # see that row, so nothing sinks through.
        plan = Select(
            Aggregate(Scan("B"), (), "count"),
            col("count") == lit(0),
        )
        rewritten = push_down_selections(plan)
        assert isinstance(rewritten, Select)
        assert isinstance(rewritten.child, Aggregate)

    def test_pushdown_composes_with_join_below_aggregate(self, db):
        inner = Join(
            Scan("B"),
            Scan("P"),
            col("B.C") == col("P.C"),
            left_name="B",
            right_name="P",
        )
        plan = Select(
            Aggregate(inner, ("B.C",), "count"),
            col("B.C") == lit("Spam filter"),
        )
        rewritten = push_down_selections(plan, db)
        # The conjunct sinks through γ and then below the join.
        assert isinstance(rewritten, Aggregate)
        assert isinstance(rewritten.child, Join)
        assert isinstance(rewritten.child.left, Select)
        assert db.query(rewritten) == db.query(plan)
