"""Golden tests: every worked example of the paper, verbatim.

If one of these fails, the library no longer reproduces the paper.
Covered: the running example (Section II, Figs. 1-2), Example 1 (Fig. 5),
Example 2, Example 3, Table II's example column, Fig. 3's time point
taxonomy, Fig. 4's interval taxonomy, and the correctness invariant on the
running example's full query.
"""

from repro import (
    IntervalSet,
    NOW,
    OngoingInterval,
    OngoingTimePoint,
    allen,
    equal,
    fixed,
    fixed_interval,
    growing,
    less_equal,
    limited,
    mmdd,
    not_equal,
    ongoing_min,
    until_now,
)
from repro.engine import Database, scan
from repro.relational import Schema, col, lit

from tests.conftest import assert_fixed_semantics


def d(month, day):
    return mmdd(month, day)


class TestFig3TimePointTaxonomy:
    def test_fixed_point(self):
        point = OngoingTimePoint(d(10, 17), d(10, 19))
        assert point.format() == "10/17+10/19"
        assert point.instantiate(d(10, 16)) == d(10, 17)
        assert point.instantiate(d(10, 18)) == d(10, 18)
        assert point.instantiate(d(10, 20)) == d(10, 19)

    def test_all_four_kinds_are_a_plus_b(self):
        assert fixed(d(10, 17)).components() == (d(10, 17), d(10, 17))
        assert NOW.kind == "now"
        assert growing(d(10, 17)).kind == "growing"
        assert limited(d(10, 17)).kind == "limited"


class TestExample1MinRemainsValid:
    """min(10/17, now) = +10/17 and Fig. 5's two instantiation columns."""

    def test_result_is_limited_point(self):
        assert ongoing_min(fixed(d(10, 17)), NOW) == limited(d(10, 17))

    def test_fig5_left_column(self):
        result = ongoing_min(fixed(d(10, 17)), NOW)
        rt = d(10, 15)
        assert result.instantiate(rt) == d(10, 15)
        assert result.instantiate(rt) == min(d(10, 17), rt)

    def test_fig5_right_column(self):
        result = ongoing_min(fixed(d(10, 17)), NOW)
        rt = d(10, 19)
        assert result.instantiate(rt) == d(10, 17)
        assert result.instantiate(rt) == min(d(10, 17), rt)


class TestTableTwoExampleColumn:
    def test_le(self):
        result = less_equal(NOW, fixed(d(10, 17)))
        assert result.true_set == IntervalSet.below(d(10, 18))

    def test_eq(self):
        result = equal(fixed(d(10, 17)), NOW)
        assert result.true_set == IntervalSet.point(d(10, 17))

    def test_ne(self):
        result = not_equal(fixed(d(10, 17)), NOW)
        assert result.true_set == IntervalSet.point(d(10, 17)).complement()

    def test_before(self):
        result = allen.before(
            until_now(d(10, 17)), fixed_interval(d(10, 20), d(10, 25))
        )
        assert result.true_set == IntervalSet([(d(10, 18), d(10, 21))])

    def test_meets(self):
        result = allen.meets(
            until_now(d(10, 17)), fixed_interval(d(10, 20), d(10, 25))
        )
        assert result.true_set == IntervalSet([(d(10, 20), d(10, 21))])

    def test_overlaps(self):
        result = allen.overlaps(
            until_now(d(10, 17)), fixed_interval(d(10, 14), d(10, 20))
        )
        assert result.true_set == IntervalSet.at_least(d(10, 18))

    def test_starts(self):
        result = allen.starts(
            until_now(d(10, 17)), fixed_interval(d(10, 17), d(10, 20))
        )
        assert result.true_set == IntervalSet.at_least(d(10, 18))

    def test_finishes(self):
        result = allen.finishes(
            until_now(d(10, 17)), fixed_interval(d(10, 20), d(10, 25))
        )
        assert result.true_set == IntervalSet.point(d(10, 25))

    def test_during(self):
        result = allen.during(
            fixed_interval(d(10, 20), d(10, 25)), until_now(d(10, 17))
        )
        assert result.true_set == IntervalSet.at_least(d(10, 25))

    def test_equals(self):
        result = allen.interval_equals(
            until_now(d(10, 17)), fixed_interval(d(10, 17), d(10, 20))
        )
        assert result.true_set == IntervalSet.point(d(10, 20))

    def test_intersection(self):
        result = allen.intersect(
            until_now(d(10, 17)), fixed_interval(d(10, 14), d(10, 20))
        )
        assert result == OngoingInterval(fixed(d(10, 17)), limited(d(10, 20)))
        assert result.format() == "[10/17, +10/20)"


class TestExample2OverlapsEmptiness:
    def test_empty_at_10_16_true_at_10_18(self):
        result = allen.overlaps(
            until_now(d(10, 17)), fixed_interval(d(10, 14), d(10, 20))
        )
        assert result.instantiate(d(10, 16)) is False
        assert result.instantiate(d(10, 18)) is True


def _running_example_database() -> Database:
    db = Database("email-service")
    bugs = db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
    bugs.insert(500, "Spam filter", until_now(d(1, 25)))
    bugs.insert(501, "Spam filter", fixed_interval(d(3, 30), d(8, 21)))
    patches = db.create_table("P", Schema.of("PID", "C", ("VT", "interval")))
    patches.insert(201, "Spam filter", fixed_interval(d(8, 15), d(8, 24)))
    patches.insert(202, "Spam filter", fixed_interval(d(8, 24), d(8, 27)))
    leads = db.create_table("L", Schema.of("Name", "C", ("VT", "interval")))
    leads.insert("Ann", "Spam filter", fixed_interval(d(1, 20), d(8, 18)))
    leads.insert("Bob", "Spam filter", until_now(d(8, 18)))
    return db


def _running_example_plan():
    return (
        scan("B")
        .where(col("C") == lit("Spam filter"))
        .join(
            scan("P"),
            on=(col("B.C") == col("P.C")) & col("B.VT").before(col("P.VT")),
            left_name="B",
            right_name="P",
        )
        .join(
            scan("L"),
            on=(col("B.C") == col("L.C")) & col("B.VT").overlaps(col("L.VT")),
            right_name="L",
        )
        .select_columns(
            ("BID", col("B.BID")),
            ("B.VT", col("B.VT")),
            ("PID", col("P.PID")),
            ("Name", col("L.Name")),
            ("Resp", col("B.VT").intersect(col("L.VT"))),
        )
    )


class TestRunningExample:
    """Section II: query V over B, P, L reproduces Fig. 2 exactly."""

    def test_fig2_rows(self):
        result = _running_example_database().query(_running_example_plan())
        rows = {
            (
                row.values[0],
                row.values[1].format(),
                row.values[2],
                row.values[3],
                row.values[4].format(),
                row.rt.format(),
            )
            for row in result
        }
        assert rows == {
            (500, "[01/25, now)", 201, "Ann", "[01/25, +08/18)", "{[01/26, 08/16)}"),
            (500, "[01/25, now)", 202, "Ann", "[01/25, +08/18)", "{[01/26, 08/25)}"),
            (500, "[01/25, now)", 202, "Bob", "[08/18, now)", "{[08/19, 08/25)}"),
            (501, "[03/30, 08/21)", 202, "Ann", "[03/30, 08/18)", "{(-inf, inf)}"),
            (501, "[03/30, 08/21)", 202, "Bob", "[08/18, +08/21)", "{[08/19, inf)}"),
        }

    def test_b1_join_p1_reference_time(self):
        """The worked RT computation: RT(b1 ⋈ p1) = {[01/26, 08/16)}."""
        db = _running_example_database()
        plan = (
            scan("B")
            .where(col("C") == lit("Spam filter"))
            .join(
                scan("P"),
                on=(col("B.C") == col("P.C")) & col("B.VT").before(col("P.VT")),
                left_name="B",
                right_name="P",
            )
        )
        result = db.query(plan)
        for row in result:
            if row.values[0] == 500 and row.values[3] == 201:
                assert row.rt == IntervalSet([(d(1, 26), d(8, 16))])
                return
        raise AssertionError("b1 x p1 missing from the join result")

    def test_correctness_invariant_on_v(self):
        """∀rt: ‖V‖rt == evaluating the instantiated query at rt."""
        db = _running_example_database()
        result = db.query(_running_example_plan())
        bugs = db.relation("B")
        patches = db.relation("P")
        leads = db.relation("L")
        for rt in range(d(1, 1), d(12, 31), 5):
            expected = set()
            for bid, bc, bvt in bugs.instantiate(rt):
                if bc != "Spam filter":
                    continue
                for pid, pc, pvt in patches.instantiate(rt):
                    if not (bvt[1] <= pvt[0] and bvt[0] < bvt[1] and pvt[0] < pvt[1]):
                        continue
                    for name, lc, lvt in leads.instantiate(rt):
                        if (
                            bvt[0] < lvt[1]
                            and lvt[0] < bvt[1]
                            and bvt[0] < bvt[1]
                            and lvt[0] < lvt[1]
                        ):
                            expected.add(
                                (
                                    bid,
                                    bvt,
                                    pid,
                                    name,
                                    (max(bvt[0], lvt[0]), min(bvt[1], lvt[1])),
                                )
                            )
            assert result.instantiate(rt) == expected, rt
        assert_fixed_semantics(_running_example_plan(), db, result)


class TestExample3SelectionRestriction:
    def test_reference_time_restriction(self):
        """σ over a tuple that is itself a query result: its RT
        {(-inf, 08/16)} meets the predicate's truth set [01/26, inf)."""
        from repro.relational import OngoingTuple

        db = Database("example-3")
        db.create_table("B", Schema.of("BID", "C", ("VT", "interval"))).insert_tuples(
            [
                OngoingTuple(
                    (500, "Spam filter", until_now(d(1, 25))),
                    IntervalSet.below(d(8, 16)),
                )
            ]
        )
        window = lit(fixed_interval(d(1, 20), d(8, 18)))
        plan = scan("B").where(col("VT").overlaps(window))
        result = db.query(plan)
        (row,) = result.tuples
        assert row.rt == IntervalSet([(d(1, 26), d(8, 16))])
        assert_fixed_semantics(plan, db, result)


class TestFig4IntervalTaxonomy:
    def test_expanding_unbounded(self):
        assert until_now(d(10, 17)).kind == "expanding"

    def test_expanding_bounded_duration_growth(self):
        interval = OngoingInterval(
            fixed(d(10, 17)), OngoingTimePoint(d(10, 19), d(10, 21))
        )
        assert interval.is_expanding
        # duration grows up to rt=10/21, then freezes at [10/17, 10/21)
        assert interval.instantiate(d(10, 25)) == (d(10, 17), d(10, 21))

    def test_shrinking(self):
        interval = OngoingInterval(growing(d(10, 16)), fixed(d(10, 19)))
        assert interval.is_shrinking

    def test_partially_empty_example(self):
        assert until_now(d(10, 17)).is_partially_empty()
        assert until_now(d(10, 17)).is_empty_at(d(10, 16))
        assert not until_now(d(10, 17)).is_empty_at(d(10, 18))
