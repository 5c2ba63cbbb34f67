"""Integration tests for the OSQL compiler against the engine."""

import re

import pytest

from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.intervalset import IntervalSet
from repro.core.timeline import MINUS_INF, PLUS_INF, mmdd
from repro.core.timepoint import NOW, OngoingTimePoint, fixed, growing, limited
from repro.datasets import generate_mozilla
from repro.engine.database import Database
from repro.errors import QueryError, ReproError
from repro.relational.schema import Schema
from repro.sqlish import compile_statement, run
from repro.sqlish.compiler import _parse_endpoint


def d(month, day):
    return mmdd(month, day)


@pytest.fixture()
def db() -> Database:
    database = Database("email-service")
    bugs = database.create_table("B", Schema.of("BID", "C", ("VT", "interval")))
    bugs.insert(500, "Spam filter", until_now(d(1, 25)))
    bugs.insert(501, "Spam filter", fixed_interval(d(3, 30), d(8, 21)))
    bugs.insert(502, "Dashboard", until_now(d(7, 1)))
    patches = database.create_table("P", Schema.of("PID", "C", ("VT", "interval")))
    patches.insert(201, "Spam filter", fixed_interval(d(8, 15), d(8, 24)))
    patches.insert(202, "Spam filter", fixed_interval(d(8, 24), d(8, 27)))
    leads = database.create_table("L", Schema.of("Name", "C", ("VT", "interval")))
    leads.insert("Ann", "Spam filter", fixed_interval(d(1, 20), d(8, 18)))
    leads.insert("Bob", "Spam filter", until_now(d(8, 18)))
    return database


class TestEndpointLiterals:
    def test_now(self):
        assert _parse_endpoint("now") == NOW

    def test_fixed_date(self):
        assert _parse_endpoint("08/15") == fixed(d(8, 15))

    def test_growing(self):
        assert _parse_endpoint("08/15+") == growing(d(8, 15))

    def test_limited(self):
        assert _parse_endpoint("+08/15") == limited(d(8, 15))

    def test_general(self):
        assert _parse_endpoint("08/15+08/20") == OngoingTimePoint(d(8, 15), d(8, 20))

    def test_plain_integers(self):
        assert _parse_endpoint("42") == fixed(42)

    def test_infinities(self):
        assert _parse_endpoint("inf") == fixed(PLUS_INF)
        assert _parse_endpoint("-inf") == fixed(MINUS_INF)


class TestSimpleSelects:
    def test_star(self, db):
        assert len(run("SELECT * FROM B", db)) == 3

    def test_fixed_where(self, db):
        result = run("SELECT BID FROM B WHERE C = 'Dashboard'", db)
        assert result.column("BID") == [502]

    def test_temporal_where_restricts_rt(self, db):
        result = run(
            "SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/15, 08/24)'", db
        )
        by_bid = {row.values[0]: row.rt for row in result}
        assert by_bid[500] == IntervalSet.at_least(d(8, 16))
        assert by_bid[501].is_universal()

    def test_projection_renames(self, db):
        result = run("SELECT BID AS bug, C AS component FROM B", db)
        assert result.schema.names == ("bug", "component")

    def test_computed_column_needs_alias(self, db):
        with pytest.raises(QueryError, match="AS alias"):
            run("SELECT INTERSECTION(VT, VT) FROM B", db)

    def test_unknown_column(self, db):
        with pytest.raises(QueryError, match="unknown column"):
            run("SELECT nope FROM B", db)

    def test_unknown_table(self, db):
        with pytest.raises(QueryError, match="no table named"):
            run("SELECT * FROM nope", db)


class TestJoins:
    RUNNING_EXAMPLE = """
        SELECT B.BID, B.VT AS BVT, P.PID, L.Name,
               INTERSECTION(B.VT, L.VT) AS Resp
        FROM B, P, L
        WHERE B.C = 'Spam filter'
          AND B.C = P.C AND B.VT BEFORE P.VT
          AND B.C = L.C AND B.VT OVERLAPS L.VT
    """

    def test_running_example_reproduces_fig2(self, db):
        result = run(self.RUNNING_EXAMPLE, db)
        rows = {
            (row.values[0], row.values[2], row.values[3], row.rt.format())
            for row in result
        }
        assert rows == {
            (500, 201, "Ann", "{[01/26, 08/16)}"),
            (500, 202, "Ann", "{[01/26, 08/25)}"),
            (500, 202, "Bob", "{[08/19, 08/25)}"),
            (501, 202, "Ann", "{(-inf, inf)}"),
            (501, 202, "Bob", "{[08/19, inf)}"),
        }

    def test_join_predicates_are_placed_for_hash_join(self, db):
        plan = compile_statement(self.RUNNING_EXAMPLE, db)
        assert "HashJoin" in db.explain(plan)

    def test_ambiguous_column_is_rejected(self, db):
        with pytest.raises(QueryError, match="ambiguous"):
            run("SELECT VT FROM B, P WHERE B.C = P.C", db)

    def test_unqualified_unique_column_resolves(self, db):
        result = run("SELECT Name FROM B, L WHERE B.C = L.C", db)
        assert set(result.column("Name")) == {"Ann", "Bob"}

    def test_self_join_with_aliases(self, db):
        result = run(
            "SELECT x.BID, y.BID AS other FROM B x, B y "
            "WHERE x.C = y.C AND x.BID != y.BID",
            db,
        )
        assert len(result) == 2  # 500<->501 both ways

    def test_compiled_matches_manual_instantiation(self, db):
        result = run(self.RUNNING_EXAMPLE, db)
        for rt in (d(8, 1), d(8, 20), d(9, 15)):
            manual = {
                row for row in result.instantiate(rt)
            }
            assert manual == result.instantiate(rt)


class TestSetOperations:
    def test_union_deduplicates(self, db):
        result = run("SELECT BID FROM B UNION SELECT BID FROM B", db)
        assert len(result) == 3

    def test_except(self, db):
        result = run(
            "SELECT BID FROM B EXCEPT SELECT BID FROM B WHERE C = 'Dashboard'",
            db,
        )
        assert sorted(result.column("BID")) == [500, 501]


class TestAggregates:
    def test_group_count(self, db):
        result = run("SELECT C, COUNT(*) AS n FROM B GROUP BY C", db)
        by_component = {row.values[0]: row.values[1] for row in result}
        assert by_component["Spam filter"].instantiate(0) == 2
        assert by_component["Dashboard"].instantiate(0) == 1

    def test_count_over_restricted_rt_varies(self, db):
        result = run(
            "SELECT C, COUNT(*) AS n FROM B "
            "WHERE VT OVERLAPS PERIOD '[08/15, 08/24)' GROUP BY C",
            db,
        )
        by_component = {row.values[0]: row.values[1] for row in result}
        spam = by_component["Spam filter"]
        assert spam.instantiate(d(8, 1)) == 1   # only the fixed bug
        assert spam.instantiate(d(8, 20)) == 2  # now the ongoing one too

    def test_sum_duration(self, db):
        result = run(
            "SELECT C, SUM_DURATION(VT) AS load FROM B GROUP BY C", db
        )
        by_component = {row.values[0]: row.values[1] for row in result}
        rt = d(8, 1)
        assert by_component["Dashboard"].instantiate(rt) == rt - d(7, 1)

    def test_plain_column_must_be_grouped(self, db):
        with pytest.raises(QueryError, match="GROUP BY"):
            run("SELECT BID, COUNT(*) AS n FROM B GROUP BY C", db)

    def test_aggregates_compile_to_pure_plans(self, db):
        """GROUP BY lowers to an Aggregate plan node — fingerprintable,
        so two clients writing the same query share one subscription."""
        from repro.engine.plan import Aggregate

        source = "SELECT C, COUNT(*) AS n FROM B GROUP BY C"
        plan = compile_statement(source, db)
        assert isinstance(plan, Aggregate)
        assert plan.group_columns == ("C",)
        assert plan.aggregate == "count"
        assert plan.output_name == "n"
        assert plan.fingerprint() == compile_statement(source, db).fingerprint()
        assert db.query(plan) == run(source, db)

    def test_scalar_count_over_empty_table_yields_constant_zero(self, db):
        """SQL semantics: COUNT(*) on an empty table is one row whose
        value is the constant-0 ongoing integer, valid at every rt."""
        from repro.relational.schema import Schema as _Schema

        db.create_table("E", _Schema.of("X", ("VT", "interval")))
        result = run("SELECT COUNT(*) AS n FROM E", db)
        assert len(result) == 1
        (row,) = result.tuples
        for rt in (d(1, 1), d(6, 15), d(12, 31)):
            assert row.values[0].instantiate(rt) == 0
            assert result.instantiate(rt) == frozenset({(0,)})

    def test_multiple_aggregates_in_one_select(self, db):
        result = run(
            "SELECT C, COUNT(*) AS a, MAX(BID) AS b FROM B GROUP BY C",
            db,
        )
        rows = {row.values[0]: row.values[1:] for row in result}
        assert set(rows) == {"Spam filter", "Dashboard"}
        count, biggest = rows["Spam filter"]
        assert count.instantiate(d(8, 1)) == 2
        assert biggest.instantiate(d(8, 1)) == 501

    HAVING_TEMPORAL = (
        "SELECT C, COUNT(*) AS n FROM B GROUP BY C "
        "HAVING n OVERLAPS PERIOD '[08/15, 08/24)'"
    )

    def test_temporal_having_fails_before_any_row(self, db):
        """HAVING compiles like WHERE: a temporal predicate over the
        aggregate's output (fixed keys, ongoing numbers — never
        intervals) fails when evaluated, as it would in WHERE."""
        with pytest.raises(ReproError, match="interval"):
            db.sql(self.HAVING_TEMPORAL)

    def test_temporal_having_subscription_is_rolled_back(self, db):
        session = db.live_session()
        with pytest.raises(ReproError, match="interval"):
            session.subscribe_sql(self.HAVING_TEMPORAL)
        assert session.subscriptions == []
        assert session.stats()["repro_live_shared_results"] == 0


class TestPredicatePlacement:
    """The compiler lowers FROM to joins on TRUE and WHERE to one
    selection; the rewrite places every conjunct.  The physical plans of
    the ledger's three-table ``J2`` and the paper's four-table ``QC`` are
    pinned operator by operator (tuple counts aside)."""

    J2 = (
        "SELECT A.ID, A.Email, A.VT, S.Severity, B.Product, B.Component "
        "FROM A, S, B WHERE A.ID = S.ID AND A.VT OVERLAPS S.VT "
        "AND S.Severity = 'major' AND A.ID = B.ID"
    )
    QC = (
        "SELECT * FROM A, S, B, B AS B2 WHERE A.ID = S.ID "
        "AND S.Severity = 'major' AND A.VT OVERLAPS S.VT AND A.ID = B.ID "
        "AND B.Product = B2.Product AND B.Component = B2.Component "
        "AND B.OS = B2.OS AND A.VT OVERLAPS B2.VT"
    )
    A_JOIN_S = [
        "    HashJoin (keys [0]=[0], 0+1 residual)",
        "      Qualify (A.ID, A.Email, A.VT...)",
        "        SeqScan A",
        "      Qualify (S.ID, S.Severity, S.VT...)",
        "        FixedFilter (1 conjuncts)",
        "          SeqScan S (Severity = 'major')",
    ]

    @pytest.fixture(scope="class")
    def mozilla(self):
        return generate_mozilla(200, seed=1).as_database()

    @staticmethod
    def skeleton(text):
        return [
            re.sub(r" \(\d+ tuples\)|: \d+ of \d+ tuples", "", line)
            for line in text.splitlines()
        ]

    def test_j2_plans_as_two_hash_joins(self, mozilla):
        text = mozilla.explain(compile_statement(self.J2, mozilla))
        assert self.skeleton(text) == [
            "Project (6 columns)",
            "  HashJoin (keys [0]=[0], 0+0 residual)",
            *self.A_JOIN_S,
            "    Qualify (B.ID, B.Product, B.Component, B.OS...)",
            "      SeqScan B",
        ]

    def test_qc_plans_as_three_hash_joins(self, mozilla):
        text = mozilla.explain(compile_statement(self.QC, mozilla))
        assert self.skeleton(text) == [
            "HashJoin (keys [7, 8, 9]=[1, 2, 3], 0+1 residual)",
            "  HashJoin (keys [0]=[0], 0+0 residual)",
            *self.A_JOIN_S,
            "    Qualify (B.ID, B.Product, B.Component, B.OS...)",
            "      SeqScan B",
            "  Qualify (B2.ID, B2.Product, B2.Component, B2.OS...)",
            "    SeqScan B",
        ]

class TestSemanticEquivalence:
    """OSQL results instantiate identically to Clifford evaluation."""

    def test_invariant_on_textual_query(self, db):
        result = run(
            "SELECT * FROM B WHERE VT BEFORE PERIOD '[08/24, 08/27)'", db
        )
        relation = db.relation("B")
        for rt in range(d(1, 1), d(12, 1), 11):
            expected = frozenset(
                row
                for row in relation.instantiate(rt)
                if row[2][1] <= d(8, 24) and row[2][0] < row[2][1]
            )
            assert result.instantiate(rt) == expected, rt
