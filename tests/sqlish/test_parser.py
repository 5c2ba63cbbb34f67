"""Unit tests for the OSQL parser."""

import pytest

from repro.errors import QueryError
from repro.sqlish import parse
from repro.sqlish import nodes


class TestSelectBasics:
    def test_star(self):
        statement = parse("SELECT * FROM B")
        assert isinstance(statement.items[0], nodes.StarItem)
        assert statement.tables == (nodes.TableRef("B", None),)
        assert statement.where is None

    def test_columns_and_aliases(self):
        statement = parse("SELECT BID, VT AS valid FROM B")
        first, second = statement.items
        assert first.expression == nodes.ColumnRef("BID") and first.alias is None
        assert second.alias == "valid"

    def test_table_aliases(self):
        statement = parse("SELECT * FROM Bugs AS B, Bugs B2")
        assert statement.tables[0] == nodes.TableRef("Bugs", "B")
        assert statement.tables[1] == nodes.TableRef("Bugs", "B2")

    def test_trailing_semicolon(self):
        assert parse("SELECT * FROM B;") is not None

    def test_bare_name_after_from_is_an_alias(self):
        # SQL-style implicit aliasing: "FROM B squirrel" aliases B.
        statement = parse("SELECT * FROM B squirrel")
        assert statement.tables[0] == nodes.TableRef("B", "squirrel")

    def test_garbage_after_statement(self):
        with pytest.raises(QueryError, match="EOF"):
            parse("SELECT * FROM B WHERE BID = 1 42")

    def test_missing_from(self):
        with pytest.raises(QueryError, match="FROM"):
            parse("SELECT BID")


class TestWhereClause:
    def test_comparison(self):
        statement = parse("SELECT * FROM B WHERE BID = 500")
        assert statement.where == nodes.Comparison(
            "=", nodes.ColumnRef("BID"), nodes.NumberLiteral(500)
        )

    def test_temporal_predicate(self):
        statement = parse("SELECT * FROM B WHERE VT OVERLAPS PERIOD '[1, 5)'")
        where = statement.where
        assert isinstance(where, nodes.TemporalPredicate)
        assert where.name == "overlaps"
        assert where.right == nodes.PeriodLiteral("1", "5")

    def test_equals_maps_to_interval_equals(self):
        statement = parse("SELECT * FROM B WHERE VT EQUALS VT")
        assert statement.where.name == "interval_equals"

    def test_and_or_not_precedence(self):
        statement = parse(
            "SELECT * FROM B WHERE NOT BID = 1 AND C = 'x' OR BID = 2"
        )
        where = statement.where
        # OR binds loosest: (NOT(BID=1) AND C='x') OR (BID=2)
        assert isinstance(where, nodes.OrExpr)
        left, right = where.parts
        assert isinstance(left, nodes.AndExpr)
        assert isinstance(left.parts[0], nodes.NotExpr)
        assert isinstance(right, nodes.Comparison)

    def test_parentheses_override(self):
        statement = parse("SELECT * FROM B WHERE BID = 1 AND (C = 'x' OR C = 'y')")
        where = statement.where
        assert isinstance(where, nodes.AndExpr)
        assert isinstance(where.parts[1], nodes.OrExpr)

    def test_condition_requires_predicate(self):
        with pytest.raises(QueryError, match="comparison or temporal"):
            parse("SELECT * FROM B WHERE BID")


class TestLiterals:
    def test_now(self):
        statement = parse("SELECT * FROM B WHERE T = NOW")
        assert statement.where.right == nodes.PointLiteral("now")

    def test_date(self):
        statement = parse("SELECT * FROM B WHERE T = DATE '08/15+'")
        assert statement.where.right == nodes.PointLiteral("08/15+")

    def test_limited_date(self):
        statement = parse("SELECT * FROM B WHERE U = DATE '+09/01'")
        assert statement.where.right == nodes.PointLiteral("+09/01")

    def test_period_body_is_split(self):
        statement = parse("SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/15, now)'")
        assert statement.where.right == nodes.PeriodLiteral("08/15", "now")

    def test_malformed_period(self):
        with pytest.raises(QueryError, match="PERIOD"):
            parse("SELECT * FROM B WHERE VT OVERLAPS PERIOD '08/15 to 08/24'")

    def test_period_missing_comma(self):
        with pytest.raises(QueryError, match="two endpoints"):
            parse("SELECT * FROM B WHERE VT OVERLAPS PERIOD '[08/15)'")

    def test_intersection_call(self):
        statement = parse("SELECT INTERSECTION(VT, W) AS both FROM B")
        expression = statement.items[0].expression
        assert expression == nodes.IntersectionCall(
            nodes.ColumnRef("VT"), nodes.ColumnRef("W")
        )


class TestAggregates:
    def test_count_star(self):
        statement = parse("SELECT C, COUNT(*) AS n FROM B GROUP BY C")
        assert statement.items[1].expression == nodes.AggregateCall("count", None)
        assert statement.group_by == ("C",)

    def test_sum_duration(self):
        statement = parse("SELECT SUM_DURATION(VT) AS load FROM B GROUP BY C")
        assert statement.items[0].expression == nodes.AggregateCall(
            "sum_duration", "VT"
        )

    def test_min_max(self):
        statement = parse("SELECT MIN(Sev) AS low, C FROM B GROUP BY C")
        assert statement.items[0].expression == nodes.AggregateCall("min", "Sev")

    def test_count_requires_star(self):
        with pytest.raises(QueryError):
            parse("SELECT COUNT(BID) FROM B")

    def test_group_by_multiple_columns(self):
        statement = parse("SELECT COUNT(*) AS n FROM B GROUP BY C, OS")
        assert statement.group_by == ("C", "OS")


class TestSetOperations:
    def test_union(self):
        statement = parse("SELECT * FROM A UNION SELECT * FROM B")
        assert isinstance(statement, nodes.SetOperation)
        assert statement.operator == "union"

    def test_except(self):
        statement = parse("SELECT * FROM A EXCEPT SELECT * FROM B")
        assert statement.operator == "except"

    def test_chained_left_associative(self):
        statement = parse(
            "SELECT * FROM A UNION SELECT * FROM B EXCEPT SELECT * FROM C"
        )
        assert statement.operator == "except"
        assert statement.left.operator == "union"


class TestOrderedSurface:
    def test_distinct(self):
        statement = parse("SELECT DISTINCT C FROM B")
        assert statement.distinct
        assert statement.items == (nodes.SelectItem(nodes.ColumnRef("C"), None),)

    def test_order_by_and_limit(self):
        statement = parse("SELECT * FROM B ORDER BY BID LIMIT 2")
        assert statement.order_by == (nodes.OrderItem("BID", False),)
        assert statement.limit == 2

    def test_order_by_directions(self):
        statement = parse("SELECT * FROM B ORDER BY C ASC, BID DESC")
        assert statement.order_by == (
            nodes.OrderItem("C", False),
            nodes.OrderItem("BID", True),
        )
        assert statement.limit is None

    def test_limit_without_order_by(self):
        statement = parse(
            "SELECT DISTINCT C, SUM_DURATION(VT) AS load FROM B GROUP BY C LIMIT 5"
        )
        assert statement.distinct
        assert statement.order_by == ()
        assert statement.limit == 5

    def test_having_order_by_and_limit_after_group_by(self):
        statement = parse(
            "SELECT C, COUNT(*) AS n, AVG(BID) AS a FROM B GROUP BY C "
            "HAVING n >= 1 AND a < 9 ORDER BY a DESC, C LIMIT 3"
        )
        assert statement.group_by == ("C",)
        assert statement.having == nodes.AndExpr(
            (
                nodes.Comparison(">=", nodes.ColumnRef("n"), nodes.NumberLiteral(1)),
                nodes.Comparison("<", nodes.ColumnRef("a"), nodes.NumberLiteral(9)),
            )
        )
        assert statement.order_by == (
            nodes.OrderItem("a", True),
            nodes.OrderItem("C", False),
        )
        assert statement.limit == 3


class TestReservedWordsAsColumns:
    """``having``, ``limit`` and ``distinct`` are keywords only where the
    grammar expects a clause; elsewhere they name columns."""

    def test_in_select_list_where_and_order_by(self):
        statement = parse(
            "SELECT having, limit FROM S WHERE distinct > 2 ORDER BY limit DESC"
        )
        assert statement.items == (
            nodes.SelectItem(nodes.ColumnRef("having"), None),
            nodes.SelectItem(nodes.ColumnRef("limit"), None),
        )
        assert statement.where == nodes.Comparison(
            ">", nodes.ColumnRef("distinct"), nodes.NumberLiteral(2)
        )
        assert statement.order_by == (nodes.OrderItem("limit", True),)
        assert statement.having is None and statement.limit is None

    def test_as_alias_and_group_column(self):
        statement = parse("SELECT COUNT(*) AS limit FROM B GROUP BY having")
        assert statement.items == (
            nodes.SelectItem(nodes.AggregateCall("count", None), "limit"),
        )
        assert statement.group_by == ("having",)
        assert statement.having is None and statement.limit is None

    def test_in_a_conjunction(self):
        statement = parse("SELECT * FROM B WHERE limit = 3 AND having != 0")
        assert statement.where == nodes.AndExpr(
            (
                nodes.Comparison("=", nodes.ColumnRef("limit"), nodes.NumberLiteral(3)),
                nodes.Comparison("!=", nodes.ColumnRef("having"), nodes.NumberLiteral(0)),
            )
        )
