"""Unit tests for the catalog and query entry point."""

import pytest

from repro.core.interval import until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.errors import QueryError, SchemaError
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple


def _database() -> Database:
    db = Database("test")
    table = db.create_table("bugs", Schema.of("BID", "C", ("VT", "interval")))
    table.insert(500, "Spam filter", until_now(mmdd(1, 25)))
    table.insert(501, "Dashboard", until_now(mmdd(3, 30)))
    return db


class TestCatalog:
    def test_create_and_lookup(self):
        db = _database()
        assert db.table("bugs").name == "bugs"
        assert len(db.relation("bugs")) == 2

    def test_duplicate_table_rejected(self):
        db = _database()
        with pytest.raises(QueryError, match="already exists"):
            db.create_table("bugs", Schema.of("X"))

    def test_unknown_table_lists_catalog(self):
        db = _database()
        with pytest.raises(QueryError, match="bugs"):
            db.table("nope")

    def test_drop_table(self):
        db = _database()
        db.drop_table("bugs")
        with pytest.raises(QueryError):
            db.table("bugs")
        with pytest.raises(QueryError):
            db.drop_table("bugs")

    def test_register_preloads(self):
        db = _database()
        db.register("copy", db.relation("bugs"))
        assert len(db.relation("copy")) == 2


class TestTable:
    def test_insert_arity_checked(self):
        db = _database()
        with pytest.raises(SchemaError, match="expects 3 values"):
            db.table("bugs").insert(1, 2)

    def test_insert_many_arity_checked(self):
        db = _database()
        with pytest.raises(SchemaError):
            db.table("bugs").insert_many([(1, 2)])

    def test_insert_many_is_all_or_nothing(self):
        """A malformed row mid-batch must not leave earlier rows stored
        without a version bump, snapshot invalidation, or delta event."""
        db = _database()
        table = db.table("bugs")
        before_len = len(table)
        before_version = table.version
        snapshot = table.as_relation()
        with pytest.raises(SchemaError):
            table.insert_many(
                [(502, "Search", until_now(mmdd(5, 1))), (503, "oops")]
            )
        assert len(table) == before_len
        assert table.version == before_version
        assert table.as_relation() is snapshot  # cache untouched, and true

    def test_an_ongoing_value_in_a_fixed_column_is_refused(self):
        """The binder copies fixed columns through, so a table refuses an
        ongoing value there before anything is stored."""
        db = _database()
        table = db.table("bugs")
        before_version = table.version
        with pytest.raises(SchemaError, match="fixed column 1"):
            table.insert(502, until_now(mmdd(5, 1)), until_now(mmdd(5, 1)))
        with pytest.raises(SchemaError, match="fixed column 0"):
            table.insert_many(
                [(503, "ok", until_now(1)), (until_now(2), "x", until_now(2))]
            )
        with pytest.raises(SchemaError, match="fixed column 1"):
            table.replace_all([OngoingTuple((1, until_now(0), until_now(0)))])
        assert len(table) == 2 and table.version == before_version

    def test_snapshot_is_cached_and_invalidated(self):
        db = _database()
        table = db.table("bugs")
        first = table.as_relation()
        assert table.as_relation() is first
        table.insert(502, "Search", until_now(mmdd(5, 1)))
        assert table.as_relation() is not first
        assert len(table.as_relation()) == 3

    def test_delete_where(self):
        db = _database()
        removed = db.table("bugs").delete_where(lambda row: row.values[0] != 500)
        assert removed == 1
        assert db.relation("bugs").column("BID") == [501]

    def test_base_tuples_get_trivial_rt(self):
        db = _database()
        assert all(item.rt.is_universal() for item in db.relation("bugs"))


class TestQuery:
    def test_query_materializes(self):
        db = _database()
        result = db.query(scan("bugs").where(col("C") == lit("Dashboard")))
        assert result.column("BID") == [501]

    def test_explain_mentions_operators(self):
        db = _database()
        text = db.explain(scan("bugs").where(col("C") == lit("Dashboard")))
        assert "SeqScan" in text
        assert "FixedFilter" in text
