"""Unit tests for bitemporal tables (VT + TT + RT, Section IV)."""

import pytest

from repro.core.interval import OngoingInterval, until_now
from repro.core.timeline import mmdd
from repro.core.timepoint import NOW, fixed, limited
from repro.engine.bitemporal import BitemporalTable
from repro.engine.database import Database
from repro.errors import QueryError, SchemaError
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _table() -> BitemporalTable:
    db = Database("bitemporal")
    return BitemporalTable(db, "B", Schema.of("BID", ("VT", "interval")))


class TestSchema:
    def test_tt_attribute_is_appended(self):
        table = _table()
        assert table.table.schema.names == ("BID", "VT", "TT")

    def test_user_schema_may_not_contain_tt(self):
        db = Database("x")
        with pytest.raises(SchemaError, match="maintained by the system"):
            BitemporalTable(db, "B", Schema.of("TT"))


class TestPaperExample:
    """Section IV: bug 500 with VT=[01/25, now), TT=[01/26, now)."""

    def test_insert_sets_open_transaction_time(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        (row,) = table.current().tuples
        assert row.values[2] == OngoingInterval(fixed(d(1, 26)), NOW)

    def test_vt_and_tt_instantiate_independently(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        rt = d(3, 15)
        (row,) = table.current().instantiate(rt)
        bid, vt, tt = row
        assert vt == (d(1, 25), rt)   # valid time follows now
        assert tt == (d(1, 26), rt)   # transaction time follows now too


class TestDelete:
    def test_delete_caps_transaction_time_with_limited_point(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        affected = table.delete(lambda row: row.values[0] == 500, at=d(6, 1))
        assert affected == 1
        (row,) = table.current().tuples
        assert row.values[2].end == limited(d(6, 1))

    def test_deleted_tuple_not_visible_after_deletion_time(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        table.delete(lambda row: row.values[0] == 500, at=d(6, 1))
        late_rt = d(9, 1)
        assert table.as_of(d(8, 1), late_rt) == []           # after delete
        assert len(table.as_of(d(3, 1), late_rt)) == 1       # history kept

    def test_delete_is_idempotent_on_dead_tuples(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        table.delete(lambda row: True, at=d(6, 1))
        assert table.delete(lambda row: True, at=d(7, 1)) == 0


class TestAsOf:
    def test_slices_combine_tt_and_rt(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        table.insert((501, until_now(d(4, 1))), at=d(4, 2))
        rt = d(12, 1)
        assert len(table.as_of(d(2, 1), rt)) == 1
        assert len(table.as_of(d(5, 1), rt)) == 2

    def test_as_of_result_remains_valid_as_time_passes(self):
        """The point of keeping TT ongoing: the same slice is correct at
        every reference time, before and after the deletion."""
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        table.delete(lambda row: row.values[0] == 500, at=d(6, 1))
        slice_time = d(3, 1)
        for rt in (d(4, 1), d(6, 1), d(12, 1)):
            rows = table.as_of(slice_time, rt)
            assert len(rows) == 1, rt
            # the valid time still instantiates per Definition 2
            assert rows[0][1][0] == d(1, 25)


class TestUpdate:
    def test_update_preserves_history(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        affected = table.update(
            lambda row: row.values[0] == 500,
            (500, until_now(d(6, 1))),
            at=d(6, 1),
        )
        assert affected == 1
        rt = d(12, 1)
        assert len(table.as_of(d(3, 1), rt)) == 1   # the old version
        assert len(table.as_of(d(8, 1), rt)) == 1   # the new version
        old = table.as_of(d(3, 1), rt)[0]
        new = table.as_of(d(8, 1), rt)[0]
        assert old[1][0] == d(1, 25)
        assert new[1][0] == d(6, 1)


class TestClock:
    def test_transaction_times_must_be_monotone(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(5, 1))
        with pytest.raises(QueryError, match="monotone"):
            table.insert((501, until_now(d(1, 25))), at=d(4, 1))

    def test_arity_checked(self):
        table = _table()
        with pytest.raises(SchemaError):
            table.insert((500,), at=d(1, 1))


class TestChangeEventContract:
    """Bitemporal writes obey the exactly-once modification-event contract."""

    def test_noop_delete_does_not_bump_the_version(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        version = table.table.version
        affected = table.delete(lambda row: False, at=d(2, 1))
        assert affected == 0
        assert table.table.version == version

    def test_update_coalesces_to_one_change_event(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        events = []
        table.table.add_delta_listener(
            lambda name, version, delta: events.append(version)
        )
        affected = table.update(
            lambda row: row.values[0] == 500,
            (500, until_now(d(1, 25))),
            at=d(3, 1),
        )
        assert affected == 1
        assert events == [table.table.version]

    def test_delete_keeps_duplicates_and_names_only_the_capped_rows(self):
        table = _table()
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))
        table.insert((500, until_now(d(1, 25))), at=d(1, 26))  # held twice
        table.insert((501, until_now(d(1, 27))), at=d(1, 27))
        deltas = []
        table.table.add_delta_listener(
            lambda name, version, delta: deltas.append(delta)
        )
        affected = table.delete(lambda row: row.values[0] == 501, at=d(2, 1))
        assert affected == 1
        assert len(table.table) == 3
        (delta,) = deltas
        assert [row.values[0] for row in delta.deleted] == [501]
        assert [row.values[0] for row in delta.inserted] == [501]
        assert sorted(row.values[0] for row in table.table.rows()) == [
            500, 500, 501
        ]
