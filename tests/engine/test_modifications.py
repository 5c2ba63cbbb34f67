"""Unit tests for Torp-style temporal modifications."""

import pytest

from repro.core.interval import OngoingInterval
from repro.core.timeline import mmdd
from repro.core.timepoint import NOW, fixed, limited
from repro.engine.database import Database
from repro.engine.modifications import current_delete, current_insert, current_update
from repro.errors import QueryError
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _table():
    db = Database("mods")
    return db.create_table("B", Schema.of("BID", "C", ("VT", "interval")))


class TestCurrentInsert:
    def test_inserts_open_ended_tuple(self):
        table = _table()
        current_insert(table, (500, "Spam filter"), at=d(1, 25))
        (row,) = table.as_relation().tuples
        assert row.values[2] == OngoingInterval(fixed(d(1, 25)), NOW)

    def test_respects_vt_position(self):
        db = Database("mods2")
        table = db.create_table("X", Schema.of(("VT", "interval"), "K"))
        current_insert(table, (7,), at=d(2, 2))
        (row,) = table.as_relation().tuples
        assert row.values[1] == 7
        assert row.values[0].start == fixed(d(2, 2))

    def test_wrong_arity_rejected(self):
        table = _table()
        with pytest.raises(QueryError, match="non-VT values"):
            current_insert(table, (500,), at=d(1, 25))

    def test_missing_interval_attribute_rejected(self):
        from repro.errors import ReproError

        db = Database("mods3")
        table = db.create_table("X", Schema.of("K"))
        with pytest.raises(ReproError):
            current_insert(table, (), at=0)


class TestCurrentDelete:
    def test_open_tuple_gets_limited_end(self):
        """Deleting [a, now) at td yields [a, +td) — Torp's semantics.

        Before td the tuple still instantiates as current (it *was* current
        then); from td on it instantiates to [a, td).
        """
        table = _table()
        current_insert(table, (500, "Spam filter"), at=d(1, 25))
        modified = current_delete(
            table, lambda row: row.values[0] == 500, at=d(9, 10)
        )
        assert modified == 1
        (row,) = table.as_relation().tuples
        valid_time = row.values[2]
        assert valid_time.end == limited(d(9, 10))
        # before the deletion: still ends at the reference time
        assert valid_time.instantiate(d(5, 1)) == (d(1, 25), d(5, 1))
        # after the deletion: frozen at the deletion time
        assert valid_time.instantiate(d(12, 1)) == (d(1, 25), d(9, 10))

    def test_already_closed_tuple_untouched(self):
        table = _table()
        table.insert(500, "X", OngoingInterval(fixed(d(1, 1)), fixed(d(2, 1))))
        modified = current_delete(table, lambda row: True, at=d(9, 10))
        assert modified == 0

    def test_delete_after_closed_interval_is_a_noop(self):
        """Deleting ``[s, e)`` at ``t >= e`` changes nothing — not even the
        table version, so derived results are not invalidated spuriously."""
        table = _table()
        table.insert(500, "X", OngoingInterval(fixed(d(1, 1)), fixed(d(2, 1))))
        version = table.version
        modified = current_delete(table, lambda row: True, at=d(2, 1))  # t == e
        assert modified == 0
        modified = current_delete(table, lambda row: True, at=d(9, 10))  # t > e
        assert modified == 0
        assert table.version == version
        (row,) = table.as_relation().tuples
        assert row.values[2] == OngoingInterval(fixed(d(1, 1)), fixed(d(2, 1)))

    def test_non_matching_tuples_untouched(self):
        table = _table()
        current_insert(table, (500, "X"), at=d(1, 25))
        current_insert(table, (501, "Y"), at=d(2, 25))
        current_delete(table, lambda row: row.values[0] == 500, at=d(9, 10))
        by_bid = {row.values[0]: row.values[2] for row in table.as_relation()}
        assert by_bid[501].end == NOW


class TestCurrentUpdate:
    def test_update_is_delete_plus_insert(self):
        table = _table()
        current_insert(table, (500, "Spam filter"), at=d(1, 25))
        terminated = current_update(
            table,
            lambda row: row.values[0] == 500,
            (500, "Junk filter"),
            at=d(6, 1),
        )
        assert terminated == 1
        rows = sorted(table.as_relation().tuples, key=lambda r: r.values[1])
        assert rows[0].values[1] == "Junk filter"
        assert rows[0].values[2].start == fixed(d(6, 1))
        assert rows[1].values[2].end == limited(d(6, 1))

    def test_instantiations_remain_consistent(self):
        """At every rt the table shows exactly one current version.

        A tuple valid ``[a, now)`` instantiates to ``[a, rt)`` — the end is
        exclusive, so "current at rt" means the interval covers ``rt - 1``.
        """
        table = _table()
        current_insert(table, (500, "v1"), at=d(1, 25))
        current_update(table, lambda row: row.values[0] == 500, (500, "v2"), at=d(6, 1))
        relation = table.as_relation()
        for rt in (d(3, 1), d(6, 1), d(9, 1)):
            current = [
                row
                for row in relation.instantiate(rt)
                if row[2][0] <= rt - 1 < row[2][1]
            ]
            assert len(current) == 1, rt

    def test_update_matching_nothing_is_a_noop(self):
        """Like SQL UPDATE: zero matched tuples → nothing inserted, no
        version bump, no change event."""
        table = _table()
        current_insert(table, (500, "v1"), at=d(1, 25))
        version = table.version
        terminated = current_update(
            table, lambda row: row.values[0] == 999, (999, "ghost"), at=d(6, 1)
        )
        assert terminated == 0
        assert len(table) == 1
        assert table.version == version


class TestVersionBumps:
    """Every modification path bumps the table version exactly once."""

    def test_insert_bumps_once(self):
        table = _table()
        assert table.version == 0
        table.insert(500, "X", OngoingInterval(fixed(d(1, 1)), fixed(d(2, 1))))
        assert table.version == 1

    def test_insert_many_bumps_once(self):
        table = _table()
        vt = OngoingInterval(fixed(d(1, 1)), fixed(d(2, 1)))
        table.insert_many([(500, "X", vt), (501, "Y", vt), (502, "Z", vt)])
        assert table.version == 1
        table.insert_many([])
        assert table.version == 1

    def test_current_insert_bumps_once(self):
        table = _table()
        current_insert(table, (500, "X"), at=d(1, 25))
        assert table.version == 1

    def test_current_delete_bumps_once(self):
        table = _table()
        current_insert(table, (500, "X"), at=d(1, 25))
        current_delete(table, lambda row: True, at=d(9, 10))
        assert table.version == 2

    def test_current_update_bumps_once_not_twice(self):
        """The delete + insert pair of a current update is one logical
        modification — observers must see a single change event."""
        table = _table()
        current_insert(table, (500, "v1"), at=d(1, 25))
        events = []
        table.add_delta_listener(
            lambda name, version, delta: events.append((version, delta))
        )
        terminated = current_update(
            table, lambda row: row.values[0] == 500, (500, "v2"), at=d(6, 1)
        )
        assert terminated == 1
        assert table.version == 2
        [(version, delta)] = events
        assert version == 2
        assert (len(delta.deleted), len(delta.inserted)) == (1, 2)

    def test_delete_where_bumps_only_when_rows_removed(self):
        table = _table()
        current_insert(table, (500, "X"), at=d(1, 25))
        table.delete_where(lambda row: True)  # keeps everything
        assert table.version == 1
        table.delete_where(lambda row: False)  # removes everything
        assert table.version == 2
