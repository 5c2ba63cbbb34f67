"""Property tests: the base heap is a multiset, mutated in place.

:class:`~repro.engine.database.Table` keeps its rows once, in a counted
map.  For random interleavings of every write path — plain and bulk
inserts, ``delete_where``, the Torp-style current insert / update /
delete (duplicate rows and same-``at`` insert-and-terminate included)
and nested ``batch()`` blocks — the table must agree, step for step,
with a :class:`collections.Counter` that re-states each modification
independently:

* ``len`` and the multiset of ``rows()``;
* the emitted delta — its rows, and its set-level part
  (``Delta.transitions()``) against the model's key set before and after;
* the write-ahead log: one ``BATCH`` record per emitted delta, carrying
  exactly the model's rows;
* a second table fed only the recorded deltas through ``apply_delta``,
  and the database reopened from that log.
"""

import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.operations import ongoing_min
from repro.core.timepoint import NOW, fixed
from repro.durable.wal import KIND_BATCH, WalRecord, WriteAheadLog, encode_record
from repro.engine.database import Database, Table
from repro.engine.delta import Delta, NonIncrementalDelta
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)
from repro.engine.storage import pack_tagged_tuple
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

_SCHEMA = Schema.of("K", ("VT", "interval"))

# A tiny domain: duplicates, re-inserted rows and same-``at`` pairs are
# the common case, not the lucky one.
_KEYS = st.integers(min_value=0, max_value=2)
_TIMES = st.integers(min_value=0, max_value=3)
_INTERVALS = st.one_of(
    _TIMES.map(until_now),
    st.tuples(_TIMES, _TIMES).map(
        lambda pair: fixed_interval(min(pair), max(pair) + 1)
    ),
)
_ROWS = st.tuples(_KEYS, _INTERVALS)

_SIMPLE = st.one_of(
    st.tuples(st.just("insert"), _ROWS),
    st.tuples(st.just("insert_many"), st.lists(_ROWS, max_size=3)),
    st.tuples(st.just("delete_where"), _KEYS),
    st.tuples(st.just("current_insert"), _KEYS, _TIMES),
    st.tuples(st.just("current_update"), _KEYS, _KEYS, _TIMES),
    st.tuples(st.just("current_delete"), _KEYS, _TIMES),
)
_OPS = st.lists(
    st.recursive(
        _SIMPLE,
        lambda inner: st.tuples(st.just("batch"), st.lists(inner, max_size=3)),
        max_leaves=6,
    ),
    min_size=1,
    max_size=8,
)


def _apply(table: Table, op) -> None:
    kind = op[0]
    if kind == "insert":
        table.insert(*op[1])
    elif kind == "insert_many":
        table.insert_many(op[1])
    elif kind == "delete_where":
        table.delete_where(lambda row: row.values[0] != op[1])
    elif kind == "current_insert":
        current_insert(table, (op[1],), at=op[2])
    elif kind == "current_update":
        current_update(table, lambda row: row.values[0] == op[1], (op[2],), at=op[3])
    elif kind == "current_delete":
        current_delete(table, lambda row: row.values[0] == op[1], at=op[2])
    else:
        with table.batch():
            for inner in op[1]:
                _apply(table, inner)


def _model(model: Counter, op):
    """The same modification on a Counter; returns (inserted, deleted)."""

    def add(rows):
        model.update(rows)
        return list(rows), []

    def remove(rows):
        model.subtract(rows)
        for row in rows:
            if not model[row]:
                del model[row]
        return [], list(rows)

    def terminate(key, at):
        old, new = [], []
        for row in model.elements():
            valid = row.values[1]
            end = ongoing_min(valid.end, fixed(at))
            if row.values[0] == key and end != valid.end:
                old.append(row)
                new.append(
                    OngoingTuple((key, OngoingInterval(valid.start, end)), row.rt)
                )
        remove(old)
        add(new)
        return new, old

    def opened(key, at):
        return OngoingTuple((key, OngoingInterval(fixed(at), NOW)))

    kind = op[0]
    if kind == "insert":
        return add([OngoingTuple(op[1])])
    if kind == "insert_many":
        return add([OngoingTuple(row) for row in op[1]])
    if kind == "delete_where":
        return remove([row for row in model.elements() if row.values[0] == op[1]])
    if kind == "current_insert":
        return add([opened(op[1], op[2])])
    if kind == "current_delete":
        return terminate(op[1], op[2])
    if kind == "current_update":
        new, old = terminate(op[1], op[3])
        if old:
            new += add([opened(op[2], op[3])])[0]
        return new, old
    inserted, deleted = [], []
    for inner in op[1]:
        more_in, more_out = _model(model, inner)
        inserted += more_in
        deleted += more_out
    return inserted, deleted


def _packed(rows):
    return sorted(pack_tagged_tuple(row) for row in rows)


def _set_change(before, after):
    change = {row: 1 for row in after - before}
    change.update({row: -1 for row in before - after})
    return change


@given(_OPS)
@settings(max_examples=50)
def test_heap_matches_the_multiset_model(ops):
    with tempfile.TemporaryDirectory() as root:
        db = Database.open(root, fsync="off")
        table = db.create_table("T", _SCHEMA)
        emitted = []
        table.add_delta_listener(lambda name, version, delta: emitted.append(delta))
        model: Counter = Counter()
        expected = []  # per emitted delta: (inserted, deleted) of the model
        for op in ops:
            keys_before = set(model)
            version_before, events_before = table.version, len(emitted)
            inserted, deleted = _model(model, op)
            _apply(table, op)
            assert len(table) == sum(model.values()) == len(table.rows())
            assert Counter(table.rows()) == model
            assert set(table.as_relation().tuples) == set(model)
            if not inserted and not deleted:
                assert len(emitted) == events_before  # a no-op is silent
                assert table.version == version_before
                continue
            assert len(emitted) == events_before + 1
            assert table.version == version_before + 1
            delta = emitted[-1]
            assert _packed(delta.inserted) == _packed(inserted)
            assert _packed(delta.deleted) == _packed(deleted)
            net = {row: w for row, w in delta.transitions().items() if w}
            assert net == _set_change(keys_before, set(model))
            expected.append((inserted, deleted))
        db.close()

        # The log holds one BATCH record per event, with the model's rows.
        log = WriteAheadLog(f"{root}/wal", fsync="off")
        records = [r for _, r in log.records() if r.kind == KIND_BATCH]
        log.close()
        assert len(records) == len(expected)
        for record, (inserted, deleted) in zip(records, expected):
            assert _packed(record.inserted) == _packed(inserted)
            assert _packed(record.deleted) == _packed(deleted)
            assert len(encode_record(record)) == len(
                encode_record(
                    WalRecord(KIND_BATCH, "T", record.tick, record.at,
                              inserted=inserted, deleted=deleted)
                )
            )  # fmt: skip

        # Replaying the recorded deltas reproduces the table …
        replica = Table("T", _SCHEMA)
        replayed = []
        replica.add_delta_listener(lambda name, version, delta: replayed.append(delta))
        for delta in emitted:
            replica.apply_delta(Delta(delta.inserted, delta.deleted))
        assert Counter(replica.rows()) == model
        assert len(replica) == len(table)
        for original, again in zip(emitted, replayed):
            assert again.inserted == original.inserted
            assert again.deleted == original.deleted
            assert {r: w for r, w in again.transitions().items() if w} == {
                r: w for r, w in original.transitions().items() if w
            }
        # … and so does reopening the directory.
        reopened = Database.open(root, fsync="off")
        assert Counter(reopened.table("T").rows()) == model
        reopened.close()


@given(_OPS, _ROWS, st.integers(min_value=1, max_value=3))
@settings(max_examples=50)
def test_deleting_an_absent_row_leaves_the_heap_untouched(ops, values, copies):
    table = Table("T", _SCHEMA)
    for op in ops:
        _apply(table, op)
    ghost = OngoingTuple(values)
    held = Counter(table.rows())
    order = list(table.rows())
    version = table.version
    # One copy more than the table holds, beside a row it could insert.
    delta = Delta(
        inserted=(OngoingTuple((9, until_now(0))),),
        deleted=(ghost,) * (held[ghost] + copies),
    )
    with pytest.raises(NonIncrementalDelta, match="absent"):
        table.apply_delta(delta)
    assert list(table.rows()) == order
    assert Counter(table.rows()) == held
    assert table.version == version
