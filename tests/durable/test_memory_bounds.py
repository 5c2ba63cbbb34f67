"""Deterministic memory bounds of the durable path (tracemalloc, no clock).

A table's rows exist once — in its heap — and the durable layer streams
that one copy: writing a checkpoint, loading one and logging a bulk
insert hold a bounded chunk of *encoded* rows, never the whole encoded
table (let alone two or three copies of it); replaying a one-row delta
touches one row, not the table.  ``H`` below is the size of the table's
heap file.  The bounds fail on any whole-table copy, so they double as
the O(|Δ|) tests of ``Table.apply_delta``.

Also here, because it is the same question asked of decoding: a
reopened database shares what the one that wrote it shared (the trivial
reference time, ``now``, categories, dates) and is not larger.  And
time points are shared everywhere: the live database and the reopened
one each hold one object per point value.
"""

import gc
import shutil
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core.interval import OngoingInterval, until_now
from repro.core.intervalset import UNIVERSAL_SET
from repro.core.timepoint import OngoingTimePoint
from repro.datasets import generate_mozilla
from repro.durable.snapshot import load_latest_checkpoint, write_checkpoint
from repro.durable.wal import KIND_BATCH, WalPosition, WalRecord, WriteAheadLog
from repro.engine.database import Database, Table
from repro.engine.delta import Delta
from repro.engine.modifications import current_update
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

from tests.conftest import empty_intern_table

_WIDE = Schema.of("K", "KIND", "TEXT", ("VT", "interval"))
_KINDS = ("defect", "enhancement", "task")


def _wide_rows(count=5000):
    """~4.5 MB of encoded rows: free text, a category, 365 distinct dates."""
    return [
        (key, _KINDS[key % 3], f"{key:06d} " + "lorem ipsum " * 72, until_now(key % 365))
        for key in range(count)
    ]


@contextmanager
def _transient(*, retained=False):
    """Measure the block's peak of traced memory above its start (or, with
    *retained*, above what is still allocated at its end)."""
    gc.collect()
    tracemalloc.start()
    try:
        measured = SimpleNamespace(extra=0)
        before = tracemalloc.get_traced_memory()[0]
        yield measured
        after, peak = tracemalloc.get_traced_memory()
        measured.extra = peak - (max(before, after) if retained else before)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A database of one wide table, its checkpoint and the heap size H."""
    root = tmp_path_factory.mktemp("bounds")
    db = Database("bounds")
    db.create_table("W", _WIDE).insert_many(_wide_rows())
    with _transient() as writing:
        path = write_checkpoint(
            root, database=db, wal_position=WalPosition(1, 0), subscriptions=[], tick=1
        )
    heap_bytes = (path / "0000.heap").stat().st_size
    assert heap_bytes >= 4 * 1024 * 1024
    return root, db, heap_bytes, writing.extra


def test_writing_a_checkpoint_holds_a_chunk_not_the_heap(checkpointed):
    _, _, heap_bytes, transient = checkpointed
    assert transient < 0.25 * heap_bytes


def test_loading_a_checkpoint_holds_a_chunk_beside_the_rows(checkpointed):
    root, db, heap_bytes, _ = checkpointed
    with _transient(retained=True) as loading:
        loaded = load_latest_checkpoint(root)
    assert sorted(loaded.tables["W"].rows, key=lambda row: row.values[0]) == sorted(
        db.table("W").rows(), key=lambda row: row.values[0]
    )
    assert loading.extra < 0.25 * heap_bytes


def test_logging_a_bulk_insert_encodes_the_frame_once(checkpointed, tmp_path):
    _, db, heap_bytes, _ = checkpointed
    rows = tuple(db.table("W").rows())
    log = WriteAheadLog(tmp_path / "wal", fsync="off", segment_bytes=1 << 30)
    with _transient() as appending:
        log.append(WalRecord(KIND_BATCH, "W", 1, 0.0, inserted=rows))
    assert log.bytes_written > heap_bytes  # one frame holds the whole register
    log.close()
    assert appending.extra < 1.25 * heap_bytes


def test_applying_a_one_row_delta_touches_one_row():
    table = Table("T", Schema.of("K", ("VT", "interval")))
    table.insert_many((key, until_now(key % 100)) for key in range(50_000))
    old = OngoingTuple((7, until_now(7)))
    new = OngoingTuple((50_000, until_now(1)))
    for delta in (
        Delta.insert((new,)),
        Delta.update((old,), (OngoingTuple((7, until_now(8))),)),
        Delta.delete((new,)),
    ):
        with _transient() as applying:
            table.apply_delta(delta)
        assert applying.extra < 64 * 1024
    assert len(table) == 50_000


def test_a_reopened_database_shares_what_the_writer_shared(tmp_path):
    def tables(build):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            db = build()
            gc.collect()
            return db, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def written():
        dataset = generate_mozilla(1500, seed=7)
        db = Database.open(tmp_path / "db", fsync="off")
        db.register("B", dataset.bug_info)
        db.register("A", dataset.bug_assignment)
        db.register("S", dataset.bug_severity)
        return db

    db, original_bytes = tables(written)
    db.checkpoint()
    expected = {name: sorted(map(repr, table.rows())) for name, table in db.tables().items()}
    db.close()
    del db
    reopened, reopened_bytes = tables(lambda: Database.open(tmp_path / "db", fsync="off"))
    for name, table in reopened.tables().items():
        assert sorted(map(repr, table.rows())) == expected[name]
        assert all(row.rt is UNIVERSAL_SET for row in table.rows())
    reopened.close()
    assert reopened_bytes <= 1.1 * original_bytes


def _points(db):
    """Every time point held by the rows of *db*'s tables."""
    points = []
    for table in db.tables().values():
        for row in table.rows():
            for value in row.values:
                if isinstance(value, OngoingTimePoint):
                    points.append(value)
                elif isinstance(value, OngoingInterval):
                    points += (value.start, value.end)
    return points


def test_every_time_point_value_is_one_object(tmp_path):
    empty_intern_table()  # room for the whole set-up: no emptying mid-way
    dataset = generate_mozilla(1000)
    db = Database.open(tmp_path / "db", fsync="off")
    db.register("B", dataset.bug_info)
    db.register("A", dataset.bug_assignment)
    db.register("S", dataset.bug_severity)
    severity = db.table("S")
    for key, at in ((3, 4000), (5, 4001), (3, 4002)):
        matches = lambda row, key=key: row.values[0] == key  # noqa: E731
        assert current_update(severity, matches, (key, "major"), at=at)
    db.checkpoint()
    shutil.copytree(tmp_path / "db", tmp_path / "copy")
    reopened = Database.open(tmp_path / "copy", fsync="off")
    try:
        for database in (db, reopened):
            points = _points(database)
            assert len(points) > 2 * len(set(points))
            assert len({id(point) for point in points}) == len(set(points))
    finally:
        reopened.close()
        db.close()
