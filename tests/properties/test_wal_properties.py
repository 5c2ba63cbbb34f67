"""Property tests: crash-at-any-point recovery is exact.

The durability contract (:mod:`repro.durable`): for any sequence of
modifications, killing the process at *any* byte offset of the
write-ahead log and recovering yields exactly the database state that
was live when the log last reached that offset — records apply
all-or-nothing, a torn trailing record is truncated, and nothing
before the tear is lost or reordered.

The test drives a random op sequence (plain inserts, predicate
deletes, and ``replace_all`` swaps, each committed as one ``BATCH``
record of the exact multiset difference) against a durable database,
snapshotting the packed table state and WAL offset after every op.
It then replays recovery from a copy of the log truncated at every
recorded boundary — plus a deliberately torn mid-record offset — and
compares byte-for-byte.  A shadow non-durable database applying the
same ops guards the other direction: WAL hooks must not perturb the
live execution path.
"""

import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.storage import pack_tuple
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

KEYS = st.integers(min_value=0, max_value=6)
TIMES = st.integers(min_value=1, max_value=50)

INSERT = st.tuples(st.just("insert"), KEYS, TIMES)
DELETE = st.tuples(st.just("delete"), KEYS, st.just(0))
SNAPSHOT = st.tuples(st.just("snapshot"), KEYS, TIMES)

OPS = st.lists(
    st.one_of(INSERT, INSERT, DELETE, SNAPSHOT), min_size=1, max_size=12
)

SCHEMA = Schema.of("K", ("VT", "interval"))


def _apply(table, op):
    kind, key, time = op
    if kind == "insert":
        table.insert(key, until_now(time))
    elif kind == "delete":
        table.delete_where(lambda row: row.values[0] != key)
    else:  # snapshot — replace the whole heap, logged as one record
        table.replace_all(
            [OngoingTuple((key + k, until_now(time + k))) for k in range(2)]
        )


def _packed(db):
    return sorted(pack_tuple(row) for row in db.table("R").rows())


def _recover_at(source_root, target_root, offset):
    """Copy the durable root with its WAL truncated at *offset*."""
    if target_root.exists():
        shutil.rmtree(target_root)
    shutil.copytree(source_root, target_root)
    segment = target_root / "wal" / "wal-00000001.log"
    with open(segment, "r+b") as handle:
        handle.truncate(offset)
    recovered = Database.open(target_root)
    try:
        return _packed(recovered)
    finally:
        recovered.close()


@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_recovery_at_every_record_boundary_is_exact(ops, tmp_path_factory):
    base = tmp_path_factory.mktemp("walprop")
    root = base / "db"
    db = Database.open(root, fsync="off")
    shadow = Database("shadow")
    db.create_table("R", SCHEMA)
    shadow.create_table("R", SCHEMA)

    wal = db._durability.wal
    boundaries = [(wal.position().offset, _packed(db))]
    for op in ops:
        _apply(db.table("R"), op)
        _apply(shadow.table("R"), op)
        boundaries.append((wal.position().offset, _packed(db)))

    # The WAL hook must not perturb the live execution path.
    assert _packed(db) == _packed(shadow)
    final_offset = boundaries[-1][0]
    db.close()
    shadow.close()

    target = base / "crashed"
    for offset, expected in boundaries:
        assert _recover_at(root, target, offset) == expected, (
            f"divergence at boundary offset {offset}"
        )

    # A torn final record (crash mid-write) truncates back to the last
    # complete boundary instead of surfacing a half-applied batch.
    last_start = boundaries[-2][0]
    if final_offset - last_start > 1:
        torn = last_start + (final_offset - last_start) // 2
        assert _recover_at(root, target, torn) == boundaries[-2][1]
