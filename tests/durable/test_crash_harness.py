"""The acceptance gate: kill -9 a writer mid-burst, reopen, compare.

A child process opens a durable database, attaches a live SQL
subscription whose delivery worker is deliberately stuck (so a
notification stays queued across the checkpoint), then inserts one row
per batch in a tight loop, acknowledging each committed batch on
stdout.  The parent SIGKILLs it between two acknowledgements, reopens
the directory, and asserts:

* the recovered table is an exact prefix of the child's inserts —
  every WAL record applied all-or-nothing, never a torn half-batch;
* under ``fsync="always"`` every acknowledged batch survived;
* the live subscription resumed with its pending notification
  re-enqueued exactly once and a result identical to re-evaluating
  the recovered table from scratch.
"""

import sys
import textwrap
from pathlib import Path

import pytest

from repro.durable import faults
from repro.engine.database import Database
from repro.engine.storage import pack_tuple

#: The checkout this file belongs to: the child runs its ``src/``.
ROOT = Path(__file__).resolve().parents[2]

CHILD = textwrap.dedent(
    """
    import sys
    import threading

    from repro.core.interval import until_now
    from repro.engine.database import Database

    path, fsync = sys.argv[1], sys.argv[2]
    db = Database.open(path, fsync=fsync, sync_every=1)
    table = db.create_table("R", __import__(
        "repro.relational.schema", fromlist=["Schema"]
    ).Schema.of("K", ("VT", "interval")))

    stuck = threading.Event()

    def listener(event):
        stuck.wait(timeout=120)  # block forever; keeps later items queued

    session = db.live_session(delivery_workers=1)
    session.subscribe_sql(
        "SELECT * FROM R",
        on_refresh=listener,
        name="crash-sub",
        backpressure="coalesce",
    )
    for key in (1, 2):
        table.insert(key, until_now(key + 10))
        session.flush()
    db.checkpoint()
    print("CKPT", flush=True)
    key = 2
    while True:
        key += 1
        table.insert(key, until_now(key + 10))
        session.flush()
        print(f"ACK {key}", flush=True)
    """
)


def _packed(rows):
    return sorted(pack_tuple(row) for row in rows)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("fsync", ["always", "batch", "off"])
def test_kill_nine_mid_burst_recovers_consistently(tmp_path, fsync):
    script = tmp_path / "writer.py"
    script.write_text(CHILD)
    root = tmp_path / "db"
    result = faults.run_until_marker_then_kill(
        [sys.executable, str(script), str(root), fsync],
        marker="ACK",
        count=30,
        timeout=90.0,
        env={"PYTHONPATH": str(ROOT / "src")},
        cwd=str(ROOT),
    )
    assert result.killed, f"child exited on its own: {result.lines[-5:]}"
    assert result.returncode == -9
    assert result.markers_seen >= 30
    acked = max(
        int(line.split()[1]) for line in result.lines if line.startswith("ACK")
    )

    received = []
    db = Database.open(
        root,
        fsync=fsync,
        session={"delivery_workers": 0},
        on_refresh={"crash-sub": received.append},
    )
    try:
        keys = sorted(row.values[0] for row in db.table("R").rows())
        # All-or-nothing per record: the survivors are a dense prefix.
        assert keys == list(range(1, len(keys) + 1))
        # The checkpoint published before any ACK; batches 1-2 are durable
        # under every policy.
        assert len(keys) >= 2
        if fsync == "always":
            # Strictest policy: an acknowledged batch can never be lost.
            assert len(keys) >= acked
        report = db._durability.last_recovery
        assert report.resumed_subscriptions == 1
        # The stuck worker left exactly one coalesced notification queued
        # at checkpoint time; resume re-enqueues it exactly once.  The
        # suffix-replay flush may add one more delivery.
        assert db._durability.reenqueued_notifications == 1
        assert 1 <= len(received) <= 2
        resumed = db._live_session.subscriptions
        assert [s.name for s in resumed] == ["crash-sub"]
        # Byte-identical to evaluating SELECT * FROM R from scratch.
        assert _packed(resumed[0].result.tuples) == _packed(
            db.table("R").rows()
        )
    finally:
        db.close()
