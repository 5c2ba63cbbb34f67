"""Crash recovery: the durable layer of a database, and ``open_database``.

:class:`Durability` is what makes a :class:`~repro.engine.database.
Database` durable: it registers as a catalog-wide delta listener, so
every committed modification batch is appended to the
:class:`~repro.durable.wal.WriteAheadLog` *inside* the table's write lock
— before the commit is observable to anyone else.  Every delta names its
rows (a ``replace_all`` commits its multiset difference) and becomes a
``BATCH`` record; a dropped table — the hook's ``None`` — becomes a
``DROP`` record; ``create_table`` calls :meth:`Durability.log_create`
explicitly (DDL fires no delta).  ``SNAPSHOT`` records are no longer
written; one in an older log replays through ``replace_all``.

:func:`open_database` is the reopen path:

1. load the latest checkpoint (tables, versions, commit tick,
   subscription manifest) and restore the commit-tick counter, so
   replayed modifications claim the same ticks they did originally; the
   WAL must reach back to where replay starts (the checkpoint's segment,
   or segment 1 without one), else the open raises
   :class:`~repro.errors.DurabilityError` — a checkpoint that did not
   load cannot stand in for the segments it pruned;
2. if ``session=`` is given, create the live session and
   :meth:`~repro.live.manager.SubscriptionManager.resume` the
   checkpointed subscriptions — each re-subscribes by statement (or by
   its plan, decoded from data: :func:`~repro.durable.snapshot.
   decode_plan`), re-evaluates at the *checkpoint* state (warming the
   per-operator delta state), and re-enqueues its undelivered
   notification exactly once;
3. replay the WAL records at/after the checkpoint position as ordinary
   table modifications — with a live session attached these accumulate
   as typed deltas in the warm maintainers;
4. flush once: **recovery is just a batched flush** through the existing
   :class:`~repro.engine.delta.DeltaEvaluator` state, so maintained
   results come back without per-record full re-evaluation.

During steps 1–3 WAL re-appending is suppressed (replay must not grow
the log); everything after :func:`open_database` returns is logged
normally.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.durable import faults
from repro.durable.snapshot import (
    LoadedCheckpoint,
    capture_subscriptions,
    load_latest_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.durable.wal import (
    KIND_BATCH,
    KIND_CREATE,
    KIND_DROP,
    KIND_SNAPSHOT,
    WalPosition,
    WalRecord,
    WriteAheadLog,
)
from repro.engine.database import Database
from repro.engine.delta import Delta
from repro.errors import DurabilityError
from repro.relational.schema import Attribute, AttributeKind, Schema

__all__ = [
    "Durability",
    "RecoveryReport",
    "open_database",
    "DEFAULT_SEGMENT_BYTES",
]

logger = logging.getLogger("repro.durable")

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


class RecoveryReport(NamedTuple):
    """What one :func:`open_database` call did."""

    checkpoint_tick: int
    replayed_records: int
    replayed_batches: int
    resumed_subscriptions: int
    reenqueued_notifications: int
    truncated_bytes: int
    seconds: float


class Durability:
    """The WAL + checkpoint machinery attached to one database."""

    def __init__(
        self,
        database: Database,
        root,
        *,
        fsync: str = "batch",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync_every: int = 64,
    ) -> None:
        self.database = database
        self.root = Path(root)
        self.wal = WriteAheadLog(
            self.root / "wal",
            fsync=fsync,
            segment_bytes=segment_bytes,
            sync_every=sync_every,
        )
        #: While True (recovery in progress), committed deltas are NOT
        #: re-appended to the WAL — they are the WAL.  Other listeners
        #: (live sessions) still fire normally.
        self._suppress = True
        #: Subscription manifest of the loaded checkpoint; consumed by
        #: :meth:`~repro.live.manager.SubscriptionManager.resume` so a
        #: double resume cannot re-enqueue pending notifications twice.
        self.recovered_manifest: List[Dict[str, object]] = []
        self.last_checkpoint_tick = 0
        self.checkpoints = 0
        self.replayed_records = 0
        self.replayed_batches = 0
        self.resumed_subscriptions = 0
        self.reenqueued_notifications = 0
        self.tick_mismatches = 0
        self.last_recovery: Optional[RecoveryReport] = None
        self._highest_tick = 0
        self._appends_at_checkpoint = 0
        self._closed = False
        database.add_delta_listener(self._on_delta)

    # -- write path (delta listener, runs under the write lock) --------

    def _on_delta(
        self, name: str, version: int, delta: Optional[Delta]
    ) -> None:
        if self._suppress:
            return
        stamp = self.database.last_commit
        tick = stamp.tick if stamp is not None else 0
        at = stamp.at if stamp is not None else 0.0
        if tick > self._highest_tick:
            self._highest_tick = tick
        if delta is None:
            record = WalRecord(KIND_DROP, name, tick, at)
        else:
            record = WalRecord(
                KIND_BATCH,
                name,
                tick,
                at,
                inserted=delta.inserted,
                deleted=delta.deleted,
            )
        self.wal.append(record)

    def log_create(self, table) -> None:
        """Log a ``create_table`` (called by the database's DDL path)."""
        if self._suppress:
            return
        spec = tuple((a.name, a.kind.value) for a in table.schema)
        self.wal.append(WalRecord(KIND_CREATE, table.name, 0, 0.0, schema_spec=spec))

    # -- checkpointing --------------------------------------------------

    def checkpoint(self) -> Path:
        """Write one atomic checkpoint and prune obsolete WAL segments."""
        if self._closed:
            raise DurabilityError("durable layer is closed")
        database = self.database
        self.wal.sync()
        with database.lock:
            position = self.wal.position()
            session = database._live_session
            subscriptions = (
                capture_subscriptions(session)
                if session is not None and not session.closed
                else []
            )
            tick = self._highest_tick
            stamp = database.last_commit
            if stamp is not None and stamp.tick > tick:
                tick = stamp.tick
            path = write_checkpoint(
                self.root,
                database=database,
                wal_position=position,
                subscriptions=subscriptions,
                tick=tick,
            )
        self.checkpoints += 1
        self.last_checkpoint_tick = tick
        self._highest_tick = tick
        self._appends_at_checkpoint = self.wal.appends
        prune_checkpoints(self.root, keep=1)
        self.wal.prune_segments(position.segment)
        return path

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop logging and close the WAL.  The layer lets go of its
        database, which holds it, so neither keeps the other alive."""
        if self._closed:
            return
        self._closed = True
        self.database.remove_delta_listener(self._on_delta)
        self.database = None
        self.wal.close()

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, object]:
        data = {
            "checkpoints": self.checkpoints,
            "last_checkpoint_tick": self.last_checkpoint_tick,
            "replayed_records": self.replayed_records,
            "replayed_batches": self.replayed_batches,
            "resumed_subscriptions": self.resumed_subscriptions,
            "reenqueued_notifications": self.reenqueued_notifications,
            "tick_mismatches": self.tick_mismatches,
        }
        data.update({f"wal_{k}": v for k, v in self.wal.stats().items()})
        return data

    def health_snapshot(self) -> Dict[str, object]:
        """The ``/health`` view: fsync policy and how far disk trails."""
        wal = self.wal.stats()
        return {
            "fsync": wal["fsync"],
            "segments": wal["segments"],
            "appended_records": wal["appends"],
            "lag_records": wal["lag_records"],
            "lag_bytes": wal["lag_bytes"],
            "records_since_checkpoint": self.wal.appends
            - self._appends_at_checkpoint,
            "last_checkpoint_tick": self.last_checkpoint_tick,
        }

    def collect_samples(self):
        """Pull-time metrics (registered as a registry collector): the
        four counters something reads.  The WAL's lag and segments are
        ``/health``'s ``wal`` block, a resume's counts are
        ``last_recovery``'s report."""
        from repro.obs.registry import Sample

        wal = self.wal.stats()
        counter = lambda name, value, help: Sample(  # noqa: E731
            name, {}, float(value), "counter", help
        )
        return [
            counter("repro_wal_appends_total", wal["appends"],
                    "Records appended to the write-ahead log"),
            counter("repro_wal_fsyncs_total", wal["fsyncs"],
                    "fsync() calls issued by the write-ahead log"),
            counter("repro_checkpoints_total", self.checkpoints,
                    "Checkpoints written by this process"),
            counter("repro_recovery_replayed_records_total",
                    self.replayed_records,
                    "WAL records replayed during recovery"),
        ]


# ----------------------------------------------------------------------
# Reopen
# ----------------------------------------------------------------------


def _install_checkpoint(database: Database, loaded: LoadedCheckpoint) -> None:
    """Recreate tables at their checkpointed state (no listeners fire —
    loading is not a modification)."""
    for name, entry in loaded.tables.items():
        database.create_table(name, entry.schema).restore(
            entry.rows, entry.version
        )


def _schema_from_spec(spec) -> Schema:
    return Schema([Attribute(name, AttributeKind(kind)) for name, kind in spec])


def _replay(database: Database, durability: Durability,
            start: Optional[WalPosition]) -> int:
    replayed = 0
    for _position, record in durability.wal.records(start):
        faults.fire("recovery.mid_replay")
        expected_tick = None
        if record.kind == KIND_CREATE:
            if record.table not in database.tables():
                database.create_table(record.table, _schema_from_spec(record.schema_spec))
        elif record.kind == KIND_DROP:
            if record.table in database.tables():
                database.drop_table(record.table)
            expected_tick = record.tick
        elif record.kind == KIND_BATCH:
            database.table(record.table).apply_delta(
                Delta(record.inserted, record.deleted)
            )
            expected_tick = record.tick
        elif record.kind == KIND_SNAPSHOT:
            database.table(record.table).replace_all(record.rows)
            expected_tick = record.tick
        else:  # pragma: no cover — decode_record already rejects these
            raise DurabilityError(f"unknown WAL record kind {record.kind}")
        if expected_tick is not None:
            claimed = database.last_commit.tick if database.last_commit else 0
            if claimed != expected_tick:
                # Soft check: replay stays correct (deltas are by value),
                # but the tick sequence diverged from the recording.
                durability.tick_mismatches += 1
        if record.tick > durability._highest_tick:
            durability._highest_tick = record.tick
        durability.replayed_records += 1
        if record.kind in (KIND_BATCH, KIND_SNAPSHOT):
            durability.replayed_batches += 1
        replayed += 1
    return replayed


def open_database(
    path,
    *,
    name: Optional[str] = None,
    fsync: str = "batch",
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    sync_every: int = 64,
    session: Optional[Dict[str, object]] = None,
    on_refresh=None,
) -> Database:
    """Open (or create) the durable database rooted at directory *path*.

    With ``session=None`` the reopen is plain: checkpoint tables are
    loaded and the WAL suffix is replayed directly into them.  With
    ``session=`` a kwargs dict (``{}`` for defaults — forwarded to
    :meth:`~repro.engine.database.Database.live_session`), the
    checkpointed subscriptions are resumed *before* the replay, so the
    suffix propagates incrementally through their warm operator state
    and one final flush completes recovery; *on_refresh* (a callable or
    a ``{subscription_name: callable}`` mapping) re-attaches listeners.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    loaded = load_latest_checkpoint(root)
    # The database name must survive a reopen even before the first
    # checkpoint exists, so it lives in its own tiny metadata file.
    meta_path = root / "database.json"
    if name is None:
        if loaded is not None:
            name = str(loaded.manifest["database"])
        elif meta_path.is_file():
            try:
                name = str(json.loads(meta_path.read_text())["name"])
            except (ValueError, KeyError, OSError):
                name = "ongoing"
        else:
            name = "ongoing"
    if not meta_path.is_file():
        meta_path.write_text(json.dumps({"name": name}))
    database = Database(name)
    durability = Durability(
        database,
        root,
        fsync=fsync,
        segment_bytes=segment_bytes,
        sync_every=sync_every,
    )
    database._durability = durability
    live = None
    try:
        start_position: Optional[WalPosition] = None
        if loaded is not None:
            _install_checkpoint(database, loaded)
            checkpoint_tick = int(loaded.manifest["tick"])
            durability.last_checkpoint_tick = checkpoint_tick
            durability._highest_tick = checkpoint_tick
            # Replayed modifications re-claim the ticks they claimed
            # originally, so stamps in warm state match the recording.
            database._restore_commit_ticks(checkpoint_tick)
            durability.recovered_manifest = list(
                loaded.manifest.get("subscriptions", [])
            )
            segment, offset = loaded.manifest["wal_position"]
            start_position = WalPosition(int(segment), int(offset))
        replay_from = start_position.segment if start_position else 1
        first = durability.wal.segments()[0]
        if first > replay_from:
            source = f"checkpoint {loaded.path.name}" if loaded else "no checkpoint"
            raise DurabilityError(
                f"{root}: replay starts at WAL segment {replay_from} "
                f"({source}), but the WAL begins at segment {first}: "
                f"segments {replay_from}-{first - 1} are missing"
            )
        if session is not None:
            live = database.live_session(**dict(session))
            live.resume(on_refresh=on_refresh)
        _replay(database, durability, start_position)
        if live is not None:
            live.flush()
        # The next fresh commit must not reuse a recorded or replayed tick.
        stamp = database.last_commit
        claimed = stamp.tick if stamp is not None else 0
        database._restore_commit_ticks(max(durability._highest_tick, claimed))
        durability._appends_at_checkpoint = durability.wal.appends
        durability._suppress = False
    except BaseException:
        # A failed open releases what it opened — the WAL file, and a
        # resumed session with its delivery workers — before the error
        # propagates, and notifies nobody: the resumed subscriptions
        # leave before the close's final flush could report a replayed
        # prefix (or drain a re-enqueued notification) that the retry
        # will report again.  Nothing is logged while replay is suppressed.
        if live is not None:
            for subscription in live.subscriptions:
                subscription.close()
        database.close()
        raise
    durability.last_recovery = RecoveryReport(
        checkpoint_tick=durability.last_checkpoint_tick,
        replayed_records=durability.replayed_records,
        replayed_batches=durability.replayed_batches,
        resumed_subscriptions=durability.resumed_subscriptions,
        reenqueued_notifications=durability.reenqueued_notifications,
        truncated_bytes=durability.wal.truncated_bytes,
        seconds=time.perf_counter() - started,
    )
    if durability.tick_mismatches:
        logger.warning(
            "recovery of %s saw %d tick mismatches between the WAL and "
            "the replayed commit sequence",
            root,
            durability.tick_mismatches,
        )
    return database
