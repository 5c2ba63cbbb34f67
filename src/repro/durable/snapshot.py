"""Checkpoints: atomic on-disk snapshots of tables + live subscriptions.

A checkpoint is a directory ``checkpoints/checkpoint-<seq:08d>/`` holding
one CRC-guarded heap file per table (rows in the tagged storage layout)
and a ``MANIFEST.json`` that records

* the WAL position the snapshot is consistent with (recovery replays
  only the records at or after it),
* the commit tick the database had reached,
* every table's schema and row-store version, and
* every live subscription — by plan fingerprint, with the OSQL statement
  (or, for a subscription built from a plan object, the plan as data:
  :func:`encode_plan`), its delivery settings, and its **undelivered
  coalesced notification** captured at :class:`~repro.serve.queues.
  Mailbox` level so a restarted session can re-enqueue it exactly once.
  Both directions of that entry live here — :func:`capture_subscriptions`
  writes it, :func:`restore_subscription` reads it back — so no other
  module knows the manifest's keys.

The manifest is data only: nothing in it names code to run.  Format 1
stored a statement-less subscription's plan as serialized Python
objects; such an entry is refused by name when read, never loaded, and
the statement entries of either format still load.  Format 2 stores the
plan under ``plan``.

The directory is written under a ``.tmp-`` name, its files and then the
directory itself are fsynced, and it is published with one atomic
``os.rename`` followed by an fsync of the parent — a crash mid-checkpoint
leaves only an ignored temp directory, never a half checkpoint, and a
power loss leaves the previous checkpoint or this whole one.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import shutil
import struct
import zlib
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.durable import faults
from repro.durable.wal import fsync_directory
from repro.engine.database import CommitStamp
from repro.engine.delta import Delta
from repro.engine.plan import (
    Aggregate,
    Difference,
    Distinct,
    Join,
    PlanNode,
    Project,
    Scan,
    Select,
    SortLimit,
    Union,
)
from repro.engine.storage import (
    pack_tagged_tuple,
    pack_tagged_value,
    unpack_tagged_tuple,
    unpack_tagged_value,
)
from repro.errors import DurabilityError, ReproError
from repro.relational.predicates import (
    TRUE_PREDICATE,
    AllenPredicate,
    And,
    Column,
    Comparison,
    Expression,
    IntervalIntersection,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.relational.schema import Attribute, AttributeKind, Schema

__all__ = [
    "MANIFEST_NAME",
    "CHECKPOINT_FORMAT",
    "LoadedTable",
    "LoadedCheckpoint",
    "write_checkpoint",
    "load_latest_checkpoint",
    "capture_subscriptions",
    "encode_plan",
    "decode_plan",
    "serialize_notification",
    "prune_checkpoints",
]

logger = logging.getLogger("repro.durable")

MANIFEST_NAME = "MANIFEST.json"
CHECKPOINT_FORMAT = 2
#: Format 1 differs only in how a statement-less subscription's plan is kept.
_READABLE_FORMATS = (1, CHECKPOINT_FORMAT)
_HEAP_MAGIC = b"RHEAP\x01\x00\n"
_PREFIX = "checkpoint-"
_TMP_PREFIX = ".tmp-"


# ----------------------------------------------------------------------
# Heap files
# ----------------------------------------------------------------------


#: Encoded rows held at once while a heap file is written or read.
_CHUNK_BYTES = 1 << 16


def _write_heap(path: Path, rows) -> None:
    """Stream *rows* (sized, iterable) to a heap file, a chunk at a time."""
    crc = 0
    chunk = bytearray(struct.pack("<I", len(rows)))
    with open(path, "wb") as handle:
        handle.write(_HEAP_MAGIC)
        for row in rows:
            chunk += pack_tagged_tuple(row)
            if len(chunk) >= _CHUNK_BYTES:
                crc = zlib.crc32(chunk, crc)
                handle.write(chunk)
                del chunk[:]
        crc = zlib.crc32(chunk, crc)
        handle.write(chunk)
        handle.write(struct.pack("<I", crc))
        handle.flush()
        os.fsync(handle.fileno())


def _read_heap(path: Path, memo: Optional[dict] = None) -> Tuple:
    """The rows of a heap file, read a chunk at a time.

    Two passes, so that nothing is decoded from bytes the checksum does
    not vouch for: the first sums the body, the second decodes it.
    *memo* is :func:`~repro.engine.storage.unpack_tagged_value`'s.
    """
    body_bytes = path.stat().st_size - len(_HEAP_MAGIC) - 4
    with open(path, "rb") as handle:
        if handle.read(len(_HEAP_MAGIC)) != _HEAP_MAGIC or body_bytes < 4:
            raise DurabilityError(f"bad heap file {path.name}")
        crc = 0
        remaining = body_bytes
        while remaining:
            chunk = handle.read(min(remaining, _CHUNK_BYTES))
            if not chunk:
                raise DurabilityError(f"bad heap file {path.name}")
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
        if struct.pack("<I", crc) != handle.read(4):
            raise DurabilityError(f"heap checksum mismatch in {path.name}")
        handle.seek(len(_HEAP_MAGIC))
        (count,) = struct.unpack("<I", handle.read(4))
        rows = []
        buffer = b""
        offset = 0
        for _ in range(count):
            while True:
                try:
                    row, end = unpack_tagged_tuple(buffer, offset, memo)
                except (struct.error, UnicodeDecodeError):
                    end = None  # the chunk ends inside this row
                if end is not None and end <= len(buffer):
                    break
                more = handle.read(_CHUNK_BYTES)
                if not more:
                    raise DurabilityError(f"bad heap file {path.name}")
                buffer = buffer[offset:] + more
                offset = 0
            rows.append(row)
            offset = end
    return tuple(rows)


# ----------------------------------------------------------------------
# Plan encoding
# ----------------------------------------------------------------------


def encode_plan(node) -> list:
    """*node* — a plan, or a predicate or expression in one — as nested
    JSON lists: ``[tag, field, ...]`` per node of the nine plan classes
    and the nine predicate and expression classes, with each literal as
    base64 of :func:`~repro.engine.storage.pack_tagged_value`.  Raises
    :class:`DurabilityError` for a class outside that table or a value
    the tagged codec cannot store (a float, say)."""
    tag = type(node).__name__
    entry = _CODEC.get(tag)
    if entry is None or entry[0] is not type(node):
        raise DurabilityError(
            f"cannot encode {node!r}: {tag} is not a class of the "
            f"checkpoint's plan format"
        )
    return [tag, *entry[1](node)]


def _decode(encoded, base: type):
    """The node of class *base* that *encoded* describes."""
    tag = encoded[0] if isinstance(encoded, list) and encoded else None
    entry = _CODEC.get(tag) if isinstance(tag, str) else None
    if entry is None or not issubclass(entry[0], base):
        raise DurabilityError(
            f"expected a {base.__name__} encoding, got {str(encoded)[:80]}"
        )
    try:
        return entry[2](*encoded[1:])
    except DurabilityError:
        raise
    except (ReproError, TypeError, ValueError, struct.error) as exc:
        # A wrong arity or field type, bad base64, an unknown kind or
        # value tag, or a constructor's own check.
        raise DurabilityError(f"bad {tag} encoding {str(encoded)[:80]}: {exc}") from exc


def decode_plan(encoded) -> PlanNode:
    """The plan :func:`encode_plan` encoded, rebuilt through the public
    constructors so each of their checks runs; anything malformed raises
    :class:`DurabilityError`."""
    return _decode(encoded, PlanNode)


def _predicate(encoded) -> Predicate:
    return _decode(encoded, Predicate)


def _expression(encoded) -> Expression:
    return _decode(encoded, Expression)


def _literal(value: object) -> str:
    try:
        return base64.b64encode(pack_tagged_value(value)).decode("ascii")
    except ReproError as exc:
        raise DurabilityError(f"cannot encode literal {value!r}: {exc}") from exc


def _unliteral(text: str) -> Literal:
    raw = base64.b64decode(text, validate=True)
    value, end = unpack_tagged_value(raw)
    if end != len(raw):
        raise DurabilityError(f"literal {text!r} runs past its value")
    return Literal(value)


def _item(item) -> object:
    """A projection item: a name, ``(name, expression)`` or
    ``(name, expression, kind)``."""
    if isinstance(item, str):
        return item
    name, expression, *kind = item
    return [name, encode_plan(expression), *(k.value for k in kind)]


def _unitem(item) -> object:
    if isinstance(item, str):
        return item
    if not isinstance(item, list) or len(item) not in (2, 3):
        raise DurabilityError(f"bad projection item {item!r}")
    name, expression, *kind = item
    return (name, _expression(expression), *(AttributeKind(k) for k in kind))


def _binary(cls, operand):
    """``cls(left, right)`` over two operands that *operand* decodes."""
    return (
        cls,
        lambda n: [encode_plan(n.left), encode_plan(n.right)],
        lambda left, right: cls(operand(left), operand(right)),
    )


def _named(cls, attribute):
    """``cls(name, left, right)``: a comparison or an Allen predicate."""
    return (
        cls,
        lambda n: [getattr(n, attribute), encode_plan(n.left), encode_plan(n.right)],
        lambda name, left, right: cls(name, _expression(left), _expression(right)),
    )


def _connective(cls):
    return (
        cls,
        lambda n: [[encode_plan(part) for part in n.parts]],
        lambda parts: cls([_predicate(part) for part in parts]),
    )


#: The closed table of the format, keyed by class name: the class, the
#: node's fields, and the node of decoded fields — built through the
#: public constructor, so its checks run.
_CODEC = {
    cls.__name__: (cls, fields, build)
    for cls, fields, build in [
        (Scan, lambda n: [n.table], Scan),
        (
            Select,
            lambda n: [encode_plan(n.child), encode_plan(n.predicate)],
            lambda child, predicate: Select(decode_plan(child), _predicate(predicate)),
        ),
        (
            Project,
            lambda n: [encode_plan(n.child), [_item(item) for item in n.items]],
            lambda child, items: Project(
                decode_plan(child), [_unitem(item) for item in items]
            ),
        ),
        (
            Join,
            lambda n: [
                encode_plan(n.left), encode_plan(n.right), encode_plan(n.predicate),
                n.left_name, n.right_name,
            ],
            lambda left, right, predicate, left_name, right_name: Join(
                decode_plan(left), decode_plan(right), _predicate(predicate),
                left_name=left_name, right_name=right_name,
            ),
        ),
        _binary(Union, decode_plan),
        _binary(Difference, decode_plan),
        (
            Aggregate,
            lambda n: [
                encode_plan(n.child), list(n.group_columns), [list(s) for s in n.specs]
            ],
            lambda child, by, specs: Aggregate(decode_plan(child), by, specs=specs),
        ),
        (Distinct, lambda n: [encode_plan(n.child)], lambda c: Distinct(decode_plan(c))),
        (
            SortLimit,
            lambda n: [encode_plan(n.child), [list(k) for k in n.sort_keys], n.limit],
            lambda child, keys, limit: SortLimit(decode_plan(child), keys, limit),
        ),
        (Column, lambda n: [n.name], Column),
        (Literal, lambda n: [_literal(n.value)], _unliteral),
        _binary(IntervalIntersection, _expression),
        _named(Comparison, "op"),
        _named(AllenPredicate, "name"),
        _connective(And),
        _connective(Or),
        (Not, lambda n: [encode_plan(n.part)], lambda part: Not(_predicate(part))),
        (TruePredicate, lambda n: [], lambda: TRUE_PREDICATE),
    ]
}


# ----------------------------------------------------------------------
# Subscription capture
# ----------------------------------------------------------------------


def serialize_notification(notification) -> Dict[str, object]:
    """A JSON-safe image of one pending (undelivered) notification.

    The shared result itself is *not* serialized — on resume the
    re-subscribed shared result stands in for it; what must survive is
    the change description: tables, commit stamp, and the typed delta.
    """
    commit = notification.commit
    delta = notification.delta
    entry: Dict[str, object] = {
        "changed_tables": list(notification.changed_tables),
        "commit": [commit.tick, commit.at] if commit is not None else None,
        "delta": None,
    }
    if delta is not None:
        entry["delta"] = {
            "inserted": [
                base64.b64encode(pack_tagged_tuple(row)).decode("ascii")
                for row in delta.inserted
            ],
            "deleted": [
                base64.b64encode(pack_tagged_tuple(row)).decode("ascii")
                for row in delta.deleted
            ],
        }
    return entry


def _capture_pending(session, subscription) -> Optional[Dict[str, object]]:
    """The subscription's queued-but-undelivered notifications, folded
    into one.

    Only a bus with delivery workers queues anything (without them a
    notification is delivered before ``publish`` returns, so nothing is
    ever pending).  Every queued payload is this subscription's
    notification, so they all merge.  The capture is non-destructive:
    the items stay queued for delivery.
    """
    payloads = session.bus.capture_pending(subscription.id)
    if not payloads:
        return None
    merged = payloads[0]
    for newer in payloads[1:]:
        merged = merged.coalesce_with(newer)
    return serialize_notification(merged)


def capture_subscriptions(session) -> List[Dict[str, object]]:
    """Manifest entries for every active subscription of *session*."""
    entries: List[Dict[str, object]] = []
    for subscription in session.subscriptions:
        if not subscription.active:
            continue
        statement = getattr(subscription, "statement", None)
        plan = None
        if statement is None:
            try:
                plan = encode_plan(subscription.plan)
            except DurabilityError as exc:
                raise DurabilityError(
                    f"checkpoint: subscription {subscription.name!r} cannot "
                    f"be persisted: {exc}"
                ) from exc
        entries.append(
            {
                "name": subscription.name,
                "fingerprint": subscription.fingerprint,
                "statement": statement,
                "plan": plan,
                "reference_time": subscription.reference_time,
                "backpressure": getattr(subscription, "backpressure", None),
                "queue_capacity": getattr(subscription, "queue_capacity", None),
                "pending": _capture_pending(session, subscription),
            }
        )
    return entries


def deserialize_notification(subscription, pending: Dict[str, object]):
    """The inverse of :func:`serialize_notification`, against the freshly
    resumed *subscription* (its just-evaluated shared result stands in
    for the pre-crash one).  Binds nothing, like any other notification:
    the subscriber that reads ``rows`` pays for them."""
    from repro.live.events import RefreshNotification

    def rows(encoded) -> tuple:
        decoded = []
        for blob in encoded:
            row, _ = unpack_tagged_tuple(base64.b64decode(blob))
            decoded.append(row)
        return tuple(decoded)

    # A notification of a re-evaluation has no delta; older manifests
    # also flagged it ``delta_full``, which reads the same way.
    delta: Optional[Delta] = None
    if pending.get("delta") is not None:
        payload = pending["delta"]
        delta = Delta(
            inserted=rows(payload.get("inserted", ())),
            deleted=rows(payload.get("deleted", ())),
        )
    commit = pending.get("commit")
    stamp = (
        CommitStamp(int(commit[0]), float(commit[1])) if commit else None
    )
    return RefreshNotification(
        subscription=subscription,
        result=subscription.result,
        reference_time=subscription.reference_time,
        changed_tables=tuple(pending.get("changed_tables") or ()),
        delta=delta,
        commit=stamp,
    )


def restore_subscription(session, entry: Dict[str, object], on_refresh=None):
    """Re-subscribe one :func:`capture_subscriptions` entry on *session*.

    *on_refresh* supplies the callback a manifest cannot persist: one
    callable, or a dict keyed by subscription name.  The entry goes
    through the ordinary ``session.subscribe`` path — a statement
    recompiles against the current catalog, a plan decodes
    (:func:`decode_plan`), and a format-1 plan object is refused by
    name, never loaded.  Keys the session no longer reads (an older
    entry's ``notify_on_no_change``) are ignored; the removed
    ``drop_oldest`` policy resumes as ``coalesce``.  Returns
    ``(subscription, pending)`` where *pending* is the captured
    undelivered notification to re-enqueue (``None`` when there was none
    or nobody listens), or ``None`` when the plan cannot be rebuilt —
    logged and skipped, never fatal: the subscriber can re-register.
    """
    name = entry.get("name")
    callback = (
        on_refresh.get(name) if isinstance(on_refresh, dict) else on_refresh
    )
    statement = entry.get("statement")
    try:
        if statement is not None:
            from repro.sqlish import compile_statement

            plan = compile_statement(statement, session.database)
        elif entry.get("plan") is not None:
            plan = decode_plan(entry["plan"])
        elif entry.get("plan_pickle"):
            raise DurabilityError(
                f"subscription {name!r} holds a plan as Python objects "
                f"(checkpoint format 1), which are not loaded; subscribe "
                f"it again"
            )
        else:
            logger.warning(
                "resume: subscription %r carries neither a statement nor "
                "a plan; skipped",
                name,
            )
            return None
    except Exception:  # noqa: BLE001 — one bad entry must not abort recovery
        logger.exception("resume: subscription %r could not be rebuilt", name)
        return None
    backpressure = entry.get("backpressure")
    if backpressure == "drop_oldest":  # removed: a full mailbox merges now
        backpressure = "coalesce"
        logging.getLogger("repro.live.manager").warning(
            "resume: subscription %r resumes with coalesce, not the removed "
            "drop_oldest", name
        )
    subscription = session.subscribe(
        plan,
        on_refresh=callback,
        reference_time=entry.get("reference_time"),
        name=name,
        backpressure=backpressure,
        queue_capacity=entry.get("queue_capacity"),
        statement=statement,
    )
    expected = entry.get("fingerprint")
    if expected and subscription.fingerprint != expected:
        logger.warning(
            "resume: subscription %r fingerprint changed (%s -> %s); "
            "resuming against the current plan",
            subscription.name,
            str(expected)[:12],
            subscription.fingerprint[:12],
        )
    pending = entry.get("pending")
    if pending is None or callback is None:
        return subscription, None
    return subscription, deserialize_notification(subscription, pending)


# ----------------------------------------------------------------------
# Writing and loading checkpoints
# ----------------------------------------------------------------------


def _checkpoint_root(root: Path) -> Path:
    return Path(root) / "checkpoints"


def _existing_seqs(directory: Path) -> List[int]:
    if not directory.is_dir():
        return []
    seqs = []
    for entry in directory.iterdir():
        if entry.is_dir() and entry.name.startswith(_PREFIX):
            try:
                seqs.append(int(entry.name[len(_PREFIX) :]))
            except ValueError:
                continue
    return sorted(seqs)


def write_checkpoint(
    root,
    *,
    database,
    wal_position,
    subscriptions: List[Dict[str, object]],
    tick: int,
) -> Path:
    """Write and atomically publish one checkpoint; returns its path.

    Must be called with the database write lock held — the heap rows,
    table versions, WAL position, and subscription manifest all describe
    the same instant.
    """
    directory = _checkpoint_root(root)
    directory.mkdir(parents=True, exist_ok=True)
    seqs = _existing_seqs(directory)
    seq = (seqs[-1] + 1) if seqs else 1
    label = f"{_PREFIX}{seq:08d}"
    tmp = directory / f"{_TMP_PREFIX}{label}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    tables_meta = []
    for index, (name, table) in enumerate(sorted(database.tables().items())):
        heap_name = f"{index:04d}.heap"
        rows = table.rows()  # read in place: the write lock is held
        _write_heap(tmp / heap_name, rows)
        faults.fire("checkpoint.mid_heap")
        tables_meta.append(
            {
                "name": name,
                "heap": heap_name,
                "rows": len(rows),
                "version": table.version,
                "schema": [[a.name, a.kind.value] for a in table.schema],
            }
        )
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "database": database.name,
        "tick": tick,
        "wal_position": [wal_position.segment, wal_position.offset],
        "tables": tables_meta,
        "subscriptions": subscriptions,
    }
    manifest_path = tmp / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_directory(tmp)  # the entries naming the heaps and the manifest
    faults.fire("checkpoint.pre_publish")
    final = directory / label
    os.rename(tmp, final)
    fsync_directory(directory)
    return final


class LoadedTable(NamedTuple):
    schema: Schema
    rows: Tuple
    version: int


class LoadedCheckpoint(NamedTuple):
    manifest: Dict[str, object]
    tables: Dict[str, LoadedTable]
    path: Path


def _load_one(path: Path) -> LoadedCheckpoint:
    manifest = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
    if manifest.get("format") not in _READABLE_FORMATS:
        raise DurabilityError(
            f"checkpoint {path.name} has format {manifest.get('format')!r}, "
            f"expected one of {_READABLE_FORMATS}"
        )
    tables: Dict[str, LoadedTable] = {}
    memo: dict = {}  # one per checkpoint: tables share categories
    for entry in manifest["tables"]:
        schema = Schema(
            [Attribute(name, AttributeKind(kind)) for name, kind in entry["schema"]]
        )
        rows = _read_heap(path / entry["heap"], memo)
        if len(rows) != entry["rows"]:
            raise DurabilityError(
                f"checkpoint {path.name}: table {entry['name']} has "
                f"{len(rows)} rows, manifest says {entry['rows']}"
            )
        tables[entry["name"]] = LoadedTable(schema, rows, entry["version"])
    return LoadedCheckpoint(manifest, tables, path)


def load_latest_checkpoint(root) -> Optional[LoadedCheckpoint]:
    """The newest loadable checkpoint, or ``None`` when there is none.

    An unreadable newest checkpoint (which the atomic publish should
    make impossible) is logged and skipped in favour of an older one —
    recovery prefers a slightly longer replay over refusing to start.
    """
    directory = _checkpoint_root(root)
    for seq in reversed(_existing_seqs(directory)):
        path = directory / f"{_PREFIX}{seq:08d}"
        try:
            return _load_one(path)
        except (OSError, ValueError, KeyError, DurabilityError) as exc:
            logger.warning("skipping unreadable checkpoint %s: %s", path.name, exc)
    return None


def prune_checkpoints(root, *, keep: int = 1) -> int:
    """Delete all but the newest *keep* checkpoints and any temp litter."""
    directory = _checkpoint_root(root)
    if not directory.is_dir():
        return 0
    removed = 0
    for entry in directory.iterdir():
        if entry.is_dir() and entry.name.startswith(_TMP_PREFIX):
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
    seqs = _existing_seqs(directory)
    for seq in seqs[:-keep] if keep > 0 else seqs:
        shutil.rmtree(directory / f"{_PREFIX}{seq:08d}", ignore_errors=True)
        removed += 1
    return removed
