"""Stable routing of plan fingerprints to flush shards.

The live engine keys everything on plan fingerprints
(:meth:`~repro.engine.plan.PlanNode.fingerprint`), which makes sharding
trivial and *stable*: :func:`shard_index` hashes the fingerprint with
CRC-32 — deterministic across processes and Python hash seeds, unlike
built-in ``hash()`` — so a fingerprint always lands on the same shard.
The :class:`~repro.serve.scheduler.FlushScheduler` pins each shard to one
worker thread, which yields the serving layer's ordering invariant for
free: refreshes of one shared result are serialized, refreshes of
independent results run in parallel.

Only the *refresh work* is sharded.  Which fingerprints a modified table
invalidates is answered by the session's one ``table → fingerprints``
routing map, read and written under the session lock; the scheduler
routes each dirty fingerprint to its worker with :func:`shard_index`
itself.
"""

from __future__ import annotations

import zlib

__all__ = ["shard_index"]


def shard_index(key: object, shards: int) -> int:
    """The owning shard of *key* — stable across processes and runs.

    Uses CRC-32 of the key's text: plan fingerprints are SHA-256 hex
    strings, so the low bits are already uniform; CRC-32 keeps arbitrary
    string keys uniform too while staying deterministic (``hash()`` is
    salted per process and would re-shard every restart).
    """
    if shards <= 1:
        return 0
    text = key if isinstance(key, str) else repr(key)
    return zlib.crc32(text.encode("utf-8")) % shards
