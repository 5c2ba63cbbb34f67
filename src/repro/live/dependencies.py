"""Dependency tracking: which subscriptions does a modification invalidate?

A modification of table ``T`` can only stale results whose plans *read*
``T``.  The :class:`DependencyIndex` inverts the plan → tables relation
into ``table → {keys}`` so the manager resolves an incoming change event
to the affected shared results in O(affected), not O(subscriptions).

Keys are opaque to the index; the live engine uses plan fingerprints
(:meth:`~repro.engine.plan.PlanNode.fingerprint`), so all subscriptions
sharing a materialization also share one index entry.

The index itself is not synchronized, and a session has exactly one:
every read (the intake's :meth:`DependencyIndex.affected` lookup, the
``stats()`` fan-out) and every write (subscribe / unsubscribe) happens
under the owning session's lock, whether or not the refresh work behind
it is sharded across workers.  :meth:`affected` still returns an
immutable snapshot, never a live view.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set

from repro.engine.plan import PlanNode

__all__ = ["referenced_tables", "DependencyIndex"]


def referenced_tables(plan: PlanNode) -> FrozenSet[str]:
    """The base tables a logical plan reads (the ``Scan`` leaves)."""
    return plan.referenced_tables()


class DependencyIndex:
    """A bidirectional ``key ↔ tables`` index for invalidation.

    ``add(key, tables)`` registers a dependency set; ``affected(table)``
    answers "which keys must be refreshed after this table changed?".
    """

    def __init__(self) -> None:
        self._by_table: Dict[str, Set[object]] = {}
        self._by_key: Dict[object, FrozenSet[str]] = {}

    def add(self, key: object, tables: Iterable[str]) -> None:
        """Register *key* as depending on *tables* (replaces a prior entry)."""
        if key in self._by_key:
            self.remove(key)
        frozen = frozenset(tables)
        self._by_key[key] = frozen
        for table in frozen:
            self._by_table.setdefault(table, set()).add(key)

    def remove(self, key: object) -> None:
        """Drop *key* and all its table links (no error if absent)."""
        for table in self._by_key.pop(key, frozenset()):
            keys = self._by_table.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[table]

    def affected(self, table: str) -> FrozenSet[object]:
        """The keys whose plans read *table*."""
        return frozenset(self._by_table.get(table, frozenset()))

    def tables(self) -> FrozenSet[str]:
        """The tables currently registered by at least one key.

        A table whose last dependent key was removed must *not* appear
        here — stale table entries would keep dead table names alive in
        :meth:`table_fanout` and make :meth:`affected` lookups pay for
        subscriptions that no longer exist.
        """
        return frozenset(self._by_table)

    def tables_of(self, key: object) -> FrozenSet[str]:
        """The dependency set registered for *key* (empty if unknown)."""
        return self._by_key.get(key, frozenset())

    def __contains__(self, key: object) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def table_fanout(self) -> Dict[str, int]:
        """``table → number of dependent keys`` (for stats/debugging)."""
        return {table: len(keys) for table, keys in self._by_table.items()}
