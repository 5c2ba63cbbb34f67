"""Refresh notifications: the live engine's records.

The paper's invariant — ongoing results never go stale because time passes,
only because of explicit modifications — means the *only* signal the live
engine needs is the stream of base-table modifications, which it takes
from the :class:`~repro.engine.database.Database` delta hooks as plain
``(table, version, delta)`` calls — every one naming its rows, except a
dropped table's ``delta=None``.  What it hands on has a shape:

* :class:`RefreshNotification` — what subscribers receive after their
  shared result was refreshed: the change and the pinned snapshot, bound
  to a reference time only when (and by whoever) reads it —
  :class:`BoundChanges` is the O(|Δ|) read.

Notifications travel on the :class:`~repro.serve.bus.EventBus`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, NamedTuple, Optional, Tuple

from repro.core.timeline import TimePoint
from repro.engine.delta import Delta
from repro.relational.tuples import Binder, FixedTuple

__all__ = ["BoundChanges", "RefreshNotification"]


class BoundChanges(NamedTuple):
    """A result-level delta bound at one reference time.

    **Bags**, not sets: two ongoing tuples of one result may bind to the
    same fixed tuple at one reference time, so a consumer folding these
    into a row set has to count — a fixed tuple is in the bound result
    while its count is positive (:class:`~repro.live.subscription.BoundRows`
    is that fold).
    """

    inserted: Tuple[FixedTuple, ...]
    deleted: Tuple[FixedTuple, ...]


@dataclass(frozen=True)
class RefreshNotification:
    """Delivered to a subscription after its result was refreshed.

    A notification carries the change and the snapshot, not a bound
    copy: ``result`` is the immutable ongoing result of this refresh and
    ``reference_time`` the subscription's reference time *when the
    refresh was notified* (``None`` when it had not picked one).
    Binding happens when somebody reads, for the reader that asks:

    * :attr:`rows` — the whole result at ``reference_time``,
      O(|result|), bound on the first read and kept;
    * :meth:`changes_at` — only what this refresh changed, O(|Δ|).

    Subscribers can always instantiate later, at any reference time, via
    ``subscription.instantiate(rt)``; the ongoing result stays valid as
    time passes.

    ``delta`` is the *result-level* change this refresh applied — the
    ongoing tuples that entered and left the result — when the refresh
    ran on the incremental path; ``None`` means the result was fully
    re-evaluated and the precise change was not computed.
    """

    subscription: Any
    result: Any
    reference_time: Optional[TimePoint] = None
    #: Tables whose modifications were coalesced into this refresh.
    changed_tables: Tuple[str, ...] = ()
    delta: Optional[Delta] = field(default=None, compare=False)
    #: The :class:`~repro.engine.database.CommitStamp` of the *oldest*
    #: modification batch this refresh carries — the conservative base
    #: for write→deliver freshness (``repro_freshness_seconds``).
    commit: Optional[Any] = field(default=None, compare=False)
    _rows: Optional[FrozenSet[FixedTuple]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rows(self) -> Optional[FrozenSet[FixedTuple]]:
        """``result`` instantiated at ``reference_time`` (``None``
        without one), bound by the first reader and memoised — a
        notification nobody reads never pays it.  Two first readers
        racing bind twice, to equal sets.  Each bind is one of the
        subscription's ``stats.instantiations``.
        """
        rows = self._rows
        if rows is None and self.reference_time is not None:
            rows = self.result.instantiate(self.reference_time)
            object.__setattr__(self, "_rows", rows)
            self.subscription.stats.instantiations += 1
        return rows

    def changes_at(self, rt: Optional[TimePoint] = None) -> Optional[BoundChanges]:
        """What this refresh changed, bound at *rt* — O(|Δ|).

        *rt* defaults to the notification's ``reference_time``.  ``None``
        when the precise change is unknown (``delta`` is ``None``: the
        result was re-evaluated): re-read :attr:`rows` (or ``result``)
        instead.  On
        a coalesced notification this is the merged delta, in which one
        tuple may both enter and leave.
        """
        delta = self.delta
        if delta is None:
            return None
        if rt is None:
            rt = self.reference_time
            if rt is None:
                raise ValueError(
                    "changes_at() needs a reference time: the subscription "
                    "had none when this refresh was notified"
                )
        bind = Binder.of(self.result.schema).bind
        return BoundChanges(
            tuple(bind(delta.inserted, rt)), tuple(bind(delta.deleted, rt))
        )

    def coalesce_with(self, newer: "RefreshNotification") -> "RefreshNotification":
        """Merge a *newer* refresh of the same subscription into this one.

        Used by the serving layer's full mailboxes: a slow subscriber
        whose queue fills receives one notification that
        carries the latest result and reference time and the **merged
        result-level delta** — applying it to the state the subscriber
        last saw yields exactly the latest result, so no information is
        lost by skipping the intermediate delivery.  A missing delta on
        either side means the precise change is unknown; the merged delta
        is then ``None`` (subscribers fall back to reading ``result``).
        Nothing is bound here: merging costs the same whether or not a
        reader will ever ask for rows.
        """
        if newer.subscription is not self.subscription:
            raise ValueError(
                "refresh notifications of different subscriptions "
                "cannot be coalesced"
            )
        merged_delta = (
            self.delta.merge(newer.delta)
            if self.delta is not None and newer.delta is not None
            else None
        )
        # Freshness is measured against the *oldest* write the delivery
        # answers: coalescing keeps the older stamp so a skipped
        # intermediate delivery cannot make the subscriber look fresher
        # than it is.
        if self.commit is not None and newer.commit is not None:
            older_commit = min(self.commit, newer.commit)
        else:
            older_commit = self.commit or newer.commit
        return RefreshNotification(
            subscription=newer.subscription,
            result=newer.result,
            reference_time=newer.reference_time,
            changed_tables=tuple(
                sorted({*self.changed_tables, *newer.changed_tables})
            ),
            delta=merged_delta,
            commit=older_commit,
        )
