"""Materialized ongoing views (Section IX-C of the paper).

An ongoing query result does not get invalidated by time passing by, so it
can be materialized once and *instantiated* — cheaply — at any number of
reference times.  Applications that do not want to handle ongoing relations
explicitly still benefit: serving ``n`` instantiated results from one
materialized ongoing result amortizes after a small ``n`` (Figs. 11–12),
whereas Clifford's approach must re-run the query at every reference time.

The view only needs refreshing after *explicit* modifications of the
tables its plan reads — never because time passed, and never because
some other table changed.  Staleness is event-driven: the view forwards
the database's typed modification hooks
(:meth:`~repro.engine.database.Database.add_delta_listener`) to its
:class:`~repro.engine.maintenance.IncrementalMaintainer`, whose pending
record *is* the staleness — :meth:`is_stale` is O(1) and catches every
modification path, including in-place current deletes that keep the
cardinality constant.

Refreshes ride the delta-propagation engine through that maintainer (the
same per-plan record a live session keeps for each of its plans):
:meth:`refresh` pushes the accumulated row deltas through the view's
cached operator state, costing work proportional to the modifications
since the last refresh.
When that is impossible — cold state, a bulk load that reported no typed
rows, a non-incrementalizable operator — the view falls back to a full
re-evaluation automatically (logged on the ``repro.engine.delta`` logger).

For many clients sharing plans, prefer the push-based subscription engine
in :mod:`repro.live`; this class remains the single-consumer primitive.
"""

from __future__ import annotations

import weakref
from typing import FrozenSet, Optional

from repro.core.timeline import TimePoint
from repro.engine.database import Database
from repro.engine.delta import Delta
from repro.engine.maintenance import IncrementalMaintainer
from repro.engine.plan import PlanNode
from repro.errors import QueryError
from repro.relational.relation import OngoingRelation
from repro.relational.tuples import FixedTuple

__all__ = ["MaterializedOngoingView"]


class MaterializedOngoingView:
    """A named, materialized ongoing query result.

    Usage::

        view = MaterializedOngoingView("open_bugs", plan, database)
        view.refresh()
        rows_today = view.instantiate(today)     # cheap: a scan + bind
        rows_later = view.instantiate(today + 30)  # still correct, no re-run
    """

    def __init__(self, name: str, plan: PlanNode, database: Database):
        from repro.engine.rewrite import push_down_selections

        self.name = name
        self.plan = plan
        self.database = database
        # Maintain the rewritten plan: pushed-down selections shrink the
        # cached operator state the maintainer carries between refreshes.
        self._maintainer = IncrementalMaintainer(
            push_down_selections(plan, database),
            database,
            label=f"view {name!r}",
        )
        # The registered listener holds only a weak reference to the view:
        # views kept the old polling design's "no cleanup needed" contract,
        # so an abandoned view must not be pinned alive by the database.
        # Once the view is collected, the next change event deregisters
        # the listener; close() does so eagerly.
        self_ref = weakref.ref(self)

        def _on_change(table: str, version: int, delta: Delta) -> None:
            view = self_ref()
            if view is None:
                database.remove_delta_listener(_on_change)
            else:
                view._maintainer.note_change(table, delta)

        self._listener = database.add_delta_listener(_on_change)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @property
    def delta_refreshes(self) -> int:
        """How often the view refreshed by delta propagation."""
        return self._maintainer.delta_refreshes

    @property
    def full_refreshes(self) -> int:
        """How often the view refreshed by full re-evaluation."""
        return self._maintainer.full_refreshes

    def refresh(self) -> OngoingRelation:
        """Bring the stored ongoing result up to date.

        Incremental by default: the accumulated row deltas run through
        the view's cached operator state, mutating the versioned result
        store in O(|Δ|).  Falls back to a full re-evaluation —
        automatically, with the reason logged — when the state is cold or
        the deltas cannot be propagated.  Returning the relation
        materializes a snapshot (the view is the single-consumer
        primitive); callers that only need the refresh done can ignore
        the return value at no extra cost beyond that one copy per
        changed version.
        """
        self._maintainer.refresh()
        return self.result

    def is_stale(self) -> bool:
        """``True`` iff a table the plan reads changed since the last
        refresh (or the view was never refreshed).

        Time passing by never makes an ongoing view stale — only explicit
        modifications (inserts, current deletes/updates) do, and each one
        arrives as a change event from the database's modification hooks.
        """
        return self._maintainer.result is None or self._maintainer.dirty

    def close(self) -> None:
        """Detach from the database's modification hooks (idempotent)."""
        self.database.remove_delta_listener(self._listener)

    @property
    def result(self) -> OngoingRelation:
        """The stored ongoing result (refresh first)."""
        result = self._maintainer.result
        if result is None:
            raise QueryError(f"view {self.name!r} has not been refreshed yet")
        return result

    # ------------------------------------------------------------------
    # Serving instantiated results
    # ------------------------------------------------------------------

    def instantiate(self, rt: TimePoint) -> FrozenSet[FixedTuple]:
        """The fixed result at reference time *rt*, served from the view.

        This is the cheap operation the amortization experiments measure:
        a scan of the stored result, keeping tuples whose RT contains *rt*
        and binding their ongoing attributes.
        """
        return self.result.instantiate(rt)
