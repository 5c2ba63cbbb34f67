"""Bitemporal tables: valid time + transaction time + reference time.

Section IV of the paper carefully separates three temporal dimensions of a
tuple:

* **valid time** ``VT`` — when the fact holds in the real world; set by the
  user; may be ongoing (``[01/25, now)``);
* **transaction time** ``TT`` — when the tuple is part of the database;
  restricted by the system through insert/update/delete statements;
* **reference time** ``RT`` — when the tuple belongs to the instantiated
  relations; set by the system and restricted by predicates on ongoing
  attributes during queries.

The paper's example: bug 500 with ``VT = [01/25, now)``,
``TT = [01/26, now)``, ``RT = {[03/15, inf)}``.

:class:`BitemporalTable` wraps an engine table and maintains ``TT`` as an
**ongoing interval** using the Torp-style modification semantics of
:mod:`repro.engine.modifications`: a live tuple has ``TT = [t_insert, now)``
(it keeps being current as time passes), and a logical delete at ``t`` caps
the transaction time at ``min(now, t) = +t`` — so transaction-time slices
(`AS OF`) remain correct at *every* reference time, before and after the
deletion, without ever storing an instantiated timestamp.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.interval import OngoingInterval
from repro.core.operations import ongoing_min
from repro.core.timeline import TimePoint
from repro.core.timepoint import NOW, fixed
from repro.engine.database import Database, Table
from repro.engine.delta import Delta
from repro.errors import QueryError, SchemaError
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Attribute, AttributeKind, Schema
from repro.relational.tuples import Binder, OngoingTuple

__all__ = ["BitemporalTable"]

#: Name of the system-maintained transaction time attribute.
TT_ATTRIBUTE = "TT"


class BitemporalTable:
    """A table whose tuples carry both valid time and transaction time.

    The user-facing schema excludes ``TT``; the wrapper appends it and
    maintains it on every modification.  A monotone logical clock orders
    the modifications; callers pass explicit transaction times (``at=``)
    so histories are reproducible.
    """

    def __init__(self, database: Database, name: str, user_schema: Schema):
        if TT_ATTRIBUTE in user_schema:
            raise SchemaError(
                f"{TT_ATTRIBUTE} is maintained by the system; remove it from "
                f"the user schema"
            )
        full = Schema(
            (*user_schema.attributes,
             Attribute(TT_ATTRIBUTE, AttributeKind.ONGOING_INTERVAL))
        )
        self.user_schema = user_schema
        self.table: Table = database.create_table(name, full)
        self._clock: TimePoint | None = None

    # ------------------------------------------------------------------
    # Modifications (restrict TT, never overwrite history)
    # ------------------------------------------------------------------

    def _advance_clock(self, at: TimePoint) -> None:
        if self._clock is not None and at < self._clock:
            raise QueryError(
                f"transaction time must be monotone; got {at} after "
                f"{self._clock}"
            )
        self._clock = at

    def insert(self, values: Sequence[object], *, at: TimePoint) -> None:
        """Insert a tuple current in the database from *at* on:
        ``TT = [at, now)``."""
        self._advance_clock(at)
        if len(values) != len(self.user_schema):
            raise SchemaError(
                f"expected {len(self.user_schema)} values, got {len(values)}"
            )
        transaction_time = OngoingInterval(fixed(at), NOW)
        self.table.insert(*values, transaction_time)

    def delete(
        self, matches: Callable[[OngoingTuple], bool], *, at: TimePoint
    ) -> int:
        """Logically delete matching live tuples at *at*.

        The transaction end becomes ``min(now, at) = +at`` — before *at*
        the tuple still reads as current (it *was*), afterwards its
        transaction time is capped.  One write updating only the capped
        rows, each stored copy of a duplicate included.  Returns the
        number of affected tuples.
        """
        self._advance_clock(at)
        position = self.table.schema.index_of(TT_ATTRIBUTE)
        deletion = fixed(at)
        old: List[OngoingTuple] = []
        new: List[OngoingTuple] = []
        with self.table.lock:
            for item in self.table.rows():
                transaction_time = item.values[position]
                if not matches(item) or not transaction_time.end.is_now:
                    continue
                new_values = list(item.values)
                new_values[position] = OngoingInterval(
                    transaction_time.start,
                    ongoing_min(transaction_time.end, deletion),
                )
                old.append(item)
                new.append(OngoingTuple(tuple(new_values), item.rt))
            self.table.apply_delta(Delta.update(old, new))
        return len(old)

    def update(
        self,
        matches: Callable[[OngoingTuple], bool],
        new_values: Sequence[object],
        *,
        at: TimePoint,
    ) -> int:
        """Logical update: delete the old versions, insert the new one.

        One logical modification: the delete + insert pair coalesces into
        a single change event (:meth:`~repro.engine.database.Table.batch`).
        """
        with self.table.batch():
            affected = self.delete(matches, at=at)
            self.insert(new_values, at=at)
        return affected

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def current(self) -> OngoingRelation:
        """The full bitemporal relation (including TT)."""
        return self.table.as_relation()

    def as_of(self, transaction_time: TimePoint, rt: TimePoint) -> list:
        """Transaction-time slice: the user tuples whose TT contains
        *transaction_time*, instantiated at reference time *rt*.

        This is the classical ``AS OF`` read; because TT is kept ongoing,
        the answer is correct for any combination of slice time and
        reference time.
        """
        position = self.table.schema.index_of(TT_ATTRIBUTE)
        relation = self.table.as_relation()
        rows = []
        for bound in Binder.of(relation.schema).bind(relation.tuples, rt):
            tt_start, tt_end = bound[position]
            if tt_start <= transaction_time < tt_end:
                rows.append(bound[:position] + bound[position + 1 :])
        return rows
