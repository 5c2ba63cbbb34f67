"""Temporal modification semantics in the style of Torp et al. [4].

Torp, Jensen, and Snodgrass showed that instantiating *now* when tuples are
accessed leads to incorrect *modifications*: deleting a tuple that is valid
``[a, now)`` must not freeze its end point at the access time, it must
record that the tuple *was current until the deletion time and remains
recorded as such forever after*.  Their fix is the time domain
``Tf = T ∪ {min(a, now)} ∪ {max(a, now)}``.

Ω generalizes ``Tf``, so the same modification semantics fall out of the
ongoing minimum/maximum directly:

* **current insert** at time ``t``:  the new tuple is valid ``[t, now)``;
* **current delete** at time ``t``:  a tuple valid ``[s, e)`` becomes valid
  ``[s, min(e, t))`` — for an open-ended tuple ``[s, now)`` this yields
  ``[s, +t)``, which instantiates to ``[s, rt)`` before the deletion (the
  tuple *was* current then) and to ``[s, t)`` afterwards;
* **current update** is a current delete plus a current insert.

These operations modify base tables in place; they are the only write path
beside plain inserts.

Each operation registers as **at most one** modification with the table's
change-event machinery (:meth:`~repro.engine.database.Table.batch`): a
current update bumps the table version once, not twice, and operations
that touch zero tuples — deleting an interval that already ended, updating
a key that matches nothing — are true no-ops that bump nothing, so
derived results (live subscriptions) are not
invalidated spuriously.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.core.interval import OngoingInterval
from repro.core.operations import ongoing_min
from repro.core.timeline import TimePoint
from repro.core.timepoint import NOW, OngoingTimePoint, fixed
from repro.engine.database import Table
from repro.engine.delta import Delta
from repro.errors import QueryError
from repro.relational.schema import AttributeKind
from repro.relational.tuples import OngoingTuple

__all__ = ["current_insert", "current_delete", "current_update"]


def _interval_position(table: Table, attribute: str) -> int:
    position = table.schema.index_of(attribute)
    if table.schema.attribute(attribute).kind is not AttributeKind.ONGOING_INTERVAL:
        raise QueryError(
            f"{attribute!r} is not an ongoing interval attribute of "
            f"table {table.name!r}"
        )
    return position


def current_insert(
    table: Table,
    values: Sequence[object],
    *,
    vt_attribute: str = "VT",
    at: TimePoint,
) -> None:
    """Insert a tuple that is current from *at* onward: ``VT = [at, now)``.

    *values* supplies all attributes except the valid time, in schema order
    with the valid-time slot omitted.
    """
    position = _interval_position(table, vt_attribute)
    row: List[object] = list(values)
    if len(row) != len(table.schema) - 1:
        raise QueryError(
            f"current_insert expects {len(table.schema) - 1} non-VT values, "
            f"got {len(row)}"
        )
    row.insert(position, OngoingInterval(fixed(at), NOW))
    table.insert(*row)


def current_delete(
    table: Table,
    matches: Callable[[OngoingTuple], bool],
    *,
    vt_attribute: str = "VT",
    at: TimePoint,
) -> int:
    """Logically delete matching tuples at time *at*.

    Every matching tuple's valid-time end becomes ``min(end, at)`` — the
    ongoing minimum, so no instantiation happens and the table keeps
    yielding correct instantiations at *every* reference time, before and
    after the deletion.  Returns the number of modified tuples.
    """
    position = _interval_position(table, vt_attribute)
    deletion_point = fixed(at)
    terminated: List[OngoingTuple] = []
    successors: List[OngoingTuple] = []
    # Finding the rows and rewriting them is one step under the write
    # lock.  Every stored occurrence is visited, not the deduplicated
    # relation view: the emitted delta must account for each copy.
    with table.lock:
        for item in table.rows():
            if not matches(item):
                continue
            valid_time = item.values[position]
            new_end = ongoing_min(valid_time.end, deletion_point)
            if new_end == valid_time.end:
                continue
            new_values = list(item.values)
            new_values[position] = OngoingInterval(valid_time.start, new_end)
            terminated.append(item)
            successors.append(OngoingTuple(tuple(new_values), item.rt))
        if terminated:
            # The change event names exactly the rewritten rows, so the
            # heap moves in O(rewritten) and derived results (live
            # subscriptions) refresh by delta instead
            # of re-evaluating over the whole table.
            table.apply_delta(Delta.update(terminated, successors))
    return len(terminated)


def current_update(
    table: Table,
    matches: Callable[[OngoingTuple], bool],
    new_values: Sequence[object],
    *,
    vt_attribute: str = "VT",
    at: TimePoint,
) -> int:
    """Current update: terminate matching tuples at *at*, insert the new row.

    Returns the number of terminated tuples.  The new tuple is valid
    ``[at, now)``.  Like SQL's ``UPDATE``, an update that matches zero
    tuples is a no-op: nothing is inserted and the table version does not
    change.  A matching update is one logical modification — delete and
    insert are coalesced into a single change event.
    """
    with table.batch():
        terminated = current_delete(
            table, matches, vt_attribute=vt_attribute, at=at
        )
        if terminated:
            current_insert(table, new_values, vt_attribute=vt_attribute, at=at)
    return terminated
