"""Clifford et al. [3] — the instantiate-when-accessed baseline.

Clifford's framework replaces *now* with the reference time whenever an
ongoing value is accessed, so queries run entirely on fixed data with the
classical operations.  The price: the result is **only valid at the chosen
reference time** and gets outdated as time passes by — the application must
re-evaluate the query to stay correct.  The evaluation section of the paper
measures exactly this trade-off (Figs. 8, 10, 11, 12).

This module provides:

* :func:`bind_relation` — instantiate a whole ongoing relation at ``rt``
  (the scan-time bind the paper implemented as a C function in the
  PostgreSQL kernel);
* a small fixed-relation executor (:func:`selection`, :func:`hash_join`,
  :func:`sweep_join`) so Clifford's runs use the same algorithmic toolbox
  as the ongoing engine — only on instantiated data with fixed predicates;
* :func:`cliff_max_reference_time` — the ``Cliff_max`` convention of the
  evaluation: a reference time greater than the latest fixed end point in
  the data, representing the typical "query at the current time" use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.baselines.fixed_algebra import FIXED_PREDICATES, FixedInterval
from repro.core.timeline import MINUS_INF, TimePoint, is_finite
from repro.relational.relation import OngoingRelation
from repro.relational.schema import AttributeKind
from repro.relational.tuples import Binder, FixedTuple

__all__ = [
    "bind_relation",
    "selection",
    "hash_join",
    "sweep_join",
    "cliff_max_reference_time",
]


def bind_relation(relation: OngoingRelation, rt: TimePoint) -> List[FixedTuple]:
    """Instantiate every tuple of *relation* at *rt* (omitting RT misses).

    Returns a list (not a set): the instantiating baselines pay the bind
    cost per access, which is what the runtime experiments measure; callers
    needing set semantics wrap the result themselves.
    """
    return Binder.of(relation.schema).bind(relation.tuples, rt)


def selection(
    rows: Sequence[FixedTuple],
    vt_position: int,
    predicate_name: str,
    argument: FixedInterval,
) -> List[FixedTuple]:
    """``σ_{VT pred argument}`` on instantiated rows with fixed predicates."""
    predicate = FIXED_PREDICATES[predicate_name]
    return [row for row in rows if predicate(row[vt_position], argument)]


def hash_join(
    left: Sequence[FixedTuple],
    right: Sequence[FixedTuple],
    left_keys: Sequence[int],
    right_keys: Sequence[int],
    residual: Callable[[FixedTuple, FixedTuple], bool] | None = None,
) -> List[FixedTuple]:
    """Classical hash join on instantiated rows (concatenating matches)."""
    table: Dict[Tuple[object, ...], List[FixedTuple]] = {}
    for row in right:
        key = tuple(row[position] for position in right_keys)
        table.setdefault(key, []).append(row)
    output: List[FixedTuple] = []
    for row in left:
        key = tuple(row[position] for position in left_keys)
        bucket = table.get(key)
        if not bucket:
            continue
        for match in bucket:
            if residual is None or residual(row, match):
                output.append(row + match)
    return output


def sweep_join(
    left: Sequence[FixedTuple],
    right: Sequence[FixedTuple],
    left_vt: int,
    right_vt: int,
    predicate_name: str = "overlaps",
    residual: Callable[[FixedTuple, FixedTuple], bool] | None = None,
) -> List[FixedTuple]:
    """Plane-sweep interval join on instantiated rows.

    For ``overlaps`` the sweep is exact; for other temporal predicates the
    envelope candidates are post-filtered with the fixed predicate.
    """
    predicate = FIXED_PREDICATES[predicate_name]
    left_sorted = sorted(
        ((row[left_vt], row) for row in left), key=lambda pair: pair[0][0]
    )
    right_sorted = sorted(
        ((row[right_vt], row) for row in right), key=lambda pair: pair[0][0]
    )
    output: List[FixedTuple] = []

    def emit(left_row: FixedTuple, right_row: FixedTuple) -> None:
        if predicate(left_row[left_vt], right_row[right_vt]) and (
            residual is None or residual(left_row, right_row)
        ):
            output.append(left_row + right_row)

    i, j = 0, 0
    n_left, n_right = len(left_sorted), len(right_sorted)
    while i < n_left and j < n_right:
        left_interval, left_row = left_sorted[i]
        right_interval, right_row = right_sorted[j]
        if left_interval[0] <= right_interval[0]:
            end = left_interval[1]
            k = j
            while k < n_right and right_sorted[k][0][0] < end:
                emit(left_row, right_sorted[k][1])
                k += 1
            i += 1
        else:
            end = right_interval[1]
            k = i
            while k < n_left and left_sorted[k][0][0] < end:
                emit(left_sorted[k][1], right_row)
                k += 1
            j += 1
    return output


#: The kinds whose values are time points: their components bound the data.
_TEMPORAL = (AttributeKind.ONGOING_POINT, AttributeKind.ONGOING_INTERVAL)


def cliff_max_reference_time(*relations: OngoingRelation) -> TimePoint:
    """A reference time greater than the latest finite end point in the data.

    ``Cliff_max`` in the evaluation: instantiating at this time represents
    the common case of querying close to the current time (all expanding
    intervals have reached their largest extent relative to the fixed data).
    """
    latest = MINUS_INF
    for relation in relations:
        temporal = [
            position
            for position, attribute in enumerate(relation.schema)
            if attribute.kind in _TEMPORAL
        ]
        for item in relation.tuples:
            values = item.values
            for position in temporal:
                for component in values[position].components():
                    if is_finite(component) and component > latest:
                        latest = component
    if latest == MINUS_INF:
        raise ValueError("relations contain no finite time points")
    return latest + 1
