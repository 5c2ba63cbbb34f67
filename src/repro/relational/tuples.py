"""Tuples of ongoing relations and the bind operator on values.

A tuple of an ongoing relation carries, next to its attribute values, the
reference time attribute ``RT``: the set of reference times at which the
tuple belongs to the instantiated relations (Section VII-A).  Base tuples
start with the trivial reference time ``{(-inf, inf)}``; queries restrict it.

:func:`bind_value` is the bind operator ``‖·‖rt`` for individual values: it
instantiates ongoing time points and intervals and passes fixed values
through unchanged — composite values are instantiated componentwise, exactly
as Section IV prescribes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.rational import OngoingRational
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.timeline import TimePoint
from repro.core.timepoint import OngoingTimePoint

__all__ = ["OngoingTuple", "bind_value", "FixedTuple"]

#: An instantiated tuple: plain Python values, no RT.
FixedTuple = Tuple[object, ...]


def bind_value(value: object, rt: TimePoint) -> object:
    """``‖value‖rt`` — instantiate one attribute value at reference time rt.

    * ongoing time points instantiate per Definition 2;
    * ongoing intervals instantiate endpointwise to a fixed ``(start, end)``
      pair (which may be empty — emptiness is a semantic property handled by
      the predicates, not an error);
    * every other value is fixed and returned unchanged.
    """
    if isinstance(value, OngoingTimePoint):
        return value.instantiate(rt)
    if isinstance(value, OngoingInterval):
        return value.instantiate(rt)
    if isinstance(value, OngoingInt):
        return value.instantiate(rt)
    if isinstance(value, OngoingRational):
        return value.instantiate(rt)
    return value


class OngoingTuple:
    """An immutable tuple with a reference time attribute ``RT``."""

    __slots__ = ("_values", "_rt", "_hash")

    def __init__(self, values: Tuple[object, ...], rt: IntervalSet = UNIVERSAL_SET):
        self._values = tuple(values)
        self._rt = rt
        self._hash = None

    @property
    def values(self) -> Tuple[object, ...]:
        """The attribute values ``A1, ..., An`` (without RT)."""
        return self._values

    @property
    def rt(self) -> IntervalSet:
        """The reference time attribute ``RT``."""
        return self._rt

    def with_rt(self, rt: IntervalSet) -> "OngoingTuple":
        """A copy of this tuple carrying a different reference time."""
        return OngoingTuple(self._values, rt)

    def restrict(self, true_set: IntervalSet) -> "OngoingTuple":
        """``RT := RT ∧ true_set`` — the restriction step of Theorem 2.

        The caller is responsible for dropping the tuple when the resulting
        reference time is empty.
        """
        return OngoingTuple(self._values, self._rt.intersection(true_set))

    def instantiate(self, rt: TimePoint) -> Optional[FixedTuple]:
        """``‖tuple‖rt`` — the fixed tuple at rt, or ``None``.

        ``None`` signals that the tuple does not belong to the instantiated
        relation at *rt* (its RT does not contain rt) — the bind operator on
        relations omits such tuples.
        """
        if rt not in self._rt:
            return None
        return tuple(bind_value(value, rt) for value in self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OngoingTuple):
            return NotImplemented
        return self._values == other._values and self._rt == other._rt

    def __hash__(self) -> int:
        # Memoized: the engine keys every operator state by tuple, and
        # hashing the nested ongoing values dominates its dict traffic.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self._values, self._rt))
        return cached

    def __reduce__(self):
        # Never pickle the memo: string hashes differ between processes.
        return (OngoingTuple, (self._values, self._rt))

    def __repr__(self) -> str:
        return f"OngoingTuple({self._values!r}, rt={self._rt!r})"

    def format(self) -> str:
        """Render the tuple paper-style, with ongoing values pretty-printed."""
        rendered = []
        for value in self._values:
            if isinstance(
                value,
                (OngoingTimePoint, OngoingInterval, OngoingInt, OngoingRational),
            ):
                rendered.append(value.format())
            else:
                rendered.append(str(value))
        return "(" + ", ".join(rendered) + ")  RT=" + self._rt.format()
