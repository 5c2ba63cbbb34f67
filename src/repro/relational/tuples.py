"""Tuples of ongoing relations and the bind operator on values and rows.

A tuple of an ongoing relation carries, next to its attribute values, the
reference time attribute ``RT``: the set of reference times at which the
tuple belongs to the instantiated relations (Section VII-A).  Base tuples
start with the trivial reference time ``{(-inf, inf)}``; queries restrict it.

:func:`bind_value` is the bind operator ``‖·‖rt`` for individual values: it
instantiates ongoing time points and intervals and passes fixed values
through unchanged — composite values are instantiated componentwise, exactly
as Section IV prescribes.  :meth:`OngoingTuple.instantiate` applies it to
every value of one tuple.

:class:`Binder` is the same operator on many tuples of one schema, and every
whole-relation bind of the engine goes through it (Clifford's baseline
keeps its own, memo-free pass).  It reads the schema's attribute kinds
once: fixed columns are copied through untouched, ongoing columns are bound
by :func:`bind_value`, and the ``(start, end)`` pairs an interval column
binds to are shared within one call — equal bound intervals are one object.
A tuple whose values are the same at every reference time (fixed points
and intervals, constant integers and ratios — most rows of the paper's
data sets) binds once: the binder keeps the row it built in one slot of
the tuple and returns that object at every later reference time, for as
long as the tuple lives.  Sharing is memory only: compare bound values
with ``==``.  It trusts the kinds, so :meth:`Binder.check` (run wherever
a relation or table takes tuples) rejects an ongoing value in a fixed
column.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.integer import OngoingInt
from repro.core.interval import OngoingInterval
from repro.core.rational import OngoingRational
from repro.core.intervalset import UNIVERSAL_SET, IntervalSet
from repro.core.timeline import TimePoint
from repro.core.timepoint import OngoingTimePoint
from repro.errors import SchemaError
from repro.relational.schema import AttributeKind, Schema

__all__ = ["OngoingTuple", "bind_value", "Binder", "FixedTuple"]

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


#: The classes of the values :func:`bind_value` instantiates.
_ONGOING_VALUES = (OngoingTimePoint, OngoingInterval, OngoingInt, OngoingRational)


def _rt_invariant(value: object) -> bool:
    """``True`` iff ``bind_value(value, rt)`` is the same at every rt."""
    if isinstance(value, (OngoingTimePoint, OngoingInterval)):
        return value.is_fixed
    if isinstance(value, OngoingInt):
        return value.is_constant()
    if isinstance(value, OngoingRational):
        return value.numerator.is_constant() and value.denominator.is_constant()
    return True


#: Exact types of fixed values :meth:`Binder.check` accepts without the
#: ``isinstance`` test (which it keeps for everything else, subclasses too).
_PLAIN = frozenset({int, str, float, bool, type(None)})


class OngoingTuple:
    """An immutable tuple with a reference time attribute ``RT``."""

    __slots__ = ("_values", "_rt", "_hash", "_bound")

    def __init__(self, values: Tuple[object, ...], rt: IntervalSet = UNIVERSAL_SET):
        self._values = tuple(values)
        self._rt = rt
        self._hash = None
        # Binder.bind's memo: None before the first bind, then the bound
        # row if every value is rt-invariant, else False.
        self._bound = None

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
            if isinstance(value, _ONGOING_VALUES):
                rendered.append(value.format())
            else:
                rendered.append(str(value))
        return "(" + ", ".join(rendered) + ")  RT=" + self._rt.format()


class Binder:
    """``‖·‖rt`` on the tuples of one schema, built once from its kinds.

    :meth:`bind` instantiates many tuples at one reference time and equals
    :meth:`OngoingTuple.instantiate` on each, in value and type; it only
    does less work.  Fixed columns are copied through, ongoing ones go
    through :func:`bind_value`, and the pairs of ``ONGOING_INTERVAL``
    columns are shared through a per-call dict keyed by the pair.  Scalars
    are not shared (``Fraction(2) == 2`` would merge types).  The first
    bind of a tuple whose ongoing-kind values are all rt-invariant keeps
    the row in the tuple's ``_bound`` slot (like its hash memo, for as
    long as the tuple lives), and every later bind at any rt in its RT
    returns that same object; rows holding an ongoing value are bound
    afresh at each call.

    Binders depend on the kinds alone, so :meth:`of` hands schemas with
    the same kinds the same (immutable) binder.
    """

    __slots__ = ("_arity", "_fixed", "_scalars", "_intervals", "_ongoing")

    def __init__(self, kinds: Sequence[AttributeKind]):
        self._arity = len(kinds)
        self._fixed = tuple(
            position
            for position, kind in enumerate(kinds)
            if kind is AttributeKind.FIXED
        )
        self._scalars = tuple(
            position
            for position, kind in enumerate(kinds)
            if kind.is_ongoing and kind is not AttributeKind.ONGOING_INTERVAL
        )
        self._intervals = tuple(
            position
            for position, kind in enumerate(kinds)
            if kind is AttributeKind.ONGOING_INTERVAL
        )
        self._ongoing = self._scalars + self._intervals

    @classmethod
    def of(cls, schema: Schema) -> "Binder":
        """The binder of *schema*'s attribute kinds."""
        kinds = tuple(attribute.kind for attribute in schema)
        binder = _BINDERS.get(kinds)
        if binder is None:
            binder = _BINDERS[kinds] = cls(kinds)
        return binder

    def check(self, tuples: Iterable[OngoingTuple]) -> None:
        """Raise :class:`~repro.errors.SchemaError` unless every tuple has
        the schema's arity and no ongoing value in a fixed column."""
        arity, fixed = self._arity, self._fixed
        for item in tuples:
            values = item._values
            if len(values) != arity:
                raise SchemaError(
                    f"tuple {values!r} has {len(values)} values, "
                    f"schema expects {arity}"
                )
            for position in fixed:
                value = values[position]
                if type(value) not in _PLAIN and isinstance(value, _ONGOING_VALUES):
                    raise SchemaError(
                        f"tuple {values!r} holds the ongoing value {value!r} "
                        f"in fixed column {position}"
                    )

    def bind(
        self, tuples: Sequence[OngoingTuple], rt: TimePoint
    ) -> List[FixedTuple]:
        """``‖t‖rt`` of every tuple whose RT contains *rt*, in order."""
        bound: List[FixedTuple] = []
        append = bound.append
        scalars, intervals, ongoing = self._scalars, self._intervals, self._ongoing
        shared: Dict[object, object] = {}
        share = shared.setdefault
        for item in tuples:
            if rt not in item._rt:
                continue
            row = item._bound
            if row is None or row is False:
                values = item._values
                row = list(values)
                for position in scalars:
                    row[position] = bind_value(row[position], rt)
                for position in intervals:
                    pair = bind_value(row[position], rt)
                    row[position] = share(pair, pair)
                row = tuple(row)
                if item._bound is None:
                    invariant = all(_rt_invariant(values[at]) for at in ongoing)
                    item._bound = row if invariant else False
            append(row)
        return bound


#: One binder per kind signature, shared by every schema that has it.
_BINDERS: Dict[Tuple[AttributeKind, ...], Binder] = {}
