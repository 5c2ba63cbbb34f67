"""Ongoing integers — Section X's first future-work item, implemented.

The paper's outlook asks for "a duration function for ongoing time intervals
whose result are ongoing integers".  The duration of ``[a, now)`` at
reference time rt is ``max(0, rt - a)`` — it changes *linearly* with the
reference time, so ongoing integers cannot be step functions: they are
**piecewise-linear** functions of the reference time.

:class:`OngoingInt` represents such a function as contiguous half-open
segments ``[start, end)``, each carrying an affine form
``value(rt) = intercept + slope * rt`` with integer coefficients.  The
representation is closed under negation, addition, subtraction, constant
multiplication, minimum, and maximum (crossings split segments at integer
boundaries), and comparisons yield ongoing booleans — so ongoing integers
compose with the rest of the library exactly like ongoing time points do.

As with every ongoing type, the defining law is Definition 4's:
``‖f op g‖rt == ‖f‖rt opF ‖g‖rt`` at every reference time, and that is how
the test suite checks each operation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

from repro.core.boolean import OngoingBoolean
from repro.core.intervalset import IntervalSet
from repro.core.timeline import MINUS_INF, PLUS_INF, TimePoint
from repro.errors import TimeDomainError

__all__ = ["OngoingInt"]

#: One segment: value(rt) = intercept + slope * rt on [start, end).
Segment = Tuple[TimePoint, TimePoint, int, int]


def _normalize(segments: Sequence[Segment]) -> Tuple[Segment, ...]:
    """Validate coverage/contiguity and merge equal adjacent affine forms."""
    if not segments:
        raise TimeDomainError("an ongoing integer needs at least one segment")
    ordered = sorted(segments)
    if ordered[0][0] != MINUS_INF or ordered[-1][1] != PLUS_INF:
        raise TimeDomainError(
            "ongoing integer segments must cover (-inf, inf)"
        )
    merged: List[Segment] = []
    cursor = MINUS_INF
    for start, end, intercept, slope in ordered:
        if start != cursor:
            raise TimeDomainError(
                f"ongoing integer segments must be contiguous; gap at {start}"
            )
        if start >= end:
            raise TimeDomainError(f"empty segment [{start}, {end})")
        cursor = end
        if merged and merged[-1][2] == intercept and merged[-1][3] == slope:
            previous = merged.pop()
            merged.append((previous[0], end, intercept, slope))
        else:
            merged.append((start, end, intercept, slope))
    return tuple(merged)


class OngoingInt:
    """An integer-valued, piecewise-linear function of the reference time."""

    __slots__ = ("_segments",)

    def __init__(self, segments: Iterable[Segment]):
        self._segments = _normalize(list(segments))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value: int) -> "OngoingInt":
        """The fixed integer *value* embedded as an ongoing integer."""
        return cls([(MINUS_INF, PLUS_INF, value, 0)])

    @classmethod
    def step(
        cls, where: IntervalSet, inside: int = 1, outside: int = 0
    ) -> "OngoingInt":
        """A step function: *inside* on the set, *outside* elsewhere.

        The indicator of a tuple's reference time — the building block of
        the COUNT aggregate.
        """
        segments: List[Segment] = []
        cursor = MINUS_INF
        for start, end in where:
            if cursor < start:
                segments.append((cursor, start, outside, 0))
            segments.append((start, end, inside, 0))
            cursor = end
        if cursor < PLUS_INF:
            segments.append((cursor, PLUS_INF, outside, 0))
        if not segments:
            segments.append((MINUS_INF, PLUS_INF, outside, 0))
        return cls(segments)

    # ------------------------------------------------------------------
    # Introspection and the bind operator
    # ------------------------------------------------------------------

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return self._segments

    def instantiate(self, rt: TimePoint) -> int:
        """``‖f‖rt`` — the fixed integer value at reference time rt."""
        for start, end, intercept, slope in self._segments:
            if start <= rt < end:
                return intercept + slope * rt
        raise TimeDomainError(f"reference time {rt} outside the domain")

    def is_constant(self) -> bool:
        return len(self._segments) == 1 and self._segments[0][3] == 0

    # ------------------------------------------------------------------
    # Arithmetic (closed under the representation)
    # ------------------------------------------------------------------

    def _aligned(self, other: "OngoingInt") -> List[Tuple[TimePoint, TimePoint, int, int, int, int]]:
        """Co-refine both segmentations: pieces with both affine forms."""
        boundaries = sorted(
            {s for seg in self._segments for s in (seg[0], seg[1])}
            | {s for seg in other._segments for s in (seg[0], seg[1])}
        )
        pieces = []
        for start, end in zip(boundaries, boundaries[1:]):
            mine = self._form_at(start)
            theirs = other._form_at(start)
            pieces.append((start, end, mine[0], mine[1], theirs[0], theirs[1]))
        return pieces

    def _form_at(self, rt: TimePoint) -> Tuple[int, int]:
        for start, end, intercept, slope in self._segments:
            if start <= rt < end:
                return (intercept, slope)
        raise TimeDomainError(f"no segment covers {rt}")

    def __add__(self, other: object) -> "OngoingInt":
        other_int = _coerce(other)
        return OngoingInt(
            (start, end, b1 + b2, k1 + k2)
            for start, end, b1, k1, b2, k2 in self._aligned(other_int)
        )

    def __sub__(self, other: object) -> "OngoingInt":
        other_int = _coerce(other)
        return OngoingInt(
            (start, end, b1 - b2, k1 - k2)
            for start, end, b1, k1, b2, k2 in self._aligned(other_int)
        )

    def __neg__(self) -> "OngoingInt":
        return OngoingInt(
            (start, end, -intercept, -slope)
            for start, end, intercept, slope in self._segments
        )

    def scaled(self, factor: int) -> "OngoingInt":
        """Multiplication by a fixed integer factor."""
        return OngoingInt(
            (start, end, intercept * factor, slope * factor)
            for start, end, intercept, slope in self._segments
        )

    def _choose(
        self, other: "OngoingInt", keep_smaller: bool
    ) -> "OngoingInt":
        """Pointwise min/max, splitting pieces at integer crossings."""
        segments: List[Segment] = []
        for start, end, b1, k1, b2, k2 in self._aligned(_coerce(other)):
            # d(rt) = (b1 - b2) + (k1 - k2) rt; the smaller function wins
            # where d < 0 (for min) — split the piece where d changes sign.
            db, dk = b1 - b2, k1 - k2
            cuts = [start, end]
            if dk != 0:
                # Smallest rt with d(rt) >= 0 (dk > 0) resp. d(rt) <= 0
                # (dk < 0) — the integer boundary where the winner changes.
                if dk > 0:
                    boundary = _ceil_div(-db, dk)
                else:
                    boundary = _ceil_div(db, -dk)
                if start < boundary < end:
                    cuts = [start, boundary, end]
            for piece_start, piece_end in zip(cuts, cuts[1:]):
                probe = piece_start if piece_start > MINUS_INF else piece_end - 1
                dval = (b1 - b2) + (k1 - k2) * probe
                # When the functions are equal at the probe (the split
                # boundary itself), the winner over the rest of the piece
                # is decided by the slope of the difference.
                sign = dval if dval != 0 else dk
                take_first = (sign <= 0) if keep_smaller else (sign >= 0)
                if take_first:
                    segments.append((piece_start, piece_end, b1, k1))
                else:
                    segments.append((piece_start, piece_end, b2, k2))
        return OngoingInt(segments)

    def minimum(self, other: object) -> "OngoingInt":
        """Pointwise minimum (``‖min(f,g)‖rt == min(‖f‖rt, ‖g‖rt)``)."""
        return self._choose(_coerce(other), keep_smaller=True)

    def maximum(self, other: object) -> "OngoingInt":
        """Pointwise maximum."""
        return self._choose(_coerce(other), keep_smaller=False)

    def clamp_at_zero(self) -> "OngoingInt":
        """``max(f, 0)`` — the clamping the duration function needs."""
        return self.maximum(OngoingInt.constant(0))

    def mask(self, where: IntervalSet, outside: int = 0) -> "OngoingInt":
        """Keep the function on *where*, *outside* (default 0) elsewhere.

        Used by aggregation to confine a tuple's contribution to its
        reference time: ``duration(vt).mask(rt_set)``.
        """
        segments: List[Segment] = []
        for start, end, intercept, slope in self._segments:
            cursor = start
            for keep_start, keep_end in where:
                if keep_end <= start or keep_start >= end:
                    continue
                lo = max(start, keep_start)
                hi = min(end, keep_end)
                if cursor < lo:
                    segments.append((cursor, lo, outside, 0))
                segments.append((lo, hi, intercept, slope))
                cursor = hi
            if cursor < end:
                segments.append((cursor, end, outside, 0))
        return OngoingInt(segments)

    # ------------------------------------------------------------------
    # Comparisons — results are ongoing booleans
    # ------------------------------------------------------------------

    def _solve(self, other: object, relation: str) -> IntervalSet:
        pieces = self._aligned(_coerce(other))
        true_parts: List[Tuple[TimePoint, TimePoint]] = []
        for start, end, b1, k1, b2, k2 in pieces:
            db, dk = b1 - b2, k1 - k2
            if dk == 0:
                holds = _relation_holds(db, relation)
                if holds:
                    true_parts.append((start, end))
                continue
            # d(rt) = db + dk*rt is strictly monotone on the piece; the
            # boundary where d crosses zero splits it into a "<0" side and
            # a ">=0" side, with at most one exact-zero point.
            if dk > 0:
                zero_from = _ceil_div(-db, dk)  # smallest rt with d >= 0
                negative = (start, min(end, zero_from))
                non_negative = (max(start, zero_from), end)
            else:
                zero_from = _ceil_div(db, -dk)  # smallest rt with d <= 0
                negative = (max(start, zero_from), end)
                non_negative = (start, min(end, zero_from))
                # on this side: d <= 0 from zero_from on; d > 0 before
            exact = None
            if (-db) % dk == 0:
                root = (-db) // dk
                if start <= root < end:
                    exact = root
            for lo, hi in _relation_parts(
                relation, negative, non_negative, exact, dk
            ):
                if lo < hi:
                    true_parts.append((lo, hi))
        return IntervalSet(true_parts)

    def less_than(self, other: object) -> OngoingBoolean:
        return OngoingBoolean(self._solve(other, "<"))

    def less_equal(self, other: object) -> OngoingBoolean:
        return OngoingBoolean(self._solve(other, "<="))

    def equal(self, other: object) -> OngoingBoolean:
        return OngoingBoolean(self._solve(other, "=="))

    def not_equal(self, other: object) -> OngoingBoolean:
        return self.equal(other).negation()

    def greater_than(self, other: object) -> OngoingBoolean:
        return _coerce(other).less_than(self)

    def greater_equal(self, other: object) -> OngoingBoolean:
        return _coerce(other).less_equal(self)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = OngoingInt.constant(other)
        if not isinstance(other, OngoingInt):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        return hash(self._segments)

    def __repr__(self) -> str:
        return f"OngoingInt({list(self._segments)!r})"

    def format(self) -> str:
        """Human rendering, e.g. ``{(-inf, 5): 0, [5, inf): rt - 5}``."""
        from repro.core.timeline import fmt_point

        parts = []
        for start, end, intercept, slope in self._segments:
            left = "(" if start <= MINUS_INF else "["
            span = f"{left}{fmt_point(start)}, {fmt_point(end)})"
            if slope == 0:
                body = str(intercept)
            else:
                slope_text = "rt" if slope == 1 else f"{slope}*rt"
                if intercept == 0:
                    body = slope_text
                elif intercept > 0:
                    body = f"{slope_text} + {intercept}"
                else:
                    body = f"{slope_text} - {-intercept}"
            parts.append(f"{span}: {body}")
        return "{" + ", ".join(parts) + "}"


def _coerce(value: object) -> OngoingInt:
    if isinstance(value, OngoingInt):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return OngoingInt.constant(value)
    raise TimeDomainError(f"cannot treat {value!r} as an ongoing integer")


def _ceil_div(numerator: int, denominator: int) -> int:
    """Ceiling division for positive denominators."""
    return -((-numerator) // denominator)


def _relation_holds(difference: int, relation: str) -> bool:
    if relation == "<":
        return difference < 0
    if relation == "<=":
        return difference <= 0
    return difference == 0


def _relation_parts(relation, negative, non_negative, exact, dk):
    """Sub-ranges of a piece where the relation holds (monotone d)."""
    if relation == "<":
        if dk > 0:
            yield negative
        else:
            # d <= 0 holds on `negative`; exclude the exact zero point.
            lo, hi = negative
            if exact is not None and exact == lo:
                yield (lo + 1, hi)
            else:
                yield negative
    elif relation == "<=":
        if dk > 0:
            lo, hi = negative
            if exact is not None and exact == hi:
                yield (lo, hi + 1)
            else:
                yield negative
        else:
            yield negative
    elif relation == "==":
        if exact is not None:
            yield (exact, exact + 1)
