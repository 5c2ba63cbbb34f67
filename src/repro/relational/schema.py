"""Schemas of ongoing relations (Definition 5 of the paper).

An ongoing relation has fixed and ongoing attributes ``A1, ..., An`` plus
the reference time attribute ``RT``.  ``RT`` is managed by the system (it is
not part of the user-visible attribute list) and is carried by
:class:`~repro.relational.tuples.OngoingTuple` instances directly.

Attribute types matter for two reasons:

* the planner's predicate split (Section VIII) sends conjuncts that touch
  only fixed attributes down the fast fixed-evaluation path, and
* the storage model (Table V) sizes fixed and ongoing attributes
  differently.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import SchemaError

__all__ = ["AttributeKind", "Attribute", "Schema"]


class AttributeKind(enum.Enum):
    """The storage/evaluation class of an attribute."""

    #: Ordinary fixed value: int, string, fixed time point, ...
    FIXED = "fixed"
    #: An :class:`~repro.core.timepoint.OngoingTimePoint`.
    ONGOING_POINT = "ongoing_point"
    #: An :class:`~repro.core.interval.OngoingInterval`.
    ONGOING_INTERVAL = "ongoing_interval"
    #: An :class:`~repro.core.integer.OngoingInt` (aggregation results).
    ONGOING_INTEGER = "ongoing_integer"

    @property
    def is_ongoing(self) -> bool:
        """``True`` for attribute kinds whose values depend on the rt."""
        return self is not AttributeKind.FIXED


class Attribute:
    """A named, typed attribute of an ongoing relation."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: AttributeKind = AttributeKind.FIXED):
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {name!r}")
        self.name = name
        self.kind = kind

    def renamed(self, name: str) -> "Attribute":
        """A copy of this attribute under a new name."""
        return Attribute(name, self.kind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.name == other.name and self.kind == other.kind

    def __hash__(self) -> int:
        return hash((self.name, self.kind))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.kind.value})"


class Schema:
    """An ordered list of uniquely named attributes.

    The ``RT`` attribute is implicit: every tuple of an ongoing relation
    carries a reference time in addition to the values described here.
    """

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        index: Dict[str, int] = {}
        for position, attribute in enumerate(attrs):
            if attribute.name in index:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            index[attribute.name] = position
        self._attributes = attrs
        self._index = index

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *specs: object) -> "Schema":
        """Build a schema from names and ``(name, kind)`` pairs.

        Bare strings become fixed attributes; the strings ``"interval"`` /
        ``"point"`` in a pair select the ongoing kinds::

            Schema.of("BID", "C", ("VT", "interval"))
        """
        attributes: List[Attribute] = []
        for spec in specs:
            if isinstance(spec, str):
                attributes.append(Attribute(spec, AttributeKind.FIXED))
            elif isinstance(spec, Attribute):
                attributes.append(spec)
            elif isinstance(spec, tuple) and len(spec) == 2:
                name, kind = spec
                if isinstance(kind, AttributeKind):
                    attributes.append(Attribute(name, kind))
                elif kind in ("interval", "ongoing_interval"):
                    attributes.append(Attribute(name, AttributeKind.ONGOING_INTERVAL))
                elif kind in ("point", "ongoing_point"):
                    attributes.append(Attribute(name, AttributeKind.ONGOING_POINT))
                elif kind in ("integer", "ongoing_integer"):
                    attributes.append(Attribute(name, AttributeKind.ONGOING_INTEGER))
                elif kind == "fixed":
                    attributes.append(Attribute(name, AttributeKind.FIXED))
                else:
                    raise SchemaError(f"unknown attribute kind {kind!r}")
            else:
                raise SchemaError(f"cannot build an attribute from {spec!r}")
        return cls(attributes)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(attribute.name for attribute in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self):
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of the attribute called *name*.

        Raises :class:`~repro.errors.SchemaError` for unknown names, listing
        the known ones to make typos easy to spot.
        """
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {list(self.names)}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        """The attribute called *name*."""
        return self._attributes[self.index_of(name)]

    def ongoing_names(self) -> Tuple[str, ...]:
        """Names of the attributes whose values depend on the reference time."""
        return tuple(a.name for a in self._attributes if a.kind.is_ongoing)

    # ------------------------------------------------------------------
    # Construction of derived schemas
    # ------------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """The schema restricted (and reordered) to *names*."""
        return Schema(self.attribute(name) for name in names)

    def rename(self, mapping: Dict[str, str]) -> "Schema":
        """A schema with attributes renamed per *mapping* (missing = keep)."""
        return Schema(
            attribute.renamed(mapping.get(attribute.name, attribute.name))
            for attribute in self._attributes
        )

    def qualify(self, prefix: str) -> "Schema":
        """All attribute names prefixed with ``prefix.`` (join disambiguation)."""
        return Schema(
            attribute.renamed(f"{prefix}.{attribute.name}")
            for attribute in self._attributes
        )

    def concat(self, other: "Schema") -> "Schema":
        """The concatenated schema for a Cartesian product.

        Clashing names must be qualified (via :meth:`qualify`) before the
        product is formed; the constructor rejects duplicates.
        """
        return Schema(self._attributes + other._attributes)

    def compatible_with(self, other: "Schema") -> bool:
        """``True`` iff set operations (union, difference) are allowed.

        Compatibility requires the same number, kinds, and order of
        attributes; names may differ (positional semantics, as usual for
        fixed relations).
        """
        if len(self) != len(other):
            return False
        return all(
            mine.kind == theirs.kind
            for mine, theirs in zip(self._attributes, other._attributes)
        )

    def require_compatible(self, other: "Schema", operation: str) -> None:
        """Raise :class:`~repro.errors.SchemaError` unless compatible."""
        if not self.compatible_with(other):
            raise SchemaError(
                f"{operation} requires union-compatible schemas, "
                f"got {list(self.names)} vs {list(other.names)}"
            )

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        body = ", ".join(f"{a.name}:{a.kind.value}" for a in self._attributes)
        return f"Schema({body})"
