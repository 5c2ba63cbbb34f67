"""The evaluation workloads of Section IX-A.

Three query families, each runnable on the ongoing engine *and* via
Clifford's instantiate-then-evaluate baseline from one specification:

* ``Qσ_pred``  — :class:`SelectionWorkload`:
  ``σ_{VT pred [ts, te)}(R)`` with a temporal predicate against a fixed
  interval spanning the last 10 % of the data history;
* ``Q⋈_pred``  — :class:`SelfJoinWorkload`:
  ``R ⋈_{θN ∧ R.VT pred S.VT} S`` — a self join with a non-temporal
  equality ``θN`` plus the temporal predicate;
* ``QC⋈_pred`` — :class:`ComplexJoinWorkload` on MozillaBugs:
  for every person, the similar bugs open while the person works on a bug
  with severity *major*::

      A ⋈_{A.ID=S.ID ∧ A.VT overlaps S.VT ∧ Severity='major'} S
        ⋈_{A.ID=B.ID} B
        ⋈_{θsim ∧ A.VT pred B'.VT} B'

  where ``θsim`` equates product, component, and operating system.

The temporal predicates used throughout the evaluation are ``overlaps`` and
``before`` — representative of the most commonly used temporal predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.baselines import clifford as _clifford
from repro.baselines.fixed_algebra import FIXED_PREDICATES, FixedInterval
from repro.core.interval import fixed_interval
from repro.core.timeline import TimePoint
from repro.engine.database import Database
from repro.engine.plan import PlanNode, scan
from repro.relational.predicates import col, lit
from repro.relational.relation import OngoingRelation
from repro.relational.tuples import FixedTuple

__all__ = [
    "last_tenth",
    "SelectionWorkload",
    "SelfJoinWorkload",
    "TemporalJoinWorkload",
    "ComplexJoinWorkload",
]


def last_tenth(history_start: TimePoint, history_end: TimePoint) -> FixedInterval:
    """The fixed interval spanning the last 10 % of the data history.

    This is the selection interval of the ``Qσ`` workloads ("the fixed time
    interval [ts, te) in the selection predicate spans the last 10 % of the
    data history").
    """
    span = history_end - history_start
    return (history_end - span // 10, history_end)


@dataclass(frozen=True)
class SelectionWorkload:
    """``Qσ_pred = σ_{VT pred [ts, te)}(R)``."""

    table: str
    predicate: str
    argument: FixedInterval
    vt: str = "VT"

    def plan(self) -> PlanNode:
        """The logical plan for the ongoing engine."""
        literal = lit(fixed_interval(*self.argument))
        predicate = getattr(col(self.vt), self.predicate)(literal)
        return scan(self.table).where(predicate)

    def run_ongoing(self, database: Database) -> OngoingRelation:
        """Evaluate once; the result remains valid as time passes by."""
        return database.query(self.plan())

    def run_clifford(self, database: Database, rt: TimePoint) -> List[FixedTuple]:
        """Instantiate at *rt*, then evaluate with fixed predicates."""
        relation = database.relation(self.table)
        vt_position = relation.schema.index_of(self.vt)
        rows = _clifford.bind_relation(relation, rt)
        return _clifford.selection(rows, vt_position, self.predicate, self.argument)


@dataclass(frozen=True)
class SelfJoinWorkload:
    """``Q⋈_pred = R ⋈_{R.G = S.G ∧ R.VT pred S.VT} S`` (self join)."""

    table: str
    predicate: str
    group: str = "G"
    vt: str = "VT"

    def plan(self) -> PlanNode:
        temporal = getattr(col(f"R.{self.vt}"), self.predicate)(col(f"S.{self.vt}"))
        predicate = (col(f"R.{self.group}") == col(f"S.{self.group}")) & temporal
        return scan(self.table).join(
            scan(self.table), on=predicate, left_name="R", right_name="S"
        )

    def run_ongoing(self, database: Database) -> OngoingRelation:
        return database.query(self.plan())

    def run_clifford(self, database: Database, rt: TimePoint) -> List[FixedTuple]:
        relation = database.relation(self.table)
        group_position = relation.schema.index_of(self.group)
        vt_position = relation.schema.index_of(self.vt)
        rows = _clifford.bind_relation(relation, rt)
        fixed_predicate = FIXED_PREDICATES[self.predicate]
        width = len(relation.schema)

        def residual(left_row: FixedTuple, right_row: FixedTuple) -> bool:
            return fixed_predicate(left_row[vt_position], right_row[vt_position])

        return _clifford.hash_join(
            rows, rows, [group_position], [group_position], residual
        )


@dataclass(frozen=True)
class TemporalJoinWorkload:
    """``R ⋈_{R.VT pred S.VT} S`` — a *pure* temporal self join.

    Without a non-temporal equality the join's candidate structure is
    governed entirely by the interval envelopes: the ongoing engine uses
    the merge-interval join (envelope-overlap candidates), Clifford's
    baseline the fixed plane sweep.  This exposes the *location* effect of Fig. 9: expanding
    intervals starting early (and shrinking intervals ending late) pair
    with many more partners.
    """

    table: str
    predicate: str
    vt: str = "VT"

    def plan(self) -> PlanNode:
        temporal = getattr(col(f"R.{self.vt}"), self.predicate)(col(f"S.{self.vt}"))
        return scan(self.table).join(
            scan(self.table), on=temporal, left_name="R", right_name="S"
        )

    def run_ongoing(self, database: Database) -> OngoingRelation:
        return database.query(self.plan())

    def run_clifford(self, database: Database, rt: TimePoint) -> List[FixedTuple]:
        relation = database.relation(self.table)
        vt_position = relation.schema.index_of(self.vt)
        rows = _clifford.bind_relation(relation, rt)
        if self.predicate == "overlaps":
            # Overlapping pairs are exactly the envelope-overlapping pairs
            # on fixed data — the plane sweep is both exact and fast.
            return _clifford.sweep_join(
                rows, rows, vt_position, vt_position, self.predicate
            )
        fixed_predicate = FIXED_PREDICATES[self.predicate]
        return [
            left + right
            for left in rows
            for right in rows
            if fixed_predicate(left[vt_position], right[vt_position])
        ]


@dataclass(frozen=True)
class ComplexJoinWorkload:
    """``QC⋈_pred`` — the complex four-way join on MozillaBugs.

    Expects a database with tables ``A`` (ID, Email, VT), ``S``
    (ID, Severity, VT), and ``B`` (ID, Product, Component, OS, Descr, VT),
    as produced by :meth:`repro.datasets.mozilla.MozillaBugs.as_database`.
    """

    predicate: str
    severity: str = "major"

    def plan(self) -> PlanNode:
        step1 = scan("A").join(
            scan("S"),
            on=(col("A.ID") == col("S.ID"))
            & (col("S.Severity") == lit(self.severity))
            & col("A.VT").overlaps(col("S.VT")),
            left_name="A",
            right_name="S",
        )
        step2 = step1.join(scan("B"), on=col("A.ID") == col("B.ID"), right_name="B")
        similar = (
            (col("B.Product") == col("B2.Product"))
            & (col("B.Component") == col("B2.Component"))
            & (col("B.OS") == col("B2.OS"))
        )
        temporal = getattr(col("A.VT"), self.predicate)(col("B2.VT"))
        return step2.join(scan("B"), on=similar & temporal, right_name="B2")

    def run_ongoing(self, database: Database) -> OngoingRelation:
        return database.query(self.plan())

    def run_clifford(self, database: Database, rt: TimePoint) -> List[FixedTuple]:
        """The same pipeline on instantiated rows with fixed predicates.

        Hash joins throughout — the paper notes the optimizer picks a
        linear-time hash join for Clifford's approach on this query.
        """
        assignments = _clifford.bind_relation(database.relation("A"), rt)
        severities = _clifford.bind_relation(database.relation("S"), rt)
        bugs = _clifford.bind_relation(database.relation("B"), rt)
        overlaps_f = FIXED_PREDICATES["overlaps"]
        temporal_f = FIXED_PREDICATES[self.predicate]
        wanted_severity = self.severity

        # A ⋈ S on ID, residual: severity + overlaps.  A=(ID, Email, VT),
        # S appended at positions 3.. => Severity at 4, S.VT at 5.
        def residual_as(left_row: FixedTuple, right_row: FixedTuple) -> bool:
            return right_row[1] == wanted_severity and overlaps_f(
                left_row[2], right_row[2]
            )

        step1 = _clifford.hash_join(assignments, severities, [0], [0], residual_as)
        # (A+S) ⋈ B on ID.  B appended at 6..11.
        step2 = _clifford.hash_join(step1, bugs, [0], [0], None)

        # (A+S+B) ⋈ B' on (Product, Component, OS), residual: A.VT pred B'.VT.
        def residual_sim(left_row: FixedTuple, right_row: FixedTuple) -> bool:
            return temporal_f(left_row[2], right_row[5])

        return _clifford.hash_join(step2, bugs, [7, 8, 9], [1, 2, 3], residual_sim)
