"""The observed-stats cost model for delta planning.

Classical cost models estimate from static catalog statistics; a live
system can do better.  Every evaluator accumulates, per physical
operator, the cumulative ``apply_delta`` wall time, delta rows in/out,
and state rows/bytes (:class:`~repro.engine.delta.NodeStats`,
``node_report()``).  This module turns those *observed* numbers into the
two decisions the delta path has to make:

* **index vs. scan per probe** (:meth:`CostModel.use_index`) — a probe
  against a small build side is cheaper as a linear scan (no tree walk,
  no post-filter); past ``index_threshold`` cached rows the ``O(log n +
  k)`` index wins.  Operators read the model from their state
  (``OperatorState.extra["cost_model"]``) and record the decision so
  ``EXPLAIN ANALYZE`` can show which access path won.

* **delta vs. full refresh per flush** (:meth:`CostModel.choose_refresh`)
  — delta propagation is ``O(|Δ|)`` with a per-row constant the evaluator
  has *measured* (cumulative apply seconds / cumulative source delta
  rows), and the evaluator has also measured what its last full
  re-evaluation cost.  When a flush carries so many pending rows that the
  measured delta path is projected to cost more than a measured full
  re-evaluation, the maintainer skips propagation and re-evaluates —
  augmenting the rule-only :class:`~repro.engine.delta.NonIncrementalDelta`
  fallback with a cost threshold.  Below ``full_refresh_floor_rows``
  pending rows the delta path always runs (tiny deltas are the reason the
  engine exists; projections from sub-microsecond samples are noise).

The model is its three constants and keeps nothing it is shown: every
number a decision uses is passed in by the evaluator that measured it,
so nothing observed on one database can steer another, and which path a
refresh takes is a function of the data and that evaluator's own history.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "CostModel",
    "RefreshDecision",
    "DEFAULT_COST_MODEL",
    "TOPK_KEY_BYTES",
]

#: Price of one maintained top-k window entry *beyond* the row itself
#: (which is already priced via ``cached_rows``): the decorated sort key
#: — a (growth, offset) Fraction pair per sort column plus the tie-break
#: object and the sorted-list cell.  Priced into
#: :meth:`~repro.engine.delta.DeltaEvaluator.state_bytes` like every
#: other acceleration structure.
TOPK_KEY_BYTES = 40


class RefreshDecision:
    """One flush's delta-vs-full choice, with the numbers that made it."""

    __slots__ = ("full", "reason")

    def __init__(self, full: bool, reason: str):
        self.full = full
        self.reason = reason

    def __repr__(self) -> str:
        return f"RefreshDecision({'full' if self.full else 'delta'}: {self.reason})"


class CostModel:
    """Chooses access paths and refresh strategies from observed stats.

    Parameters
    ----------
    index_threshold:
        Cached rows on a probe side above which the secondary index is
        used instead of a linear scan.  ``None`` disables secondary
        indexes entirely (the scan-only ablation).
    full_refresh_floor_rows:
        Pending source delta rows below which a flush always takes the
        delta path, regardless of projections.
    full_refresh_ratio:
        Safety factor: a full refresh is chosen only when the projected
        delta cost exceeds ``ratio ×`` the observed full-evaluation cost
        (a single full-refresh sample is noisy).
    """

    def __init__(
        self,
        *,
        index_threshold: Optional[int] = 32,
        full_refresh_floor_rows: int = 256,
        full_refresh_ratio: float = 2.0,
    ):
        self.index_threshold = index_threshold
        self.full_refresh_floor_rows = full_refresh_floor_rows
        self.full_refresh_ratio = full_refresh_ratio

    def use_index(self, cached_rows: int) -> bool:
        """Probe via the secondary index iff the side is big enough."""
        threshold = self.index_threshold
        return threshold is not None and cached_rows >= threshold

    def choose_refresh(
        self,
        *,
        pending_rows: int,
        apply_seconds: float,
        apply_rows: int,
        full_seconds: Optional[float],
    ) -> RefreshDecision:
        """Project both strategies from observed stats and pick one.

        *apply_seconds* / *apply_rows* are the evaluator's cumulative
        delta-application wall time and source delta rows (the measured
        per-row delta cost); *full_seconds* is its last observed full
        evaluation, ``None`` when never measured.
        """
        if pending_rows < self.full_refresh_floor_rows:
            return RefreshDecision(
                False,
                f"delta: pending={pending_rows} rows below "
                f"floor={self.full_refresh_floor_rows}",
            )
        if full_seconds is None or apply_rows <= 0 or apply_seconds <= 0.0:
            return RefreshDecision(
                False,
                f"delta: pending={pending_rows} rows, no observed "
                f"full/delta costs to compare yet",
            )
        ratio = self.full_refresh_ratio
        per_row = apply_seconds / apply_rows
        projected = pending_rows * per_row
        full = projected > full_seconds * ratio
        return RefreshDecision(
            full,
            f"{'full' if full else 'delta'}: pending={pending_rows} rows × "
            f"observed {per_row * 1e6:.2f}µs/row = {projected * 1e3:.2f}ms "
            f"{'>' if full else '<='} {ratio:g}× observed full "
            f"{full_seconds * 1e3:.2f}ms",
        )


#: Shared default instance (operators fall back to it when their state
#: carries no model — e.g. states built outside a DeltaEvaluator).  Safe
#: to share: a model holds its three parameters and nothing else.
DEFAULT_COST_MODEL = CostModel()
