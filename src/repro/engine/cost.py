"""The observed-stats cost model for delta planning.

Classical cost models estimate from static catalog statistics; a live
system can do better.  PR 6's telemetry already accumulates, per physical
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
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "CostModel",
    "PlanCostHistory",
    "RefreshDecision",
    "DEFAULT_COST_MODEL",
    "TOPK_KEY_BYTES",
]

#: Price of one maintained top-k window entry *beyond* the row itself
#: (which is already priced via ``cached_rows``): the decorated sort key
#: — a (growth, offset) Fraction pair per sort column plus the tie-break
#: string slot and the sorted-list cell.  Priced into
#: :meth:`~repro.engine.delta.DeltaEvaluator.state_bytes` like every
#: other acceleration structure.
TOPK_KEY_BYTES = 40


class PlanCostHistory:
    """EWMA-smoothed observed costs of one plan fingerprint.

    Fed by :meth:`CostModel.observe_refresh` after every maintained
    refresh: ``per_row_seconds`` tracks the measured delta-apply cost per
    source row, ``full_seconds`` the measured full re-evaluation time.
    EWMAs rather than lifetime averages, so the model follows the plan's
    *current* behaviour — state growth, workload drift — instead of its
    cold-start past.
    """

    __slots__ = (
        "per_row_seconds",
        "full_seconds",
        "delta_observations",
        "full_observations",
    )

    def __init__(self) -> None:
        self.per_row_seconds: Optional[float] = None
        self.full_seconds: Optional[float] = None
        self.delta_observations = 0
        self.full_observations = 0


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
        delta cost exceeds ``ratio ×`` the observed full-evaluation cost.
    adaptive:
        Learn per-fingerprint effective parameters from observed refresh
        history (see :meth:`observe_refresh`) instead of applying the
        static defaults to every plan.  Calls that pass no fingerprint
        always see the static behaviour, so ablations and cold planning
        are unaffected.

    **Telemetry-fed adaptation.**  The static constants encode two
    priors: ``index_threshold`` assumes a per-row probe cost near
    :data:`REFERENCE_PER_ROW_SECONDS`, and ``full_refresh_ratio`` pads
    the full-cost comparison because a single full-refresh sample is
    noisy.  Once a plan has history, both priors give way to evidence —
    the threshold scales inversely with the plan's *measured* per-row
    cost (expensive rows → index earlier), and the safety pad decays
    toward 1 as full-refresh observations accumulate.  Every change of
    an effective parameter is an *adaptation*, reported by
    :meth:`observe_refresh` so the maintainer can count it
    (``repro_cost_adaptations_total``) and shown by ``EXPLAIN ANALYZE``.
    """

    #: The per-row delta-apply cost the static ``index_threshold=32``
    #: prior was tuned for (µs-scale rows on the reference workbench).
    REFERENCE_PER_ROW_SECONDS = 2e-6

    #: Effective index thresholds stay within ``base / 4 .. base * 4``.
    ADAPT_CLAMP = 4.0

    #: EWMA smoothing factor for observed costs (0 < alpha ≤ 1).
    EWMA_ALPHA = 0.2

    #: Per-fingerprint histories kept before evicting the oldest plan.
    MAX_HISTORY = 1024

    def __init__(
        self,
        *,
        index_threshold: Optional[int] = 32,
        full_refresh_floor_rows: int = 256,
        full_refresh_ratio: float = 2.0,
        adaptive: bool = True,
    ):
        self.index_threshold = index_threshold
        self.full_refresh_floor_rows = full_refresh_floor_rows
        self.full_refresh_ratio = full_refresh_ratio
        self.adaptive = adaptive
        self._history_lock = threading.Lock()
        self._history: "OrderedDict[str, PlanCostHistory]" = OrderedDict()

    # ------------------------------------------------------------------
    # Observed history (telemetry → planner loop)
    # ------------------------------------------------------------------

    def _history_for(self, fingerprint: str) -> PlanCostHistory:
        """Get-or-create under the lock; bounds the table LRU-by-insert."""
        history = self._history.get(fingerprint)
        if history is None:
            history = self._history[fingerprint] = PlanCostHistory()
            while len(self._history) > self.MAX_HISTORY:
                self._history.popitem(last=False)
        return history

    def observe_refresh(
        self,
        fingerprint: str,
        *,
        per_row_seconds: Optional[float] = None,
        full_seconds: Optional[float] = None,
    ) -> Tuple[str, ...]:
        """Feed one maintained refresh's measured costs into the history.

        Returns the names of effective parameters whose value changed
        (``"index_threshold"`` / ``"full_refresh_ratio"``) so the caller
        can count adaptations; empty when the model is non-adaptive or
        nothing moved.
        """
        if not self.adaptive or not fingerprint:
            return ()
        alpha = self.EWMA_ALPHA
        with self._history_lock:
            history = self._history_for(fingerprint)
            before = self._effective_locked(history)
            if per_row_seconds is not None and per_row_seconds > 0.0:
                if history.per_row_seconds is None:
                    history.per_row_seconds = per_row_seconds
                else:
                    history.per_row_seconds += alpha * (
                        per_row_seconds - history.per_row_seconds
                    )
                history.delta_observations += 1
            if full_seconds is not None and full_seconds > 0.0:
                if history.full_seconds is None:
                    history.full_seconds = full_seconds
                else:
                    history.full_seconds += alpha * (
                        full_seconds - history.full_seconds
                    )
                history.full_observations += 1
            after = self._effective_locked(history)
        return tuple(
            name
            for name, (old, new) in zip(
                ("index_threshold", "full_refresh_ratio"),
                zip(before, after),
            )
            if old != new
        )

    def _effective_locked(
        self, history: Optional[PlanCostHistory]
    ) -> Tuple[Optional[int], float]:
        """(effective index threshold, effective full-refresh ratio)."""
        threshold = self.index_threshold
        ratio = self.full_refresh_ratio
        if history is None or not self.adaptive:
            return threshold, ratio
        if (
            threshold is not None
            and history.per_row_seconds is not None
            and history.per_row_seconds > 0.0
        ):
            scale = self.REFERENCE_PER_ROW_SECONDS / history.per_row_seconds
            scale = min(self.ADAPT_CLAMP, max(1.0 / self.ADAPT_CLAMP, scale))
            threshold = max(1, round(threshold * scale))
        if ratio > 1.0 and history.full_observations > 0:
            # The safety pad exists because one full-refresh sample is
            # noisy; decay it toward 1 as the EWMA gains evidence.
            pad = (ratio - 1.0) / (1.0 + history.full_observations / 4.0)
            ratio = round(1.0 + pad, 4)
        return threshold, ratio

    def effective_index_threshold(
        self, fingerprint: Optional[str] = None
    ) -> Optional[int]:
        """The learned threshold for *fingerprint* (static without one)."""
        with self._history_lock:
            history = (
                self._history.get(fingerprint) if fingerprint else None
            )
            return self._effective_locked(history)[0]

    def effective_full_refresh_ratio(
        self, fingerprint: Optional[str] = None
    ) -> float:
        """The learned safety ratio for *fingerprint* (static without one)."""
        with self._history_lock:
            history = (
                self._history.get(fingerprint) if fingerprint else None
            )
            return self._effective_locked(history)[1]

    def adaptation_report(
        self, fingerprint: Optional[str]
    ) -> Optional[Dict[str, Any]]:
        """The plan's learned parameters as plain data (``None`` if none).

        Surfaced in ``EXPLAIN ANALYZE`` headers and ``/explain`` JSON so
        a learned decision is never invisible.
        """
        if not self.adaptive or not fingerprint:
            return None
        with self._history_lock:
            history = self._history.get(fingerprint)
            if history is None:
                return None
            threshold, ratio = self._effective_locked(history)
            report: Dict[str, Any] = {
                "index_threshold": threshold,
                "full_refresh_ratio": ratio,
            }
            if history.per_row_seconds is not None:
                report["ewma_per_row_us"] = round(
                    history.per_row_seconds * 1e6, 3
                )
            if history.full_seconds is not None:
                report["ewma_full_ms"] = round(history.full_seconds * 1e3, 3)
            report["observations"] = (
                history.delta_observations + history.full_observations
            )
            return report

    # ------------------------------------------------------------------
    # Access path: index vs. scan per probe
    # ------------------------------------------------------------------

    def use_index(
        self, cached_rows: int, fingerprint: Optional[str] = None
    ) -> bool:
        """Probe via the secondary index iff the side is big enough.

        With a *fingerprint* and history, the learned effective threshold
        replaces the static one.
        """
        threshold = self.index_threshold
        if threshold is None:
            return False
        if fingerprint is not None and self.adaptive:
            threshold = self.effective_index_threshold(fingerprint)
        return cached_rows >= threshold

    # ------------------------------------------------------------------
    # Refresh strategy: delta vs. full per flush
    # ------------------------------------------------------------------

    def choose_refresh(
        self,
        *,
        pending_rows: int,
        apply_seconds: float,
        apply_rows: int,
        full_seconds: Optional[float],
        fingerprint: Optional[str] = None,
    ) -> RefreshDecision:
        """Project both strategies from observed stats and pick one.

        *apply_seconds* / *apply_rows* are the evaluator's cumulative
        delta-application wall time and source delta rows (the measured
        per-row delta cost); *full_seconds* is its last observed full
        evaluation, ``None`` when never measured.  With a *fingerprint*
        and accumulated history, the EWMA-smoothed per-plan costs and the
        learned safety ratio replace the cumulative averages and the
        static pad.
        """
        if pending_rows < self.full_refresh_floor_rows:
            return RefreshDecision(
                False,
                f"delta: pending={pending_rows} rows below "
                f"floor={self.full_refresh_floor_rows}",
            )
        ratio = self.full_refresh_ratio
        adapted = ""
        if fingerprint is not None and self.adaptive:
            with self._history_lock:
                history = self._history.get(fingerprint)
                if history is not None:
                    ratio = self._effective_locked(history)[1]
                    if history.per_row_seconds is not None:
                        apply_seconds = history.per_row_seconds
                        apply_rows = 1
                    if history.full_seconds is not None:
                        full_seconds = history.full_seconds
                    adapted = " [adapted]"
        if full_seconds is None or apply_rows <= 0 or apply_seconds <= 0.0:
            return RefreshDecision(
                False,
                f"delta: pending={pending_rows} rows, no observed "
                f"full/delta costs to compare yet",
            )
        per_row = apply_seconds / apply_rows
        projected = pending_rows * per_row
        threshold = full_seconds * ratio
        if projected > threshold:
            return RefreshDecision(
                True,
                f"full: pending={pending_rows} rows × observed "
                f"{per_row * 1e6:.2f}µs/row = {projected * 1e3:.2f}ms "
                f"> {ratio:g}× observed full "
                f"{full_seconds * 1e3:.2f}ms{adapted}",
            )
        return RefreshDecision(
            False,
            f"delta: pending={pending_rows} rows × observed "
            f"{per_row * 1e6:.2f}µs/row = {projected * 1e3:.2f}ms "
            f"<= {ratio:g}× observed full "
            f"{full_seconds * 1e3:.2f}ms{adapted}",
        )


#: Shared default instance (operators fall back to it when their state
#: carries no model — e.g. states built outside a DeltaEvaluator).
DEFAULT_COST_MODEL = CostModel()
