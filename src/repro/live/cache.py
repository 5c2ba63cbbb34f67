"""The shared-result cache: one materialization per distinct plan.

Two clients subscribing to structurally equal plans must not pay for two
materializations — the ongoing result is identical, so they share one
:class:`SharedResult` keyed by the plan's deterministic fingerprint
(:meth:`~repro.engine.plan.PlanNode.fingerprint`).  This is the server-side
half of the paper's amortization argument (Figs. 11–12): the engine
evaluates once, and *every* subscriber instantiates cheaply at its own
reference time.

Since the delta-propagation engine (:mod:`repro.engine.delta`), a shared
result also owns the per-operator incremental state for its plan — the
pending row deltas and the refresh-with-fallback protocol live in one
:class:`~repro.engine.maintenance.IncrementalMaintainer`
(shared with :class:`~repro.engine.views.MaterializedOngoingView`), which
is also the single synchronization point the concurrent serving layer
(:mod:`repro.serve`) guards.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.engine.database import Database
from repro.engine.delta import Delta
from repro.engine.maintenance import IncrementalMaintainer, RefreshOutcome
from repro.engine.plan import PlanNode
from repro.relational.relation import OngoingRelation

__all__ = ["SharedResult", "ResultCache"]


class SharedResult:
    """One materialized ongoing result shared by all equal-plan subscribers."""

    def __init__(
        self,
        plan: PlanNode,
        fingerprint: str,
        *,
        state_budget_bytes: Optional[int] = None,
        registry=None,
        tracer=None,
    ):
        self.plan = plan
        self.fingerprint = fingerprint
        #: Per-maintainer cap on evictable operator-state memory
        #: (storage-layout bytes); ``None`` = unbounded.  Set by the
        #: session before the first evaluation.
        self.state_budget_bytes = state_budget_bytes
        #: Session telemetry, threaded into the maintainer: the metrics
        #: registry receives labeled fallback records, the (optional)
        #: trace recorder the per-operator apply spans.
        self.registry = registry
        self.tracer = tracer
        #: Subscriptions currently attached to this result.
        self.subscribers: List[object] = []
        #: The maintenance state machine; created on the first evaluation
        #: (the database is not known before then).
        self._maintainer: Optional[IncrementalMaintainer] = None

    # ------------------------------------------------------------------
    # Maintenance state (delegated to the IncrementalMaintainer)
    # ------------------------------------------------------------------

    def _ensure_maintainer(self, database: Database) -> IncrementalMaintainer:
        if self._maintainer is None:
            self._maintainer = IncrementalMaintainer(
                self.plan,
                database,
                label=f"plan {self.fingerprint[:12]}",
                state_budget_bytes=self.state_budget_bytes,
                fingerprint=self.fingerprint,
                registry=self.registry,
                tracer=self.tracer,
            )
        return self._maintainer

    @property
    def result(self) -> Optional[OngoingRelation]:
        """The shared snapshot — lazy and version-cached.

        Every subscriber of this fingerprint reading the same version
        receives the *same* immutable relation object: one copy serves
        them all, and a refresh whose subscribers never read pays no copy
        at all.
        """
        maintainer = self._maintainer
        return None if maintainer is None else maintainer.result

    @property
    def evaluations(self) -> int:
        """Times the plan was (re-)evaluated — full and incremental both."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.evaluations

    @property
    def delta_refreshes(self) -> int:
        """How many refreshes were incremental delta applications."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.delta_refreshes

    @property
    def delta_fallbacks(self) -> int:
        """How many delta attempts fell back to a full re-evaluation."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.delta_fallbacks

    @property
    def cost_full_refreshes(self) -> int:
        """Full refreshes deliberately chosen by the cost model."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.cost_full_refreshes

    @property
    def cost_adaptations(self) -> int:
        """Cost-model parameter changes driven by observed refresh costs."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.cost_adaptations

    @property
    def snapshots_taken(self) -> int:
        """Snapshot copies materialized (at most one per read version)."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.snapshots_taken

    @property
    def snapshots_reused(self) -> int:
        """Reads served from an already-materialized snapshot."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.snapshots_reused

    @property
    def state_evictions(self) -> int:
        """Operator states dropped by the memory budget."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.state_evictions

    @property
    def state_rebuilds(self) -> int:
        """Refreshes that rebuilt budget-evicted state (miss counter)."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.state_rebuilds

    def state_bytes(self) -> int:
        """Estimated evictable operator-state memory (storage-layout
        bytes); 0 while the state is cold or evicted."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.state_bytes()

    def node_report(self) -> List[dict]:
        """Per-operator live counters (see
        :meth:`~repro.engine.maintenance.IncrementalMaintainer.node_report`);
        empty before the first evaluation."""
        maintainer = self._maintainer
        return [] if maintainer is None else maintainer.node_report()

    def explain_analyze(self, *, format: str = "text"):
        """The plan tree annotated with live per-operator counters.

        ``format="json"`` returns the same report as plain data (see
        :func:`~repro.obs.explain.explain_analyze_data`).
        """
        maintainer = self._maintainer
        if maintainer is None:
            from repro.obs.explain import (
                explain_analyze_data,
                render_explain_analyze,
            )

            if format not in ("text", "json"):
                raise ValueError(
                    f"unknown explain format {format!r}; use 'text' or 'json'"
                )
            renderer = (
                render_explain_analyze if format == "text" else explain_analyze_data
            )
            return renderer(
                [],
                label=f"plan {self.fingerprint[:12]}",
                fingerprint=self.fingerprint,
                cold_reason="not yet evaluated",
            )
        return maintainer.explain_analyze(format=format)

    def note_change(self, table: str, delta: Delta) -> None:
        """Accumulate one table delta for the next refresh (thread-safe)."""
        if self._maintainer is not None:
            self._maintainer.note_change(table, delta)

    def pending_empty(self) -> bool:
        return self._maintainer is None or self._maintainer.pending_empty()

    def change_count(self) -> int:
        """Monotonic count of change events offered to this result."""
        maintainer = self._maintainer
        return 0 if maintainer is None else maintainer.changes

    def pending_snapshot(self) -> Mapping[str, Delta]:
        """The accumulated-but-unapplied deltas (introspection only)."""
        if self._maintainer is None:
            return {}
        return self._maintainer.pending_snapshot()

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def evaluate(
        self, database: Database, *, incremental: bool = True
    ) -> RefreshOutcome:
        """(Re-)run the plan fully; the result is served lazily afterwards.

        The full run also (re)builds the plan's per-operator delta state,
        so the *next* refresh can ride the incremental path.  Pass
        ``incremental=False`` (a session-level choice) to skip the state
        building entirely — the baseline then pays exactly one plain
        evaluation, nothing more.
        """
        return self._ensure_maintainer(database).evaluate(
            incremental=incremental
        )

    def refresh(
        self, database: Database, *, incremental: bool = True
    ) -> RefreshOutcome:
        """One flush-driven refresh; returns its :class:`RefreshOutcome`.

        ``outcome.delta is None`` means the refresh was a full
        re-evaluation — because incremental maintenance is disabled, the
        state was cold or budget-evicted, the accumulated deltas were
        full-flagged, or the propagation fell back.  The fallback is
        automatic and logged; ``outcome.changed`` tells the caller
        whether to notify, with no snapshot materialized on the delta
        path.
        """
        return self._ensure_maintainer(database).refresh(
            incremental=incremental
        )

    @property
    def subscriber_count(self) -> int:
        return len(self.subscribers)

    def __repr__(self) -> str:
        return (
            f"SharedResult({self.fingerprint[:12]}…, "
            f"subscribers={self.subscriber_count}, "
            f"evaluations={self.evaluations}, "
            f"delta={self.delta_refreshes})"
        )


class ResultCache:
    """Fingerprint-keyed cache of :class:`SharedResult` entries.

    Not internally synchronized: the owning
    :class:`~repro.live.manager.SubscriptionManager` guards every access
    with its session lock.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, SharedResult] = {}
        self.hits = 0
        self.misses = 0

    def get_or_create(
        self,
        plan: PlanNode,
        *,
        state_budget_bytes: Optional[int] = None,
        registry=None,
        tracer=None,
    ) -> Tuple[SharedResult, bool]:
        """The shared entry for *plan*'s fingerprint.

        Returns ``(entry, created)`` — ``created`` is ``True`` when this
        call materialized a new cache entry (the caller then registers its
        dependencies and runs the first evaluation).  *state_budget_bytes*,
        *registry*, and *tracer* configure a newly created entry's
        maintainer; an existing entry keeps what it was created with.
        """
        fingerprint = plan.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self.hits += 1
            return entry, False
        self.misses += 1
        entry = SharedResult(
            plan,
            fingerprint,
            state_budget_bytes=state_budget_bytes,
            registry=registry,
            tracer=tracer,
        )
        self._entries[fingerprint] = entry
        return entry, True

    def get(self, fingerprint: str) -> Optional[SharedResult]:
        return self._entries.get(fingerprint)

    def remove(self, fingerprint: str) -> None:
        self._entries.pop(fingerprint, None)

    def fingerprints(self) -> Set[str]:
        return set(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries
