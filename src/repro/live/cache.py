"""The shared-result cache: one materialization per distinct plan.

Two clients subscribing to structurally equal plans must not pay for two
materializations — the ongoing result is identical, so they share one
:class:`SharedResult` keyed by the plan's deterministic fingerprint
(:meth:`~repro.engine.plan.PlanNode.fingerprint`).  This is the server-side
half of the paper's amortization argument (Figs. 11–12): the engine
evaluates once, and *every* subscriber instantiates cheaply at its own
reference time.

A shared result is a thin front of its plan's
:class:`~repro.engine.maintenance.IncrementalMaintainer` (shared with
:class:`~repro.engine.views.MaterializedOngoingView`) — the per-operator
incremental state, the pending row deltas and the refresh-with-fallback
protocol all live there, and it is the single synchronization point the
concurrent serving layer (:mod:`repro.serve`) guards.  The maintainer is
built with the shared result, from the database the session subscribes
against, so there is no "not yet evaluated" state to guard: a result the
session can reach has been evaluated.
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
    """One materialized ongoing result shared by all equal-plan subscribers.

    A thin, always-live front of the plan's
    :class:`~repro.engine.maintenance.IncrementalMaintainer`: the session
    creates it with the database it subscribes against and evaluates it
    before anyone can reach it, so every counter below reads straight
    through.
    """

    def __init__(
        self,
        plan: PlanNode,
        fingerprint: str,
        database: Database,
        *,
        state_budget_bytes: Optional[int] = None,
        registry=None,
        tracer=None,
    ):
        self.plan = plan
        self.fingerprint = fingerprint
        #: Subscriptions currently attached to this result.
        self.subscribers: List[object] = []
        #: The maintenance state machine.  *state_budget_bytes* caps its
        #: evictable operator-state memory (``None`` = unbounded); the
        #: session's metrics *registry* receives labeled fallback
        #: records, its (optional) *tracer* the per-operator apply spans.
        self._maintainer = IncrementalMaintainer(
            plan,
            database,
            label=f"plan {fingerprint[:12]}",
            state_budget_bytes=state_budget_bytes,
            fingerprint=fingerprint,
            registry=registry,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Maintenance state (delegated to the IncrementalMaintainer)
    # ------------------------------------------------------------------

    @property
    def result(self) -> Optional[OngoingRelation]:
        """The shared snapshot — lazy and version-cached.

        Every subscriber of this fingerprint reading the same version
        receives the *same* immutable relation object: one copy serves
        them all, and a refresh whose subscribers never read pays no copy
        at all.
        """
        return self._maintainer.result

    @property
    def evaluations(self) -> int:
        """Times the plan was (re-)evaluated — full and incremental both."""
        return self._maintainer.evaluations

    @property
    def delta_refreshes(self) -> int:
        """How many refreshes were incremental delta applications."""
        return self._maintainer.delta_refreshes

    @property
    def delta_fallbacks(self) -> int:
        """How many delta attempts fell back to a full re-evaluation."""
        return self._maintainer.delta_fallbacks

    @property
    def cost_full_refreshes(self) -> int:
        """Full refreshes deliberately chosen by the cost model."""
        return self._maintainer.cost_full_refreshes

    @property
    def cost_adaptations(self) -> int:
        """Cost-model parameter changes driven by observed refresh costs."""
        return self._maintainer.cost_adaptations

    @property
    def snapshots_taken(self) -> int:
        """Snapshot copies materialized (at most one per read version)."""
        return self._maintainer.snapshots_taken

    @property
    def snapshots_reused(self) -> int:
        """Reads served from an already-materialized snapshot."""
        return self._maintainer.snapshots_reused

    @property
    def state_evictions(self) -> int:
        """Operator states dropped by the memory budget."""
        return self._maintainer.state_evictions

    @property
    def state_rebuilds(self) -> int:
        """Refreshes that rebuilt budget-evicted state (miss counter)."""
        return self._maintainer.state_rebuilds

    def state_bytes(self) -> int:
        """Estimated evictable operator-state memory (storage-layout
        bytes); 0 while the state is evicted."""
        return self._maintainer.state_bytes()

    def node_report(self) -> List[dict]:
        """Per-operator live counters (see
        :meth:`~repro.engine.maintenance.IncrementalMaintainer.node_report`);
        empty while the state is evicted."""
        return self._maintainer.node_report()

    def explain_analyze(self, *, format: str = "text"):
        """The plan tree annotated with live per-operator counters.

        ``format="json"`` returns the same report as plain data (see
        :func:`~repro.obs.explain.explain_analyze_data`).
        """
        return self._maintainer.explain_analyze(format=format)

    def note_change(self, table: str, delta: Delta) -> None:
        """Accumulate one table delta for the next refresh (thread-safe)."""
        self._maintainer.note_change(table, delta)

    def change_count(self) -> int:
        """Monotonic count of change events offered to this result."""
        return self._maintainer.changes

    def pending_snapshot(self) -> Mapping[str, Delta]:
        """The accumulated-but-unapplied deltas (introspection only)."""
        return self._maintainer.pending_snapshot()

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def evaluate(self) -> RefreshOutcome:
        """(Re-)run the plan fully; the result is served lazily afterwards.

        The full run also (re)builds the plan's per-operator delta state,
        so the *next* refresh can ride the incremental path.
        """
        return self._maintainer.evaluate()

    def refresh(self) -> RefreshOutcome:
        """One flush-driven refresh; returns its :class:`RefreshOutcome`.

        ``outcome.delta is None`` means the refresh was a full
        re-evaluation — because the state was budget-evicted, the
        accumulated deltas were full-flagged, the propagation fell back,
        or the cost model chose it.  The fallback is automatic and
        logged; ``outcome.changed`` tells the caller whether to notify,
        with no snapshot materialized on the delta path.
        """
        return self._maintainer.refresh()

    def __repr__(self) -> str:
        return (
            f"SharedResult({self.fingerprint[:12]}…, "
            f"subscribers={len(self.subscribers)}, "
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
        database: Database,
        *,
        state_budget_bytes: Optional[int] = None,
        registry=None,
        tracer=None,
    ) -> Tuple[SharedResult, bool]:
        """The shared entry for *plan*'s fingerprint.

        Returns ``(entry, created)`` — ``created`` is ``True`` when this
        call materialized a new cache entry (the caller then registers its
        dependencies and runs the first evaluation).  *database*,
        *state_budget_bytes*, *registry*, and *tracer* configure a newly
        created entry's maintainer; an existing entry keeps what it was
        created with.
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
            database,
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
