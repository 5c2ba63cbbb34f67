"""Freshness SLOs: error-budget burn over delivered-result ages.

The paper's contract is that a subscriber's result is *valid as time
passes* — operationally, the question becomes "how long after a write
does the refreshed result actually reach the subscriber?".  The live
layer measures exactly that (the ``repro_freshness_seconds`` histogram:
commit tick → delivery), and this module turns the stream of measured
ages into a health signal:

* an **objective** — "``objective`` of deliveries land within
  ``target_seconds``" (e.g. 99% within 100 ms);
* the **error budget** — the tolerated violation fraction,
  ``1 - objective``;
* the **burn rate** — observed violation fraction divided by the
  budget.  Burn ≤ 1 means the window is inside budget; burn 2 means
  violations are arriving at twice the tolerated rate.

The SLO only observes.  Its readers are the ``/health`` endpoint
(:mod:`repro.obs.server`), which reports 200/503 from :meth:`healthy`
with the burn detail, :meth:`snapshot`, and the session's freshness
feed that calls :meth:`observe`.  Nothing steers by it: the serve loop's
debounce reads the queue depth, not the burn.

Like the rest of :mod:`repro.obs` this is dependency-free and imports
nothing from the engine layers above it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict

__all__ = ["FreshnessSLO"]


class FreshnessSLO:
    """Sliding-window error-budget accounting for delivery freshness.

    ``target_seconds`` is the per-delivery freshness target,
    ``objective`` the fraction of deliveries that must meet it, and
    ``window`` how many recent deliveries the budget is computed over.
    Thread-safe; :meth:`observe` is O(1).
    """

    def __init__(
        self,
        target_seconds: float,
        *,
        objective: float = 0.99,
        window: int = 256,
    ) -> None:
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if window < 1:
            raise ValueError("window must hold at least one observation")
        self.target_seconds = float(target_seconds)
        self.objective = float(objective)
        self.window = int(window)
        self._lock = threading.Lock()
        # Ring of 0/1 violation flags; counters keep the math O(1).
        self._violations: deque = deque(maxlen=self.window)
        self._violation_count = 0
        self._observed = 0
        self._violated_total = 0

    def observe(self, seconds: float) -> None:
        """Record one delivered-result age (write → deliver, seconds)."""
        violated = seconds > self.target_seconds
        with self._lock:
            if (
                len(self._violations) == self.window
                and self._violations[0]
            ):
                self._violation_count -= 1
            self._violations.append(1 if violated else 0)
            if violated:
                self._violation_count += 1
                self._violated_total += 1
            self._observed += 1

    def compliance(self) -> float:
        """Fraction of the window meeting the target (1.0 when empty)."""
        with self._lock:
            seen = len(self._violations)
            if seen == 0:
                return 1.0
            return 1.0 - self._violation_count / seen

    def error_budget_burn(self) -> float:
        """Observed violation rate over the tolerated rate.

        0.0 when nothing observed yet; ≤ 1.0 while inside budget.
        """
        return (1.0 - self.compliance()) / (1.0 - self.objective)

    def healthy(self) -> bool:
        """Whether the window is inside its error budget."""
        return self.error_budget_burn() <= 1.0

    def snapshot(self) -> Dict[str, Any]:
        """The SLO state as plain data (used by ``/health``)."""
        with self._lock:
            seen = len(self._violations)
            violations = self._violation_count
            observed = self._observed
            violated_total = self._violated_total
        compliance = 1.0 if seen == 0 else 1.0 - violations / seen
        burn = (1.0 - compliance) / (1.0 - self.objective)
        return {
            "target_seconds": self.target_seconds,
            "objective": self.objective,
            "window": self.window,
            "window_filled": seen,
            "window_violations": violations,
            "observed_total": observed,
            "violated_total": violated_total,
            "compliance": compliance,
            "error_budget_burn": burn,
            "healthy": burn <= 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = self.snapshot()
        return (
            f"FreshnessSLO(target={self.target_seconds}s, "
            f"objective={self.objective}, burn={snap['error_budget_burn']:.2f})"
        )
