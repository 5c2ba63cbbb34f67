"""Timing and scaling utilities shared by all experiment drivers.

Absolute runtimes on this substrate (pure Python) are not comparable to the
paper's C-in-PostgreSQL numbers; the experiments therefore report *relative*
quantities — ratios, break-even counts, crossovers, result sizes — which are
the paper's actual claims.

Scaling: every experiment accepts a ``scale`` factor.  ``scale=1.0`` is the
laptop-sized default (seconds per experiment, minutes for Fig. 9); the
``REPRO_SCALE`` environment variable overrides it globally, so
``REPRO_SCALE=3 python -m repro.bench all`` runs everything at 3× data.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

__all__ = [
    "REPEATS",
    "default_scale",
    "measure",
    "Measurement",
    "ExperimentResult",
    "breakeven_reevaluations",
    "amortization_instantiations",
]


def default_scale() -> float:
    """The global scale factor (``REPRO_SCALE`` env var, default 1.0)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError:
        return 1.0
    return max(value, 0.01)


#: Timed runs behind every :class:`Measurement`, after one warm-up run.
#: Odd, so the median is one of the runs.
REPEATS = 5


@dataclass(frozen=True)
class Measurement:
    """The median and quartiles of :data:`REPEATS` timed runs, in seconds;
    printed as ``<median>ms ±<spread>``."""

    seconds: float
    q1: float
    q3: float

    @property
    def millis(self) -> float:
        return self.seconds * 1e3

    @property
    def spread(self) -> float:
        """Inter-quartile distance ÷ median (the ledger's quartile spread)."""
        return (self.q3 - self.q1) / self.seconds if self.seconds else 0.0

    def __str__(self) -> str:
        return f"{self.millis:.1f}ms ±{self.spread:.0%}"


def measure(fn: Callable[[], object]) -> Measurement:
    """``fn()``'s wall-clock runtime over :data:`REPEATS` runs.

    One warm-up run first absorbs lazy imports, the tables' per-version
    caches (snapshot, interval and partition indexes) and allocator
    effects, so every timed run does the same work.
    """
    fn()
    samples: List[float] = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return Measurement(seconds=median, q1=q1, q3=q3)


@dataclass
class ExperimentResult:
    """Structured output of one experiment driver.

    ``rows`` are printable result lines (the paper-style series);
    ``checks`` map shape-assertions to booleans (reproduced or not);
    ``data`` carries raw numbers for downstream consumers.
    """

    experiment: str
    title: str
    rows: List[str] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    data: Dict[str, object] = field(default_factory=dict)

    def add_row(self, text: str) -> None:
        self.rows.append(text)

    def add_check(self, name: str, passed: bool) -> None:
        self.checks[name] = passed

    def all_passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def format(self) -> str:
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.extend(self.rows)
        if self.checks:
            lines.append("-- shape checks --")
            for name, passed in self.checks.items():
                status = "PASS" if passed else "FAIL"
                lines.append(f"  [{status}] {name}")
        return "\n".join(lines)


def breakeven_reevaluations(ongoing_seconds: float, clifford_seconds: float) -> int:
    """Re-evaluations after which the ongoing approach is cheaper (Fig. 8).

    The ongoing approach evaluates once; Clifford evaluates once per
    re-evaluation.  The break-even is the smallest ``k`` with
    ``ongoing <= (k + 1) * clifford`` (``k = 0`` means the first evaluation
    already ties).
    """
    if clifford_seconds <= 0:
        return 0
    return max(0, math.ceil(ongoing_seconds / clifford_seconds) - 1)


def amortization_instantiations(
    ongoing_seconds: float, instantiate_seconds: float, clifford_seconds: float
) -> float:
    """Instantiations needed for the materialized ongoing result to win.

    Serving ``n`` instantiated results costs ``ongoing + n * instantiate``
    from the materialized result and ``n * clifford`` by re-evaluating;
    the crossover (Fig. 11's y-axis, fractional) is
    ``ongoing / (clifford - instantiate)`` — infinite when instantiating is
    not cheaper than re-running the query.
    """
    margin = clifford_seconds - instantiate_seconds
    if margin <= 0:
        return math.inf
    return ongoing_seconds / margin
