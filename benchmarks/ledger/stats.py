"""What the ledger measures with: the wall-clock timer, the estimators
(median, supported tail percentile, quartile spread) and the run stamp."""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Tail percentiles tried from the top; one is reported only when at
#: least this many samples lie beyond it.
TAILS = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


#: Regression bounds of the end-to-end metrics the driver does not gate:
#: the issue's, applied by ``compare.py`` and ``steadiness.py``.  They sit
#: in ``BENCHMARK.json``'s per-layer list, which has no bounds, because
#: they cannot repeat within a tenth on the reference sandbox (README.md,
#: "Gated and ungated").
UNGATED_BOUNDS = {
    "commits_per_s": 0.10,
    "deliver_p50_ms": 0.10,
    "deliver_p99_ms": 0.20,
    "query_s": 0.10,
    "instantiate_ms": 0.10,
    "recover_s": 0.10,
    "checkpoint_s": 0.10,
}


def end_to_end_bounds(contract: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """name → ``{"bound", "better", "unit", "gated"}`` of every end-to-end
    metric: those ``BENCHMARK.json`` gates, then the ungated ones."""
    bounds = {
        item["name"]: {**item, "gated": True} for item in contract["end_to_end"]
    }
    for item in contract["per_layer"]:
        if item["name"] in UNGATED_BOUNDS:
            bounds[item["name"]] = {
                **item, "bound": UNGATED_BOUNDS[item["name"]], "gated": False
            }
    return bounds


class Timer:
    """Wall-clock seconds (``time.perf_counter``) of the blocks it wraps."""

    def __init__(self) -> None:
        self.seconds: List[float] = []

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds.append(time.perf_counter() - self._started)


def timed_passes(
    work: Dict[str, Callable[[], object]], runs: int
) -> Tuple[Dict[str, Timer], Dict[str, object]]:
    """Call every item of *work* once per pass, *runs* passes.

    Returns one :class:`Timer` per item and the results of the last pass.
    """
    timers = {name: Timer() for name in work}
    results: Dict[str, object] = {}
    for _ in range(runs):
        for name, call in work.items():
            with timers[name]:
                results[name] = call()
    return timers, results


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(values: Sequence[float]) -> Optional[Tuple[str, float]]:
    """The highest percentile with ``MIN_BEYOND`` samples beyond it."""
    ordered = sorted(values)
    for q in TAILS:
        if len(ordered) * (1.0 - q / 100.0) >= MIN_BEYOND:
            return (f"p{q:g}", percentile(ordered, q))
    return None


def summary(values: Sequence[float]) -> Dict[str, object]:
    """``{"median", "tail", "tail_value", "n"}`` of one timing sample."""
    if not values:
        return {"median": 0.0, "tail": None, "tail_value": None, "n": 0}
    tail = supported_tail(values)
    return {
        "median": statistics.median(values),
        "tail": tail[0] if tail else None,
        "tail_value": tail[1] if tail else None,
        "n": len(values),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance ÷ median.

    The same statistic the benchmark driver applies to ten runs:
    ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(root: Path, seed: int) -> Dict[str, object]:
    """What a result was measured on: commit, interpreter, machine, knobs."""
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "switch_interval": sys.getswitchinterval(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
    }
