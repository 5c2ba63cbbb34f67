"""The metrics registry: one surface over every counter in the engine.

A value reaches the registry one way: a **collector** — a callable
registered via :meth:`Registry.register_collector` — reads, at
*snapshot time*, a counter its owner already keeps (the live session's
``stats()``, the bus's delivery counts, the result stores' snapshot
accounting, each operator's node report, the WAL).  The hot paths keep
their own counters under their own locks; the registry pays the
unification cost only when somebody scrapes.

The one native family is a :class:`Histogram`,
``repro_freshness_seconds``: a distribution cannot be read back from a
counter, so each delivery observes into it once.  Its per-child lock is
uncontended in the common case and *correct* under threads (``x += 1``
is not atomic in CPython once contention makes the interpreter switch
mid-read).

Two read calls:

* :meth:`Registry.snapshot` — every metric as plain data;
* :meth:`Registry.render_prometheus` — the Prometheus text exposition
  format (``repro_<layer>_<what>_total`` canonical names).
"""

from __future__ import annotations

import math
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

__all__ = [
    "Histogram",
    "Registry",
    "Sample",
    "FRESHNESS_BUCKETS",
]

#: Bucket bounds for write→deliver freshness (``repro_freshness_seconds``).
#: A delivery answers for the *oldest* coalesced write, so debounce
#: windows and queue time dominate and the interesting range runs from
#: sub-millisecond to a minute.
FRESHNESS_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class Sample(NamedTuple):
    """One collector-produced time series sample.

    Collectors return iterables of these; ``kind`` is ``"counter"`` or
    ``"gauge"`` (collectors never emit histograms — the one histogram is
    native).
    """

    name: str
    labels: Dict[str, str]
    value: float
    kind: str = "counter"
    help: str = ""


def _validate_name(name: str) -> str:
    if not name or not all(
        ch.isalnum() or ch in "_:" for ch in name
    ) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _HistogramChild:
    """One labeled histogram series: cumulative buckets, sum, count."""

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self._lock = threading.Lock()
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            cumulative: Dict[str, int] = {}
            running = 0
            for bound, count in zip(self.buckets, self.counts):
                running += count
                cumulative[_format_value(bound)] = running
            cumulative["+Inf"] = running + self.counts[-1]
            return {
                "buckets": cumulative,
                "sum": self.sum,
                "count": self.count,
            }


class Histogram:
    """A fixed-bucket distribution: named, labeled children."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float],
    ):
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(float(bound) for bound in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _HistogramChild] = {}

    def labels(self, *values: object, **kwargs: object) -> _HistogramChild:
        """The child for one label-value combination (created on first use)."""
        if kwargs:
            if values:
                raise ValueError(
                    "pass label values positionally or by name, not both"
                )
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name} expects labels {self.labelnames}"
                ) from exc
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label "
                f"values {self.labelnames}, got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(self.buckets)
            return child

    def observe(self, value: float) -> None:
        """Observe into the unlabeled child (an unlabeled family only)."""
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {self.labelnames}; "
                "call .labels(...) first"
            )
        self.labels().observe(value)

    def samples(self) -> List[Tuple[Dict[str, str], _HistogramChild]]:
        with self._lock:
            children = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in children
        ]

    def quantile(self, q: float) -> float:
        """The ``q``-quantile over every labeled child combined.

        Sums the children's per-bucket counts, then walks the cumulative
        counts and interpolates linearly inside the bucket holding the
        target rank — the same math as PromQL's ``histogram_quantile``.
        Observations in the ``+Inf`` bucket clamp to the highest finite
        bound (there is no upper edge to interpolate toward).  Returns
        ``nan`` when no child has observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        merged = [0] * (len(self.buckets) + 1)
        total = 0
        for _, child in self.samples():
            with child._lock:
                for index, count in enumerate(child.counts):
                    merged[index] += count
                total += child.count
        if total == 0:
            return math.nan
        rank = q * total
        running = 0.0
        lower = 0.0
        for bound, count in zip(self.buckets, merged):
            if running + count >= rank and count > 0:
                return lower + (bound - lower) * (rank - running) / count
            running += count
            lower = bound
        return self.buckets[-1]


class Registry:
    """Pull-at-snapshot collectors plus the native histogram families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float],
    ) -> Histogram:
        """Get or create the histogram family *name*; a second call must
        ask for the same labels and bucket layout."""
        created = Histogram(name, help, labelnames, buckets)
        with self._lock:
            existing = self._histograms.get(name)
            if existing is None:
                self._histograms[name] = created
                return created
        if (existing.labelnames, existing.buckets) != (
            created.labelnames,
            created.buckets,
        ):
            raise ValueError(
                f"histogram {name!r} already registered with labels "
                f"{existing.labelnames} and buckets {existing.buckets}"
            )
        return existing

    def register_collector(
        self, collector: Callable[[], Iterable[Sample]]
    ) -> Callable[[], None]:
        """Register a pull-time sample source; returns an unregister thunk.

        Collectors run inside :meth:`snapshot` (and therefore inside
        :meth:`render_prometheus`).  A raising collector is skipped for
        that snapshot — scraping must never take the engine down.
        """
        with self._lock:
            self._collectors.append(collector)

        def unregister() -> None:
            with self._lock:
                try:
                    self._collectors.remove(collector)
                except ValueError:
                    pass

        return unregister

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every metric — native and collected — as plain data.

        ``{name: {"kind": ..., "help": ..., "samples": [{"labels": {...},
        "value": ...}, ...]}}``; histogram sample values are dicts with
        ``buckets`` / ``sum`` / ``count``.
        """
        with self._lock:
            histograms = list(self._histograms.values())
            collectors = list(self._collectors)
        data: Dict[str, Dict[str, Any]] = {}
        for histogram in histograms:
            data[histogram.name] = {
                "kind": histogram.kind,
                "help": histogram.help,
                "samples": [
                    {"labels": labels, "value": child.snapshot()}
                    for labels, child in histogram.samples()
                ],
            }
        for collector in collectors:
            try:
                samples = list(collector())
            except Exception:  # noqa: BLE001 — scraping must never raise
                continue
            for sample in samples:
                entry = data.setdefault(
                    sample.name,
                    {
                        "kind": sample.kind,
                        "help": sample.help,
                        "samples": [],
                    },
                )
                entry["samples"].append(
                    {"labels": dict(sample.labels), "value": sample.value}
                )
        return data

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        snapshot = self.snapshot()
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry["kind"]
            if entry["help"]:
                lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in entry["samples"]:
                labels = sample["labels"]
                value = sample["value"]
                if kind == "histogram":
                    for bound, count in value["buckets"].items():
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = bound
                        lines.append(
                            f"{name}_bucket"
                            f"{_format_labels(bucket_labels)} {count}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} "
                        f"{_format_value(value['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(labels)} "
                        f"{value['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(labels)} "
                        f"{_format_value(float(value))}"
                    )
        return "\n".join(lines) + "\n" if lines else ""
