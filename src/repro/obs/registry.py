"""The metrics registry: one surface over every counter in the engine.

Before this module, each layer kept its own ad-hoc stats — the live
session's ``stats()`` dict, per-mailbox delivery counters,
result-store snapshot stats — with no single place to read them and no
stable naming.  The
:class:`Registry` absorbs them all behind three calls:

* :meth:`Registry.snapshot` — every metric as plain data;
* :meth:`Registry.render_prometheus` — the Prometheus text exposition
  format (``repro_<layer>_<what>_total`` canonical names);
* :meth:`Registry.render_json` — the same snapshot as JSON.

Two ways for a value to reach the registry:

1. **Native metrics** — :class:`Counter` / :class:`Gauge` /
   :class:`Histogram` families created via :meth:`Registry.counter` etc.
   and incremented on the hot path.  Increments are lock-cheap: one
   uncontended ``threading.Lock`` per labeled child, nothing global —
   and *correct* under threads (``dict[k] += 1`` is not atomic in
   CPython once contention makes the interpreter switch mid-read).
2. **Collectors** — callables registered via
   :meth:`Registry.register_collector` that pull existing stats
   structures at *snapshot time*.  The hot paths keep their current
   counters (already guarded by their own locks); the registry pays the
   unification cost only when somebody scrapes.

The registry also owns the **fallback log**: every
:class:`~repro.engine.delta.NonIncrementalDelta` that forces a full
re-evaluation is recorded via :meth:`record_fallback` with its plan
fingerprint, operator kind, triggering table, cause, and delta shape —
both as a bounded structured log (:meth:`fallbacks`) and as the labeled
``repro_delta_fallbacks_total`` counter.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Sample",
    "DEFAULT_BUCKETS",
    "FRESHNESS_BUCKETS",
]

#: Default histogram bucket upper bounds, in seconds — tuned for the
#: refresh pipeline, whose per-operator warm apply sits well under a
#: millisecond (the ledger's ``delta.apply_ms.*`` rows).
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
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
)

#: Bucket bounds for write→deliver freshness (``repro_freshness_seconds``).
#: Wider than the flush-latency buckets: a delivery answers for the
#: *oldest* coalesced write, so debounce windows and queue time dominate
#: and the interesting range runs from sub-millisecond to a minute.
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
    ``"gauge"`` (collectors never emit histograms — those belong to the
    native hot-path metrics).
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


class _Child:
    """One labeled time series of a counter or gauge family.

    The per-child lock is the whole thread-safety story: increments from
    any number of threads serialize on it (uncontended in the common
    case — different labels, different locks), so totals equal the
    ground-truth event counts exactly.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


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

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation.

        The estimate walks the cumulative bucket counts and interpolates
        linearly inside the bucket containing the target rank — the same
        math as PromQL's ``histogram_quantile``.  Observations in the
        ``+Inf`` bucket clamp to the highest finite bound (there is no
        upper edge to interpolate toward).  Returns ``nan`` for an empty
        series.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            counts = list(self.counts)
            total = self.count
        return _bucket_quantile(self.buckets, counts, total, q)


def _bucket_quantile(
    buckets: Tuple[float, ...],
    counts: List[int],
    total: int,
    q: float,
) -> float:
    """Shared quantile math over per-bucket (non-cumulative) counts."""
    if total == 0:
        return math.nan
    rank = q * total
    running = 0.0
    lower = 0.0
    for bound, count in zip(buckets, counts):
        if running + count >= rank and count > 0:
            fraction = (rank - running) / count
            return lower + (bound - lower) * fraction
        running += count
        lower = bound
    # Rank lands in the +Inf bucket: clamp to the highest finite bound.
    return buckets[-1]


class _MetricFamily:
    """Base of the native metric families: named, labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        return _Child()

    def labels(self, *values: object, **kwargs: object) -> Any:
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
                child = self._children[key] = self._make_child()
            return child

    def _default_child(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {self.labelnames}; "
                "call .labels(...) first"
            )
        return self.labels()

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        with self._lock:
            children = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in children
        ]


class Counter(_MetricFamily):
    """A monotonically increasing total (``..._total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        """Sum over every labeled child (the family total)."""
        return sum(child.value for _, child in self.samples())


class Gauge(_MetricFamily):
    """A value that can go up and down (queue depths, state bytes)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return sum(child.value for _, child in self.samples())


class Histogram(_MetricFamily):
    """Fixed-bucket distribution (latencies, delta sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(bound) for bound in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile over every labeled child combined.

        Children share one bucket layout, so the family-level estimate
        just sums their per-bucket counts before interpolating.  Returns
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
        return _bucket_quantile(self.buckets, merged, total, q)


class FallbackRecord(NamedTuple):
    """One recorded :class:`NonIncrementalDelta` fallback."""

    fingerprint: str
    operator: str
    table: str
    cause: str
    delta_shape: str


class Registry:
    """Get-or-create metric families plus pull-at-snapshot collectors."""

    #: How many structured fallback records to keep for inspection.
    MAX_FALLBACKS = 256

    #: The canonical labeled fallback counter fed by :meth:`record_fallback`.
    FALLBACK_METRIC = "repro_delta_fallbacks_total"

    #: Counts structured fallback records evicted from the bounded log.
    FALLBACK_DROPPED_METRIC = "repro_fallback_records_dropped_total"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _MetricFamily] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []
        self._fallback_lock = threading.Lock()
        self._fallbacks: deque = deque(maxlen=self.MAX_FALLBACKS)
        self._fallbacks_dropped = 0

    # ------------------------------------------------------------------
    # Family creation (idempotent get-or-create)
    # ------------------------------------------------------------------

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def register_collector(
        self, collector: Callable[[], Iterable[Sample]]
    ) -> Callable[[], None]:
        """Register a pull-time sample source; returns an unregister thunk.

        Collectors run inside :meth:`snapshot` (and therefore inside both
        renderers).  A raising collector is skipped for that snapshot —
        scraping must never take the engine down.
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

    # ------------------------------------------------------------------
    # The fallback log
    # ------------------------------------------------------------------

    def record_fallback(
        self,
        *,
        fingerprint: str,
        operator: str,
        table: str,
        cause: str,
        delta_shape: str = "",
    ) -> None:
        """Record one non-incremental fallback: structured log + counter."""
        record = FallbackRecord(
            fingerprint=str(fingerprint),
            operator=str(operator),
            table=str(table),
            cause=str(cause),
            delta_shape=str(delta_shape),
        )
        with self._fallback_lock:
            dropped = len(self._fallbacks) == self.MAX_FALLBACKS
            self._fallbacks.append(record)
            if dropped:
                self._fallbacks_dropped += 1
        if dropped:
            # Lazily materialized: an overflow-free registry still renders
            # an empty exposition, but once eviction starts the drop count
            # shows up in snapshot() alongside the fallback counter.
            self.counter(
                self.FALLBACK_DROPPED_METRIC,
                "Structured fallback records evicted from the bounded log",
            ).inc()
        self.counter(
            self.FALLBACK_METRIC,
            "Delta propagations that fell back to full re-evaluation",
            ("fingerprint", "operator", "table"),
        ).labels(record.fingerprint, record.operator, record.table).inc()

    def fallbacks(self) -> List[FallbackRecord]:
        """The most recent fallback records (bounded, oldest first)."""
        with self._fallback_lock:
            return list(self._fallbacks)

    @property
    def fallbacks_dropped(self) -> int:
        """How many structured fallback records the bounded log evicted."""
        with self._fallback_lock:
            return self._fallbacks_dropped

    # ------------------------------------------------------------------
    # The read surface
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every metric — native and collected — as plain data.

        ``{name: {"kind": ..., "help": ..., "samples": [{"labels": {...},
        "value": ...}, ...]}}``; histogram sample values are dicts with
        ``buckets`` / ``sum`` / ``count``.
        """
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        data: Dict[str, Dict[str, Any]] = {}
        for metric in metrics:
            entry = data.setdefault(
                metric.name,
                {"kind": metric.kind, "help": metric.help, "samples": []},
            )
            for labels, child in metric.samples():
                value = (
                    child.snapshot()
                    if isinstance(child, _HistogramChild)
                    else child.value
                )
                entry["samples"].append({"labels": labels, "value": value})
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

    def render_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

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
                if kind == "histogram" and isinstance(value, dict):
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
