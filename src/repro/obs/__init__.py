"""repro.obs — end-to-end telemetry for the ongoing-query engine.

Five pillars, all zero-dependency:

* :mod:`repro.obs.registry` — the metrics registry: pull-at-snapshot
  collectors that read the counters their owners already keep (labeled
  by plan fingerprint, operator kind, tree path), plus the one native
  family, the ``repro_freshness_seconds`` histogram, rendered as
  Prometheus text under the canonical ``repro_<layer>_<what>_total``
  naming scheme;
* :mod:`repro.obs.trace` — the opt-in refresh-pipeline span recorder
  (``LiveSession(trace=True)``), ring-buffered per session and dumpable
  as Chrome trace-event JSON for Perfetto;
* :mod:`repro.obs.explain` — the ``explain_analyze()`` renderer:
  the physical plan tree annotated with live per-operator counters
  (state rows/bytes, cumulative delta-apply time, fallback counts),
  in text or plain-data (:func:`~repro.obs.explain.explain_analyze_data`)
  form;
* :mod:`repro.obs.slo` — the freshness objective
  (:class:`~repro.obs.slo.FreshnessSLO`): a windowed error-budget-burn
  computation fed by write→deliver latencies, consulted by the serve
  loop's adaptive debounce and the ``/health`` endpoint;
* :mod:`repro.obs.server` — the live HTTP scrape surface
  (:class:`~repro.obs.server.ObsServer`): ``/metrics`` (Prometheus
  text), SLO-aware ``/health``, ``/subscriptions`` and
  ``/explain/<fingerprint>`` over a running session, stdlib
  ``http.server`` only.

:mod:`repro.obs.promtext` is the in-repo Prometheus text-format
validator the tests run over ``render_prometheus()`` output.  README's
"Observability" table lists every family a scrape exposes and what
reads it.

The package sits below the engine: nothing in here imports
:mod:`repro.engine`, :mod:`repro.live`, or :mod:`repro.serve` (the
server receives the session object it reports on), so every layer can
report into it without import cycles.
"""

from repro.obs.explain import (
    explain_analyze_data,
    format_bytes,
    format_seconds,
    render_explain_analyze,
)
from repro.obs.promtext import validate_prometheus_text
from repro.obs.registry import (
    FRESHNESS_BUCKETS,
    Histogram,
    Registry,
    Sample,
)
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, ObsServer
from repro.obs.slo import FreshnessSLO
from repro.obs.trace import NULL_TRACER, TraceRecorder

__all__ = [
    "Histogram",
    "Registry",
    "Sample",
    "FRESHNESS_BUCKETS",
    "FreshnessSLO",
    "ObsServer",
    "PROMETHEUS_CONTENT_TYPE",
    "TraceRecorder",
    "NULL_TRACER",
    "render_explain_analyze",
    "explain_analyze_data",
    "format_bytes",
    "format_seconds",
    "validate_prometheus_text",
]
