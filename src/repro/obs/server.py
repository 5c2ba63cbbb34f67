"""A live metrics/health endpoint over one running session.

:class:`ObsServer` wraps a :class:`~repro.live.manager.SubscriptionManager`
in a tiny stdlib HTTP server (``http.server`` — no dependencies) on a
background thread, turning the session's pull-at-snapshot telemetry into
a scrape surface:

* ``GET /metrics`` — the Prometheus text exposition (format 0.0.4) of
  the session's registry: hot-path counters/histograms plus the
  collector samples (canonical session stats, per-operator plan
  counters, per-subscription staleness gauges).
* ``GET /metrics.json`` — the same snapshot as JSON, for tooling that
  does not speak the exposition format.
* ``GET /health`` — ``200`` while the freshness objective holds, ``503``
  once its error budget burns (see :class:`~repro.obs.slo.FreshnessSLO`);
  the body always carries the burn detail, the staleness per
  subscription, and the freshness p50/p99.
* ``GET /subscriptions`` — every attached subscription with its
  delivery counters and current staleness.
* ``GET /explain/<fingerprint>`` — EXPLAIN ANALYZE for the plans whose
  fingerprint starts with the given prefix (``?format=json`` for the
  data form); ``GET /explain`` reports every materialized plan.

Every request handler only *reads* session state through the same
introspection methods tests use (``stats()``, ``subscription_staleness()``,
``explain_analyze()``) — scraping never touches the write or flush hot
paths.  The server binds ``port=0`` by default so tests and examples get
an ephemeral port; :attr:`url` tells them where it landed.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = ["ObsServer", "PROMETHEUS_CONTENT_TYPE"]

#: The content type Prometheus scrapers expect for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles reported by ``/health`` (from ``repro_freshness_seconds``).
_HEALTH_QUANTILES = (0.5, 0.99)


def _jsonable(value: Any) -> Any:
    """NaN/Inf have no JSON spelling; report them as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class _Handler:
    """Routes one request against the owning :class:`ObsServer`.

    The methods only: :meth:`ObsServer.start` mixes them over
    ``http.server.BaseHTTPRequestHandler``, which is imported there —
    the HTTP stack (``email``, ``socketserver``, ``html``, ``mimetypes``)
    loads when a server starts, not with ``import repro``.
    """

    # Set per server class in ObsServer.start().
    obs: "ObsServer"

    server_version = "repro-obs/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; stay quiet

    def do_GET(self) -> None:  # noqa: N802 — http.server's spelling
        try:
            split = urlsplit(self.path)
            path = split.path.rstrip("/") or "/"
            query = parse_qs(split.query)
            status, content_type, body = self.obs._route(path, query)
        except Exception as exc:  # noqa: BLE001 — a scrape must not kill us
            status, content_type, body = (
                500,
                "application/json",
                json.dumps({"error": str(exc)}),
            )
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class ObsServer:
    """Serve one live session's operations plane over HTTP.

    Usage::

        session = LiveSession(db, freshness_slo=FreshnessSLO(0.5))
        with ObsServer(session) as obs:
            print(obs.url)           # e.g. http://127.0.0.1:49321
            ...                      # scrape /metrics, poll /health

    The server thread is a daemon and :meth:`close` is idempotent, so a
    crashed test never wedges the process.  *session* is duck-typed: it
    needs ``metrics`` (a :class:`~repro.obs.registry.Registry`) and,
    for the richer endpoints, the ``SubscriptionManager`` introspection
    surface (``stats``/``subscriptions``/``subscription_staleness``/
    ``explain_analyze``/``freshness_slo``).
    """

    def __init__(
        self,
        session: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.session = session
        self._host = host
        self._port = port
        self._server: Optional[Any] = None  # a ThreadingHTTPServer
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ObsServer":
        """Bind and start serving on a background thread; idempotent."""
        if self._server is not None:
            return self
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        handler = type(
            "_BoundHandler", (_Handler, BaseHTTPRequestHandler), {"obs": self}
        )
        server = ThreadingHTTPServer((self._host, self._port), handler)
        server.daemon_threads = True
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the port; idempotent."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=10)

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None:
            raise RuntimeError("observability server is not running")
        return self._server.server_address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(
        self, path: str, query: Dict[str, Any]
    ) -> Tuple[int, str, str]:
        if path == "/metrics":
            return 200, PROMETHEUS_CONTENT_TYPE, self._render_metrics()
        if path == "/metrics.json":
            return 200, "application/json", self.session.metrics.render_json()
        if path == "/health":
            return self._health()
        if path == "/subscriptions":
            return (
                200,
                "application/json",
                json.dumps(self._subscriptions(), indent=2),
            )
        if path == "/explain" or path.startswith("/explain/"):
            prefix = path[len("/explain/"):] if path != "/explain" else None
            format = query.get("format", ["text"])[0]
            return self._explain(prefix, format)
        return (
            404,
            "application/json",
            json.dumps(
                {
                    "error": f"unknown path {path!r}",
                    "endpoints": [
                        "/metrics",
                        "/metrics.json",
                        "/health",
                        "/subscriptions",
                        "/explain/<fingerprint>",
                    ],
                }
            ),
        )

    def _render_metrics(self) -> str:
        text = self.session.metrics.render_prometheus()
        if text and not text.endswith("\n"):
            text += "\n"
        return text

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _health(self) -> Tuple[int, str, str]:
        slo = getattr(self.session, "freshness_slo", None)
        staleness = self._staleness()
        healthy = slo.healthy() if slo is not None else True
        durability = getattr(
            getattr(self.session, "database", None), "_durability", None
        )
        body: Dict[str, Any] = {
            "status": "ok" if healthy else "degraded",
            "serving": bool(getattr(self.session, "serving", False)),
            "slo": slo.snapshot() if slo is not None else None,
            "staleness_seconds": staleness,
            "freshness": self._freshness_quantiles(),
            # WAL lag: records/bytes appended since the last checkpoint —
            # the replay debt a crash right now would incur.
            "wal": (
                durability.health_snapshot()
                if durability is not None
                else None
            ),
        }
        return (
            200 if healthy else 503,
            "application/json",
            json.dumps(body, indent=2),
        )

    def _freshness_quantiles(self) -> Optional[Dict[str, Any]]:
        histogram = getattr(self.session, "freshness_histogram", None)
        if histogram is None:
            return None
        return {
            f"p{int(q * 100)}": _jsonable(histogram.quantile(q))
            for q in _HEALTH_QUANTILES
        }

    def _staleness(self) -> Dict[str, float]:
        probe = getattr(self.session, "subscription_staleness", None)
        return probe() if probe is not None else {}

    def _subscriptions(self) -> list:
        staleness = self._staleness()
        report = []
        for subscription in getattr(self.session, "subscriptions", []):
            stats = subscription.stats
            report.append(
                {
                    "name": subscription.name,
                    "id": subscription.id,
                    "fingerprint": (
                        subscription.fingerprint
                        if subscription.active
                        else None
                    ),
                    "active": subscription.active,
                    "refreshes": stats.refreshes,
                    "notifications": stats.notifications,
                    "coalesced_events": stats.coalesced_events,
                    "pending_events": stats.pending_events,
                    "suppressed": stats.suppressed,
                    "instantiations": stats.instantiations,
                    "staleness_seconds": staleness.get(subscription.name),
                }
            )
        return report

    def _explain(
        self, prefix: Optional[str], format: str
    ) -> Tuple[int, str, str]:
        if format not in ("text", "json"):
            return (
                400,
                "application/json",
                json.dumps(
                    {"error": f"unknown format {format!r}; use text or json"}
                ),
            )
        try:
            report = self.session.explain_analyze(prefix, format=format)
        except Exception as exc:  # noqa: BLE001 — no-match is a 404
            return 404, "application/json", json.dumps({"error": str(exc)})
        if format == "json":
            return 200, "application/json", json.dumps(report, indent=2)
        return 200, "text/plain; charset=utf-8", report + "\n"
