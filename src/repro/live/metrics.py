"""A session's metrics: freshness accounting and the registry scrape.

:class:`SessionMetrics` is the part of a live session that faces its
:class:`~repro.obs.registry.Registry`.  It owns

* the ``repro_freshness_seconds`` histogram — write→deliver latency per
  subscription, observed once per delivered notification through the
  bus's ``on_delivered`` hook (on whichever thread ran the callback: a
  delivery worker's, or the flush's own without workers) and fed to the
  session's :class:`~repro.obs.slo.FreshnessSLO`;
* the staleness gauges (:meth:`SessionMetrics.staleness`), computed
  entirely at scrape time so the write and flush paths pay nothing; and
* the pull-at-snapshot collector that publishes the session's
  :meth:`~repro.live.manager.SubscriptionManager.stats` under the
  canonical ``repro_<layer>_<what>[_total]`` names, plus per-operator
  plan counters.

This module is the only place that lists the metric names
(:data:`CANONICAL_SAMPLES`, :data:`OPERATOR_SAMPLES`); the ``stats()``
keys *are* those names, so the collector reads each sample straight from
the stats snapshot.  A row stays only while README's "Observability"
table names what reads it (``tests/obs/test_metric_table.py`` holds the
scrape, that table and the tests it cites together).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List

from repro.obs.registry import FRESHNESS_BUCKETS, Sample

from repro.live.events import RefreshNotification

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.live.manager import SubscriptionManager

#: Internal to :mod:`repro.live` — the session is the public face.
__all__: list = []

#: Canonical metric ``(name, kind, help)`` — each name is also a key of
#: the session's ``stats()`` dict.
CANONICAL_SAMPLES = (
    ("repro_live_events_total", "counter",
     "Change events observed by the session"),
    ("repro_live_flushes_total", "counter",
     "Flush rounds performed"),
    ("repro_live_evaluations_total", "counter",
     "Plan refreshes, incremental and full"),
    ("repro_live_delta_refreshes_total", "counter",
     "Refreshes served by incremental delta propagation"),
    ("repro_live_full_refreshes_total", "counter",
     "Refreshes that re-evaluated the plan in full"),
    ("repro_live_notifications_total", "counter",
     "Refresh notifications handed to the bus"),
    ("repro_live_suppressed_notifications_total", "counter",
     "No-change refreshes suppressed before delivery"),
    ("repro_live_refresh_errors_total", "counter",
     "Refreshes that raised, or whose machinery failed, and were isolated"),
    ("repro_live_cache_hits_total", "counter",
     "Subscriptions attached to an existing shared result"),
    ("repro_live_subscriptions", "gauge",
     "Currently attached subscriptions"),
    ("repro_live_shared_results", "gauge",
     "Distinct plans currently materialized"),
    ("repro_store_snapshots_taken_total", "counter",
     "Result-store snapshot copies materialized"),
    ("repro_store_snapshots_reused_total", "counter",
     "Reads served from an already-materialized snapshot"),
    ("repro_serve_queued_notifications_total", "counter",
     "Notifications enqueued to delivery mailboxes"),
    ("repro_serve_delivered_notifications_total", "counter",
     "Notifications delivered to subscriber callbacks"),
    ("repro_serve_dropped_notifications_total", "counter",
     "Notifications dropped by the drop_oldest policy"),
    ("repro_serve_coalesced_notifications_total", "counter",
     "Notifications merged by the coalesce policy"),
)

#: Per-operator series ``(name, node_report key, kind, help)``, labeled by
#: fingerprint, operator and tree path.
OPERATOR_SAMPLES = (
    ("repro_delta_applies_total", "applies", "counter",
     "Incremental delta applications per plan operator"),
    ("repro_delta_apply_seconds_total", "apply_seconds", "counter",
     "Cumulative wall time in apply_delta per operator"),
    ("repro_operator_fallbacks_total", "fallbacks", "counter",
     "Non-incremental fallbacks raised at this operator"),
    ("repro_operator_state_rows", "state_rows", "gauge",
     "Rows held in the operator's derivation-count state"),
    ("repro_operator_state_bytes", "state_bytes", "gauge",
     "Estimated bytes of the operator's state"),
)


class SessionMetrics:
    """Freshness observer and scrape collector of one live session.

    An internal part of :class:`~repro.live.manager.SubscriptionManager`:
    the session constructs it (which registers the collectors on the
    session's registry), installs :meth:`on_delivered` as the bus's
    delivery hook, and :meth:`close`\\ s it — a shared registry must stop
    scraping a closed session.
    """

    def __init__(self, session: "SubscriptionManager"):
        self._session = session
        #: Write→deliver latency per subscription: commit stamp of the
        #: oldest coalesced modification to the completed ``on_refresh``
        #: delivery — one observation per delivered notification,
        #: matching ``repro_serve_delivered_notifications_total``.
        self.freshness = session.metrics.histogram(
            "repro_freshness_seconds",
            "Write-to-deliver latency per subscription",
            ("subscription",),
            buckets=FRESHNESS_BUCKETS,
        )
        self._unregister = [session.metrics.register_collector(self.collect)]
        #: A durable database (``Database.open``) exposes its WAL and
        #: recovery counters through this session's registry too.
        durability = getattr(session.database, "_durability", None)
        if durability is not None:
            self._unregister.append(
                session.metrics.register_collector(durability.collect_samples)
            )

    def close(self) -> None:
        """Unregister the collectors from the (possibly shared) registry."""
        for unregister in self._unregister:
            unregister()

    # ------------------------------------------------------------------
    # Freshness accounting
    # ------------------------------------------------------------------

    def on_delivered(self, payload: object) -> None:
        """Bus hook: fires once per callback that returned.  Only
        commit-stamped refresh notifications count toward freshness —
        error records and other payloads pass through."""
        if (
            not isinstance(payload, RefreshNotification)
            or payload.commit is None
        ):
            return
        seconds = max(0.0, time.monotonic() - payload.commit.at)
        self.freshness.labels(
            subscription=payload.subscription.name
        ).observe(seconds)
        slo = self._session.freshness_slo
        if slo is not None:
            slo.observe(seconds)

    def staleness(self) -> Dict[str, float]:
        """Age (seconds) of the oldest pending unapplied change, per
        subscription name.

        Covers both halves of the pipeline: a commit still dirty and
        awaiting its flush, and a commit-stamped notification already
        refreshed but still queued in the subscriber's delivery mailbox.
        ``0.0`` means fully caught up.  Subscriptions sharing a name
        report the oldest age among them.
        """
        session = self._session
        now = time.monotonic()
        ages: Dict[str, float] = {}
        for subscription in session.subscriptions:
            name = subscription.name
            age = 0.0
            maintainer = subscription._maintainer
            stamp = None if maintainer is None else maintainer.owed.commit
            if stamp is not None:
                age = max(age, now - stamp.at)
            queued = session.bus.oldest_commit_age(
                f"refresh:{subscription.id}", now
            )
            if queued is not None:
                age = max(age, queued)
            ages[name] = max(age, ages.get(name, 0.0))
        return ages

    # ------------------------------------------------------------------
    # The scrape
    # ------------------------------------------------------------------

    def collect(self) -> List[Sample]:
        """Pull-at-snapshot collector: the session's stats under the
        canonical names, plus per-operator plan counters (labeled by
        fingerprint, operator, tree path)."""
        session = self._session
        stats = session.stats()
        samples: List[Sample] = [
            Sample(name, {}, float(stats[name]), kind, help_text)
            for name, kind, help_text in CANONICAL_SAMPLES
        ]
        for name, age in sorted(self.staleness().items()):
            samples.append(
                Sample(
                    "repro_subscription_staleness_seconds",
                    {"subscription": name},
                    age,
                    "gauge",
                    "Age of the oldest pending unapplied change per "
                    "subscription",
                )
            )
        for shared in session.shared_results():
            fingerprint = shared.fingerprint[:12]
            for node in shared.node_report():
                labels = {
                    "fingerprint": fingerprint,
                    "operator": node["operator"],
                    "path": node["path"],
                }
                for name, key, kind, help_text in OPERATOR_SAMPLES:
                    samples.append(
                        Sample(name, labels, float(node[key]), kind, help_text)
                    )
        return samples
