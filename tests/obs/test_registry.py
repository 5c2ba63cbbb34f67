"""The metrics registry: the histogram family, collectors, rendering."""

import math

import pytest

from repro.core.interval import until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.obs.promtext import validate_prometheus_text
from repro.obs.registry import Histogram, Registry, Sample
from repro.relational.schema import Schema

_BUCKETS = (0.01, 0.1, 1.0)


class TestFamilies:
    def test_labeled_children_are_independent(self):
        registry = Registry()
        histogram = registry.histogram(
            "repro_labeled_seconds", "", ("table",), buckets=_BUCKETS
        )
        histogram.labels("R").observe(0.5)
        histogram.labels("S").observe(0.05)
        histogram.labels(table="R").observe(0.5)
        assert histogram.labels("R").snapshot()["count"] == 2
        assert histogram.labels("S").snapshot()["count"] == 1
        assert len(histogram.samples()) == 2

    def test_unlabeled_use_of_labeled_family_raises(self):
        registry = Registry()
        histogram = registry.histogram(
            "repro_x_seconds", "", ("t",), buckets=_BUCKETS
        )
        with pytest.raises(ValueError):
            histogram.observe(0.5)
        with pytest.raises(ValueError):
            histogram.labels("a", "b")

    def test_get_or_create_is_idempotent(self):
        registry = Registry()
        family = ("repro_same_seconds", "h", ("a",))
        first = registry.histogram(*family, buckets=_BUCKETS)
        second = registry.histogram(*family, buckets=_BUCKETS)
        assert first is second
        assert isinstance(first, Histogram)

    def test_get_or_create_rejects_kind_and_label_mismatch(self):
        # One kind of family is left; what can still mismatch is its
        # layout — the labels and the buckets.
        registry = Registry()
        name = "repro_kind_seconds"
        registry.histogram(name, "", ("a",), buckets=_BUCKETS)
        with pytest.raises(ValueError):
            registry.histogram(name, "", ("a",), buckets=(1.0,))
        with pytest.raises(ValueError):
            registry.histogram(name, "", ("b",), buckets=_BUCKETS)

    def test_invalid_metric_name_rejected(self):
        registry = Registry()
        for bad in ("", "9leading", "has space", "has-dash"):
            with pytest.raises(ValueError):
                registry.histogram(bad, buckets=_BUCKETS)

    def test_histogram_buckets_partition_observations(self):
        registry = Registry()
        histogram = registry.histogram(
            "repro_lat_seconds", "", buckets=(0.01, 0.1, 1.0)
        )
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snap = histogram.labels().snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}

    def test_histogram_needs_buckets(self):
        registry = Registry()
        with pytest.raises(ValueError):
            registry.histogram("repro_empty_seconds", buckets=())


class TestCollectors:
    def test_collector_samples_appear_in_snapshot(self):
        registry = Registry()
        registry.register_collector(
            lambda: [
                Sample("repro_pull_total", {"t": "R"}, 7.0, "counter", "x")
            ]
        )
        snap = registry.snapshot()
        assert snap["repro_pull_total"]["samples"] == [
            {"labels": {"t": "R"}, "value": 7.0}
        ]
        assert snap["repro_pull_total"]["kind"] == "counter"

    def test_unregister_thunk_removes_collector(self):
        registry = Registry()
        unregister = registry.register_collector(
            lambda: [Sample("repro_gone_total", {}, 1.0)]
        )
        unregister()
        assert "repro_gone_total" not in registry.snapshot()
        unregister()  # idempotent

    def test_raising_collector_is_skipped_not_fatal(self):
        registry = Registry()

        def boom():
            raise RuntimeError("scrape me not")

        registry.register_collector(boom)
        registry.register_collector(
            lambda: [Sample("repro_alive_total", {}, 1.0)]
        )
        snap = registry.snapshot()
        assert snap["repro_alive_total"]["samples"][0]["value"] == 1.0


class TestFallbackLog:
    def test_record_fallback_logs_and_counts(self, fallback_log):
        # A fallback is logged once on repro.engine.delta and counted in
        # the registry the session exports to.
        registry = Registry()
        db = Database("fallback")
        table = db.create_table("R", Schema.of("K", ("VT", "interval")))
        table.insert(1, until_now(mmdd(1, 1)))
        session = LiveSession(db, registry=registry)
        sub = session.subscribe(scan("R"))
        # replace_all without a row delta is a full-flagged delta.
        table.replace_all(table.rows())
        session.flush()
        (record,) = fallback_log()
        assert f"plan {sub.fingerprint[:12]}" in record
        assert "table=R" in record
        assert "delta=full" in record
        snap = registry.snapshot()
        (sample,) = snap["repro_live_full_refreshes_total"]["samples"]
        assert sample["value"] == 1.0
        session.close()


class TestHistogramQuantile:
    def test_empty_histogram_is_nan(self):
        registry = Registry()
        hist = registry.histogram("repro_q_empty_seconds", buckets=(0.1, 1.0))
        assert math.isnan(hist.quantile(0.5))
        hist.labels()  # even with a child, zero observations stay nan
        assert math.isnan(hist.quantile(0.99))

    def test_interpolates_within_bucket(self):
        registry = Registry()
        hist = registry.histogram("repro_q_one_seconds", buckets=(1.0, 2.0))
        for _ in range(10):
            hist.observe(0.5)
        # All mass in (0, 1]: rank q*10 interpolates linearly to q*1.0.
        assert hist.quantile(0.5) == pytest.approx(0.5)
        assert hist.quantile(1.0) == pytest.approx(1.0)

    def test_interpolates_across_buckets(self):
        registry = Registry()
        hist = registry.histogram(
            "repro_q_multi_seconds", buckets=(1.0, 2.0, 4.0)
        )
        for value in (0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
            hist.observe(value)
        # Counts 2/4/4; p50 rank 5 lands 3/4 into (1, 2] → 1.75.
        assert hist.quantile(0.5) == pytest.approx(1.75)

    def test_inf_bucket_clamps_to_highest_finite_bound(self):
        registry = Registry()
        hist = registry.histogram("repro_q_inf_seconds", buckets=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_family_quantile_merges_labeled_children(self):
        registry = Registry()
        hist = registry.histogram(
            "repro_q_labeled_seconds", "", ("sub",), buckets=(1.0, 2.0)
        )
        hist.labels("a").observe(0.5)
        hist.labels("a").observe(0.5)
        hist.labels("b").observe(1.5)
        hist.labels("b").observe(1.5)
        # The family-level estimate sees all four observations.
        assert hist.quantile(1.0) == pytest.approx(2.0)
        assert hist.quantile(0.25) == pytest.approx(0.5)

    def test_quantile_rejects_out_of_range(self):
        registry = Registry()
        hist = registry.histogram("repro_q_range_seconds", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)


class TestRendering:
    def _populated(self):
        registry = Registry()
        registry.histogram(
            "repro_flush_seconds", "Flush latency", buckets=(0.1, 1.0)
        ).observe(0.05)
        registry.register_collector(
            lambda: [
                Sample(
                    "repro_live_events_total",
                    {"table": 'we"ird\ntable\\'},
                    3.0,
                    "counter",
                    "Change events",
                ),
                Sample("repro_live_subscriptions", {}, 2.0, "gauge", "Subs"),
                Sample(
                    "repro_store_snapshots_taken_total", {}, 5.0,
                    "counter", "Snapshots",
                ),
            ]
        )
        return registry

    def test_render_prometheus_validates(self):
        text = self._populated().render_prometheus()
        assert validate_prometheus_text(text) >= 6
        assert "# TYPE repro_live_events_total counter" in text
        assert "# HELP repro_live_events_total Change events" in text
        assert 'le="+Inf"' in text

    def test_label_escaping_round_trips(self):
        text = self._populated().render_prometheus()
        assert 'table="we\\"ird\\ntable\\\\"' in text

    def test_empty_registry_renders_empty_string(self):
        assert Registry().render_prometheus() == ""

    def test_infinite_values_render(self):
        registry = Registry()
        registry.register_collector(
            lambda: [Sample("repro_inf", {}, math.inf, "gauge")]
        )
        text = registry.render_prometheus()
        assert "repro_inf +Inf" in text
        validate_prometheus_text(text)


class TestPromtextValidator:
    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_prometheus_text("this is not prometheus\n")

    def test_rejects_empty_exposition(self):
        with pytest.raises(ValueError):
            validate_prometheus_text("")

    def test_rejects_duplicate_type_lines(self):
        text = (
            "# TYPE repro_x counter\nrepro_x 1\n"
            "# TYPE repro_x counter\nrepro_x 2\n"
        )
        with pytest.raises(ValueError):
            validate_prometheus_text(text)

    def test_rejects_bare_histogram_sample(self):
        text = "# TYPE repro_h histogram\nrepro_h 1\n"
        with pytest.raises(ValueError):
            validate_prometheus_text(text)

    def test_accepts_well_formed_histogram(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 1\n'
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 1.5\n"
            "repro_h_count 2\n"
        )
        assert validate_prometheus_text(text) == 4
