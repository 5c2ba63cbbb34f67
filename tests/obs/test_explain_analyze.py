"""EXPLAIN ANALYZE on live plans and the fallback telemetry."""

import json

import pytest

from repro.core.interval import fixed_interval, until_now
from repro.core.timeline import mmdd
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.errors import QueryError
from repro.live import LiveSession
from repro.obs.explain import format_bytes, format_seconds, render_explain_analyze
from repro.obs.promtext import validate_prometheus_text
from repro.relational.predicates import col
from repro.relational.schema import Schema


def d(month, day):
    return mmdd(month, day)


def _database():
    db = Database("obs")
    r = db.create_table("R", Schema.of("K", ("VT", "interval")))
    s = db.create_table("S", Schema.of("K", ("VT", "interval")))
    for k in range(4):
        r.insert(k % 2, until_now(d(1, 1 + k)))
        s.insert(k % 2, fixed_interval(d(1, 1), d(9, 1)))
    return db


def _joined_aggregated_plan():
    return (
        scan("R")
        .join(
            scan("S"),
            on=col("R.K") == col("S.K"),
            left_name="R",
            right_name="S",
        )
        .group_by(("R.K",), "count", output_name="N")
    )


class TestFormatters:
    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(1536) == "1.5KiB"
        assert format_bytes(3 * 1024 * 1024) == "3.0MiB"

    def test_format_seconds(self):
        assert format_seconds(2.5) == "2.500s"
        assert format_seconds(0.0025) == "2.50ms"
        assert format_seconds(0.0000325) == "32.5µs"


class TestSubscriptionExplainAnalyze:
    def test_live_joined_aggregated_plan_shows_per_operator_counters(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(_joined_aggregated_plan())
        db.table("R").insert(0, until_now(d(2, 1)))
        session.flush()
        text = sub.explain_analyze()
        # Header: totals of the maintainer.
        assert f"fingerprint={sub.fingerprint[:12]}" in text
        assert "delta_refreshes=1" in text
        # The subscribe-time evaluation is an evaluation, not a refresh.
        assert "evaluations=2" in text
        assert "full_refreshes=0" in text
        # One annotated line per physical operator, tree-indented.
        assert "Aggregate" in text
        assert "Join" in text
        assert "SeqScan R" in text and "SeqScan S" in text
        # The live row count — 4 rows at plan time, one inserted since.
        assert "SeqScan R (5 tuples)" in text
        for fragment in (
            "rows=", "bytes=", "applies=", "time=", "Δin=", "Δout=",
            "fallbacks=",
        ):
            assert fragment in text
        # The delta actually flowed through the touched operators.
        report = sub.node_report()
        by_operator = {entry["operator"]: entry for entry in report}
        assert by_operator["AggregateOp"]["applies"] == 1
        assert by_operator["AggregateOp"]["apply_seconds"] > 0
        assert by_operator["AggregateOp"]["state_rows"] > 0
        assert by_operator["AggregateOp"]["state_bytes"] > 0
        scans = [e for e in report if e["operator"] == "SeqScan"]
        assert sum(e["applies"] for e in scans) == 1  # only R was touched
        session.close()

    def test_closed_subscription_raises(self):
        session = LiveSession(_database())
        sub = session.subscribe(scan("R"))
        sub.close()
        with pytest.raises(QueryError, match="closed"):
            sub.explain_analyze()
        session.close()

    def test_per_operator_metrics_reach_the_registry(self):
        db = _database()
        session = LiveSession(db)
        session.subscribe(_joined_aggregated_plan())
        db.table("R").insert(1, until_now(d(2, 2)))
        session.flush()
        text = session.metrics.render_prometheus()
        validate_prometheus_text(text)
        assert 'operator="AggregateOp"' in text
        assert "repro_delta_apply_seconds_total" in text
        assert "repro_operator_state_rows" in text
        assert "repro_operator_state_bytes" in text
        assert "repro_operator_fallbacks_total" in text
        snapshot = session.metrics.snapshot()
        labels = {
            sample["labels"]["path"]
            for sample in snapshot["repro_delta_applies_total"]["samples"]
        }
        assert "0" in labels  # stable tree paths as labels
        session.close()


class TestDatabaseExplainAnalyze:
    def test_accepts_sql(self):
        db = _database()
        text = db.explain_analyze("SELECT K FROM R")
        assert text.startswith("EXPLAIN ANALYZE SELECT K FROM R")
        assert "SeqScan R" in text
        assert "rows=" in text and "bytes=" in text

    def test_accepts_plan_nodes(self):
        db = _database()
        text = db.explain_analyze(_joined_aggregated_plan())
        assert "Aggregate" in text
        assert "Join" in text


class TestFallbackTelemetry:
    def test_fallback_records_carry_fingerprint_operator_table(
        self, fallback_log
    ):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(scan("R"))
        # A full-flagged delta (replace_all without a row delta) forces
        # the logged fallback path.
        db.table("R").replace_all(db.table("R").rows())
        session.flush()
        (record,) = fallback_log()
        assert f"plan {sub.fingerprint[:12]}" in record
        assert "table=R" in record
        assert "delta=full" in record
        assert "delta_fallbacks=1" in sub.explain_analyze()
        assert session.stats()["repro_live_full_refreshes_total"] == 1
        text = session.metrics.render_prometheus()
        assert "repro_live_full_refreshes_total 1" in text
        validate_prometheus_text(text)
        session.close()

    def test_stats_agree_with_fallback_counter(self, fallback_log):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(scan("R"))
        for _ in range(3):
            db.table("R").replace_all(db.table("R").rows())
            session.flush()
        snapshot = session.metrics.snapshot()
        (sample,) = snapshot["repro_live_full_refreshes_total"]["samples"]
        assert sample["value"] == len(fallback_log()) == 3
        assert "delta_fallbacks=3" in sub.explain_analyze()
        session.close()


class TestOneFormatCheck:
    """Every ``explain_analyze`` takes ``format="text"`` or ``"json"`` and
    raises :class:`ValueError` for anything else — the one check of
    :func:`repro.obs.explain.explain_renderer`."""

    def test_every_entry_point_rejects_an_unknown_format(self):
        db = _database()
        session = LiveSession(db)
        sub = session.subscribe(scan("R"))
        (maintainer,) = session.shared_results()
        for explain in (
            lambda: db.explain_analyze(scan("R"), format="xml"),
            lambda: maintainer.explain_analyze(format="xml"),
            lambda: session.explain_analyze(format="xml"),
            lambda: sub.explain_analyze(format="xml"),
        ):
            with pytest.raises(ValueError, match="xml"):
                explain()
        session.close()


class TestRenderer:
    def test_cold_report_renders_reason(self):
        text = render_explain_analyze(
            [],
            label="plan abc",
            fingerprint="abcdef012345",
            totals={"evaluations": 4, "state_bytes": 0},
            cold_reason="the last refresh failed",
        )
        assert "no warm operator state" in text
        assert "the last refresh failed" in text
        assert "evaluations=4" in text

    def test_shared_registry_can_serve_two_sessions(self):
        from repro.obs.registry import Registry

        registry = Registry()
        db_a, db_b = _database(), _database()
        session_a = LiveSession(db_a, registry=registry)
        session_b = LiveSession(db_b, registry=registry)
        session_a.subscribe(scan("R"))
        session_b.subscribe(scan("S"))
        db_a.table("R").insert(9, until_now(d(3, 1)))
        db_b.table("S").insert(9, until_now(d(3, 1)))
        session_a.flush()
        session_b.flush()
        snapshot = registry.snapshot()
        events = snapshot["repro_live_events_total"]["samples"]
        assert sum(s["value"] for s in events) == 2  # both sessions report
        session_a.close()
        session_b.close()
        # Closed sessions unregistered their collectors.
        assert registry.snapshot().get("repro_live_events_total") is None


class TestSessionTraceOption:
    def test_trace_true_records_full_pipeline(self):
        db = _database()
        session = LiveSession(db, trace=True)
        session.subscribe(_joined_aggregated_plan())
        db.table("R").insert(0, until_now(d(2, 1)))
        session.flush()
        names = {event["name"] for event in session.tracer.events()}
        assert {"write", "flush", "refresh", "store-commit"} <= names
        assert any(name.startswith("apply:") for name in names)
        data = json.loads(session.tracer.dump_json())
        assert any(e["ph"] == "X" for e in data["traceEvents"])
        session.close()

    def test_trace_off_by_default(self):
        session = LiveSession(_database())
        assert session.tracer is None
        session.subscribe(scan("R"))
        session.close()

    def test_trace_accepts_capacity_and_recorder(self):
        from repro.obs.trace import TraceRecorder

        session = LiveSession(_database(), trace=128)
        assert session.tracer.capacity == 128
        session.close()
        recorder = TraceRecorder(capacity=16)
        session = LiveSession(_database(), trace=recorder)
        assert session.tracer is recorder
        session.close()
