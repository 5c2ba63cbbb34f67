"""The live HTTP scrape surface: every endpoint over a real session."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.engine.modifications import current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.obs.promtext import validate_prometheus_text
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, ObsServer
from repro.obs.slo import FreshnessSLO
from repro.relational.schema import Schema


def _get(url):
    """(status, content_type, body) — errors returned, not raised."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (
                response.status,
                response.headers["Content-Type"],
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            error.headers["Content-Type"],
            error.read().decode("utf-8"),
        )


@pytest.fixture
def session():
    db = Database("obs-server")
    db.create_table("T", Schema.of("K", ("VT", "interval")))
    db.table("T").insert(1, until_now(5))
    session = LiveSession(db, delivery_workers=2)
    received = []
    session.subscribe(
        scan("T"), on_refresh=received.append, name="watcher"
    )
    current_insert(db.table("T"), (2,), at=100)
    session.flush()
    assert session.bus.drain(timeout=10)
    yield session
    session.close()


class TestEndpoints:
    def test_metrics_is_valid_prometheus_text(self, session):
        with ObsServer(session) as obs:
            status, content_type, body = _get(obs.url + "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        validate_prometheus_text(body)
        assert "repro_freshness_seconds_bucket" in body
        assert "repro_subscription_staleness_seconds" in body
        assert "repro_live_events_total" in body

    def test_health_without_slo_is_ok(self, session):
        with ObsServer(session) as obs:
            status, _, body = _get(obs.url + "/health")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["slo"] is None
        assert health["staleness_seconds"] == {"watcher": 0.0}
        assert health["freshness"]["p99"] is not None

    def test_health_degrades_to_503_when_budget_burns(self, session):
        slo = FreshnessSLO(0.001, objective=0.5, window=2)
        session.freshness_slo = slo
        for _ in range(2):
            slo.observe(1.0)  # burn = 2.0
        with ObsServer(session) as obs:
            status, _, body = _get(obs.url + "/health")
        assert status == 503
        health = json.loads(body)
        assert health["status"] == "degraded"
        assert health["slo"]["error_budget_burn"] == pytest.approx(2.0)
        assert health["slo"]["healthy"] is False

    def test_subscriptions_reports_delivery_counters(self, session):
        with ObsServer(session) as obs:
            status, _, body = _get(obs.url + "/subscriptions")
        assert status == 200
        (entry,) = json.loads(body)
        assert entry["name"] == "watcher"
        assert entry["active"] is True
        assert entry["refreshes"] == 1
        assert entry["notifications"] == 1
        assert entry["staleness_seconds"] == 0.0

    def test_explain_text_and_json_by_prefix(self, session):
        fingerprint = session.subscriptions[0].fingerprint
        with ObsServer(session) as obs:
            status, content_type, body = _get(
                obs.url + f"/explain/{fingerprint[:8]}"
            )
            assert status == 200
            assert content_type.startswith("text/plain")
            assert "EXPLAIN ANALYZE" in body
            status, content_type, body = _get(
                obs.url + f"/explain/{fingerprint[:8]}?format=json"
            )
        assert status == 200
        assert content_type == "application/json"
        (report,) = json.loads(body)
        assert report["fingerprint"] == fingerprint
        assert report["totals"]["evaluations"] >= 1
        assert isinstance(report["nodes"], list)

    def test_explain_unknown_prefix_is_404(self, session):
        with ObsServer(session) as obs:
            status, _, body = _get(obs.url + "/explain/deadbeef")
        assert status == 404
        assert "no shared result" in json.loads(body)["error"]

    def test_explain_bad_format_is_400(self, session):
        with ObsServer(session) as obs:
            status, _, _ = _get(obs.url + "/explain?format=xml")
        assert status == 400

    def test_explain_that_breaks_is_500_not_404(self, session, monkeypatch):
        def broken(prefix, *, format):
            raise RuntimeError("operator state is corrupt")

        monkeypatch.setattr(session, "explain_analyze", broken)
        with ObsServer(session) as obs:
            status, _, body = _get(obs.url + "/explain")
        assert status == 500
        assert "corrupt" in json.loads(body)["error"]

    def test_unknown_path_is_404_with_directory(self, session):
        with ObsServer(session) as obs:
            status, _, body = _get(obs.url + "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["endpoints"]


class TestLifecycle:
    def test_port_zero_binds_ephemeral(self, session):
        with ObsServer(session) as obs:
            assert obs.port > 0
            assert obs.url.startswith("http://127.0.0.1:")

    def test_close_is_idempotent_and_releases_port(self, session):
        obs = ObsServer(session).start()
        url = obs.url
        obs.close()
        obs.close()  # idempotent
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(url + "/metrics", timeout=2)

    def test_address_before_start_raises(self, session):
        obs = ObsServer(session)
        with pytest.raises(RuntimeError):
            obs.port  # noqa: B018 — the property raises

    def test_start_is_idempotent(self, session):
        obs = ObsServer(session).start()
        try:
            assert obs.start() is obs
        finally:
            obs.close()

    def test_concurrent_scrapes_under_writes(self, session):
        import threading

        db = session.database
        errors = []

        def scrape(url):
            for _ in range(10):
                status, _, body = _get(url + "/metrics")
                if status != 200:
                    errors.append(status)
                    return
                try:
                    validate_prometheus_text(body)
                except Exception as exc:  # noqa: BLE001 — collected
                    errors.append(exc)
                    return

        with ObsServer(session) as obs:
            threads = [
                threading.Thread(target=scrape, args=(obs.url,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for offset in range(20):
                current_insert(db.table("T"), (offset,), at=200 + offset)
                session.flush()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        assert not errors
