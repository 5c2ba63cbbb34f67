"""The telemetry→planner loop: per-plan cost history and adaptation."""

import pytest

from repro.core.interval import until_now
from repro.engine.cost import DEFAULT_COST_MODEL, CostModel, RefreshDecision
from repro.engine.database import Database
from repro.engine.modifications import current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.schema import Schema

FP = "a" * 64
REFERENCE = CostModel.REFERENCE_PER_ROW_SECONDS


class TestHistory:
    def test_fingerprintless_calls_stay_static(self):
        model = CostModel(index_threshold=32)
        assert model.observe_refresh("", per_row_seconds=1.0) == ()
        assert model.effective_index_threshold() == 32
        assert model.effective_full_refresh_ratio() == 2.0
        assert model.use_index(32) is True
        assert model.use_index(31) is False
        assert model.adaptation_report(None) is None

    def test_non_adaptive_model_never_learns(self):
        model = CostModel(adaptive=False)
        assert model.observe_refresh(FP, per_row_seconds=1.0) == ()
        assert model.effective_index_threshold(FP) == 32
        assert model.adaptation_report(FP) is None

    def test_expensive_rows_lower_the_index_threshold(self):
        model = CostModel(index_threshold=32)
        changed = model.observe_refresh(FP, per_row_seconds=REFERENCE * 2)
        assert changed == ("index_threshold",)
        assert model.effective_index_threshold(FP) == 16
        # The learned threshold drives the probe decision for this plan
        # only; fingerprint-less probes still see the static 32.
        assert model.use_index(16, FP) is True
        assert model.use_index(15, FP) is False
        assert model.use_index(16) is False

    def test_cheap_rows_raise_the_threshold_with_clamp(self):
        model = CostModel(index_threshold=32)
        model.observe_refresh(FP, per_row_seconds=REFERENCE / 100)
        # scale would be 100× but clamps at ADAPT_CLAMP.
        assert model.effective_index_threshold(FP) == 32 * 4
        other = "b" * 64
        model.observe_refresh(other, per_row_seconds=REFERENCE * 1000)
        assert model.effective_index_threshold(other) == max(1, round(32 / 4))

    def test_ewma_smooths_rather_than_replaces(self):
        model = CostModel()
        model.observe_refresh(FP, per_row_seconds=REFERENCE)
        model.observe_refresh(FP, per_row_seconds=REFERENCE * 11)
        report = model.adaptation_report(FP)
        # One alpha=0.2 step from 2µs toward 22µs = 6µs, not 22µs.
        assert report["ewma_per_row_us"] == pytest.approx(6.0, rel=1e-3)

    def test_full_observations_decay_the_safety_ratio(self):
        model = CostModel(full_refresh_ratio=2.0)
        assert model.effective_full_refresh_ratio(FP) == 2.0
        changed = model.observe_refresh(FP, full_seconds=0.01)
        assert "full_refresh_ratio" in changed
        # pad = 1.0 / (1 + 1/4) = 0.8
        assert model.effective_full_refresh_ratio(FP) == pytest.approx(1.8)
        for _ in range(19):
            model.observe_refresh(FP, full_seconds=0.01)
        assert model.effective_full_refresh_ratio(FP) == pytest.approx(
            1.0 + 1.0 / 6.0, abs=1e-4
        )

    def test_choose_refresh_uses_learned_costs(self):
        model = CostModel(full_refresh_floor_rows=10)
        # Learned: 100µs per row, full refresh costs 1ms.
        model.observe_refresh(FP, per_row_seconds=1e-4, full_seconds=1e-3)
        decision = model.choose_refresh(
            pending_rows=1000,
            apply_seconds=0.0,  # cumulative averages say nothing...
            apply_rows=0,
            full_seconds=None,  # ...and no full was measured this cycle
            fingerprint=FP,
        )
        # ...yet the history projects 1000 × 100µs = 100ms >> 1ms full.
        assert decision.full is True
        assert "[adapted]" in decision.reason
        static = model.choose_refresh(
            pending_rows=1000,
            apply_seconds=0.0,
            apply_rows=0,
            full_seconds=None,
        )
        assert static.full is False  # no history, no costs, stay delta

    def test_history_table_is_bounded(self):
        model = CostModel()
        for index in range(CostModel.MAX_HISTORY + 8):
            model.observe_refresh(f"fp{index}", per_row_seconds=REFERENCE)
        assert len(model._history) == CostModel.MAX_HISTORY
        assert model.adaptation_report("fp0") is None  # oldest evicted

    def test_adaptation_report_shape(self):
        model = CostModel()
        model.observe_refresh(FP, per_row_seconds=REFERENCE, full_seconds=0.5)
        report = model.adaptation_report(FP)
        assert set(report) == {
            "index_threshold",
            "full_refresh_ratio",
            "ewma_per_row_us",
            "ewma_full_ms",
            "observations",
        }
        assert report["observations"] == 2
        assert report["ewma_full_ms"] == pytest.approx(500.0)


class TestMaintainerLoop:
    """Refreshes feed the model; adaptations are counted and surfaced."""

    def _session(self):
        db = Database("cost-adapt")
        table = db.create_table("T", Schema.of("K", ("VT", "interval")))
        for index in range(8):
            table.insert(index, until_now(index))
        return db, LiveSession(db)

    def test_refreshes_accumulate_history_and_count_adaptations(self):
        db, session = self._session()
        try:
            subscription = session.subscribe(scan("T"), name="adapt")
            fingerprint = subscription.fingerprint
            for offset in range(4):
                current_insert(db.table("T"), (100 + offset,), at=50 + offset)
                session.flush()
            shared = session.shared_results()[0]
            model = shared.cost_model or DEFAULT_COST_MODEL
            report = model.adaptation_report(fingerprint)
            assert report is not None
            assert report["observations"] >= 1
            assert session.stats()[
                "repro_live_cost_adaptations_total"
            ] == shared.cost_adaptations
            assert shared.cost_adaptations >= 1
        finally:
            session.close()

    def test_a_cost_chosen_full_refresh_is_counted_as_both(self, monkeypatch):
        """The cost model preferring a re-evaluation is a deliberate full
        refresh: counted under its own name *and* as a full refresh,
        never as a delta fallback."""
        db, session = self._session()
        try:
            session.subscribe(scan("T"), name="adapt")
            monkeypatch.setattr(
                DEFAULT_COST_MODEL, "choose_refresh",
                lambda **observed: RefreshDecision(True, "forced by the test"),
            )
            current_insert(db.table("T"), (100,), at=50)
            session.flush()
            stats = session.stats()
            assert stats["repro_live_cost_full_refreshes_total"] == 1
            assert stats["repro_live_full_refreshes_total"] == 1
            assert stats["repro_live_delta_refreshes_total"] == 0
            (shared,) = session.shared_results()
            assert shared.delta_fallbacks == 0
            assert "forced by the test" in shared.explain_analyze()
        finally:
            session.close()

    def test_explain_analyze_surfaces_learned_parameters(self):
        db, session = self._session()
        try:
            subscription = session.subscribe(scan("T"), name="adapt")
            current_insert(db.table("T"), (100,), at=50)
            session.flush()
            text = subscription.explain_analyze()
            assert "cost_adaptations=" in text
            assert "cost=index_threshold=" in text
            data = subscription.explain_analyze(format="json")
            adaptation = data["totals"]["cost_adaptation"]
            assert adaptation["index_threshold"] >= 1
            assert adaptation["observations"] >= 1
        finally:
            session.close()

    def test_adaptations_reach_the_registry_counter(self):
        db, session = self._session()
        try:
            session.subscribe(scan("T"), name="adapt")
            current_insert(db.table("T"), (100,), at=50)
            session.flush()
            snapshot = session.metrics.snapshot()
            family = snapshot.get("repro_cost_adaptations_total")
            assert family is not None
            total = sum(sample["value"] for sample in family["samples"])
            assert total == session.stats()[
                "repro_live_cost_adaptations_total"
            ]
            parameters = {
                sample["labels"]["parameter"] for sample in family["samples"]
            }
            assert parameters <= {"index_threshold", "full_refresh_ratio"}
        finally:
            session.close()
