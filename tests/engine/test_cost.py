"""The cost model: three constants over an evaluator's own numbers."""

from repro.core.interval import until_now
from repro.engine.cost import DEFAULT_COST_MODEL, CostModel, RefreshDecision
from repro.engine.database import Database
from repro.engine.modifications import current_insert
from repro.engine.plan import scan
from repro.live import LiveSession
from repro.relational.schema import Schema


class TestStaticModel:
    def test_index_threshold_is_the_cut(self):
        model = CostModel(index_threshold=32)
        assert model.use_index(32) is True
        assert model.use_index(31) is False
        assert CostModel(index_threshold=None).use_index(10**6) is False

    def test_below_the_floor_is_always_a_delta(self):
        decision = CostModel(full_refresh_floor_rows=256).choose_refresh(
            pending_rows=255, apply_seconds=9.0, apply_rows=1, full_seconds=1e-9
        )
        assert decision.full is False and "below floor=256" in decision.reason

    def test_nothing_observed_is_a_delta(self):
        model = CostModel(full_refresh_floor_rows=10)
        for observed in (
            dict(apply_seconds=0.0, apply_rows=0, full_seconds=None),
            dict(apply_seconds=1.0, apply_rows=10, full_seconds=None),
            dict(apply_seconds=0.0, apply_rows=0, full_seconds=1e-3),
        ):
            decision = model.choose_refresh(pending_rows=1000, **observed)
            assert decision.full is False
            assert "no observed" in decision.reason

    def test_projected_beyond_ratio_times_full_is_a_full_refresh(self):
        """No test outside the adaptation file covered the static choice:
        1000 rows × 100 µs = 100 ms against 2 × 1 ms re-evaluates, and
        the reason carries the numbers; at 2 × 60 ms it propagates."""
        model = CostModel(full_refresh_floor_rows=10, full_refresh_ratio=2.0)
        observed = dict(pending_rows=1000, apply_seconds=1e-2, apply_rows=100)
        full = model.choose_refresh(full_seconds=1e-3, **observed)
        assert full.full is True
        for number in ("pending=1000", "100.00µs/row", "100.00ms", "> 2×", "1.00ms"):
            assert number in full.reason, full.reason
        delta = model.choose_refresh(full_seconds=6e-2, **observed)
        assert delta.full is False and "<= 2×" in delta.reason

    def test_the_model_is_its_three_constants(self):
        """Kills: history kept on the shared default model — anything the
        model stored about a refresh would show up here."""
        parameters = {"index_threshold", "full_refresh_floor_rows", "full_refresh_ratio"}
        assert set(vars(DEFAULT_COST_MODEL)) == parameters
        DEFAULT_COST_MODEL.choose_refresh(
            pending_rows=10**6, apply_seconds=1.0, apply_rows=1, full_seconds=1e-6
        )
        assert set(vars(DEFAULT_COST_MODEL)) == parameters


class TestMaintainerLoop:
    """The maintainer asks the model and counts what it chose."""

    def _session(self, name="cost"):
        db = Database(name)
        table = db.create_table("T", Schema.of("K", ("VT", "interval")))
        for index in range(8):
            table.insert(index, until_now(index))
        return db, LiveSession(db)

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

    def test_what_one_database_measured_cannot_steer_another(self, monkeypatch):
        """Two databases in one process subscribe the same statement; the
        first measures a ruinous per-row delta cost.  The second's first
        batch past the floor still propagates as a delta: a fresh
        evaluator has observed nothing.  Kills: history kept on the
        shared default model, keyed by the (equal) plan fingerprint."""
        first_db, first = self._session("first")
        second_db, second = self._session("second")
        try:
            (first_sub, second_sub) = (
                session.subscribe(scan("T")) for session in (first, second)
            )
            assert first_sub.fingerprint == second_sub.fingerprint
            evaluator = first.shared_results()[0]._evaluator
            apply = evaluator.apply

            def an_hour_per_row(pending):
                delta = apply(pending)
                evaluator.apply_seconds_total += 3600.0
                return delta

            monkeypatch.setattr(evaluator, "apply", an_hour_per_row)
            current_insert(first_db.table("T"), (100,), at=50)
            first.flush()
            floor = DEFAULT_COST_MODEL.full_refresh_floor_rows
            for db in (first_db, second_db):
                table = db.table("T")
                with table.batch():
                    for key in range(floor):
                        table.insert(1000 + key, until_now(60))
            first.flush()
            second.flush()
            assert first.stats()["repro_live_cost_full_refreshes_total"] == 1
            stats = second.stats()
            assert stats["repro_live_cost_full_refreshes_total"] == 0
            assert stats["repro_live_delta_refreshes_total"] == 1
            (shared,) = second.shared_results()
            assert "no observed" in shared.last_refresh_decision
        finally:
            first.close()
            second.close()
