"""Freshness SLOs: the error-budget math, and a serve loop that does not
steer by it."""

import pytest

from repro.engine.database import Database
from repro.live import LiveSession
from repro.obs.slo import FreshnessSLO
from repro.relational.schema import Schema


class TestBudgetMath:
    def test_empty_window_is_healthy(self):
        slo = FreshnessSLO(0.1)
        assert slo.compliance() == 1.0
        assert slo.error_budget_burn() == 0.0
        assert slo.healthy()

    def test_validation(self):
        with pytest.raises(ValueError):
            FreshnessSLO(0.0)
        with pytest.raises(ValueError):
            FreshnessSLO(0.1, objective=1.0)
        with pytest.raises(ValueError):
            FreshnessSLO(0.1, objective=0.0)
        with pytest.raises(ValueError):
            FreshnessSLO(0.1, window=0)

    def test_compliance_counts_violations(self):
        slo = FreshnessSLO(0.1, objective=0.9, window=10)
        for _ in range(9):
            slo.observe(0.05)  # within target
        slo.observe(0.5)  # one violation: exactly at the 10% budget
        assert slo.compliance() == pytest.approx(0.9)
        assert slo.error_budget_burn() == pytest.approx(1.0)
        assert slo.healthy()  # burn == 1.0 is *at* budget, not over
        slo.observe(0.5)  # second violation evicts a compliant one
        assert slo.error_budget_burn() == pytest.approx(2.0)
        assert not slo.healthy()

    def test_window_eviction_forgets_old_violations(self):
        slo = FreshnessSLO(0.1, objective=0.5, window=4)
        for _ in range(4):
            slo.observe(1.0)  # all violations
        assert slo.error_budget_burn() == pytest.approx(2.0)
        for _ in range(4):
            slo.observe(0.01)  # window rolls over entirely
        assert slo.compliance() == 1.0
        assert slo.healthy()

    def test_boundary_is_compliant(self):
        slo = FreshnessSLO(0.1, window=4)
        slo.observe(0.1)  # exactly the target: meets it
        assert slo.compliance() == 1.0

    def test_snapshot_carries_totals_across_eviction(self):
        slo = FreshnessSLO(0.1, objective=0.5, window=2)
        for _ in range(5):
            slo.observe(1.0)
        snap = slo.snapshot()
        assert snap["window_filled"] == 2
        assert snap["window_violations"] == 2
        assert snap["observed_total"] == 5
        assert snap["violated_total"] == 5
        assert snap["healthy"] is False
        assert snap["error_budget_burn"] == pytest.approx(2.0)


class TestTheSLOOnlyObserves:
    """A burning budget is reported, it does not steer the debounce."""

    def _session(self, slo):
        db = Database("slo-debounce")
        db.create_table("T", Schema.of("K", ("VT", "interval")))
        return LiveSession(db, freshness_slo=slo, queue_capacity=8)

    def test_burning_budget_leaves_band_window_untouched(self):
        """Kills: the burn division put back (a burn of 2.0 would halve
        the saturated window's distance above the floor)."""
        slo = FreshnessSLO(0.001, objective=0.5, window=4)
        session = self._session(slo)
        try:
            session.serve(debounce_min=0.001, debounce_max=0.1)
            assert session._serve_loop.debounce_for_depth(8) == 0.1
            for _ in range(4):
                slo.observe(1.0)
            assert slo.error_budget_burn() == pytest.approx(2.0)
            assert not slo.healthy()
            assert session._serve_loop.debounce_for_depth(8) == 0.1
        finally:
            session.close()

    def test_fixed_debounce_ignores_slo(self):
        slo = FreshnessSLO(0.001, objective=0.5, window=2)
        session = self._session(slo)
        try:
            session.serve(debounce=0.02)
            for _ in range(2):
                slo.observe(1.0)
            assert session.current_debounce() == pytest.approx(0.02)
        finally:
            session.close()
