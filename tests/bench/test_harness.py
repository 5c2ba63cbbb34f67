"""Unit tests for the benchmark harness arithmetic."""

import math

from repro.bench.harness import (
    REPEATS,
    ExperimentResult,
    amortization_instantiations,
    breakeven_reevaluations,
    default_scale,
    measure,
)


class TestMeasure:
    def test_returns_positive_median(self):
        result = measure(lambda: sum(range(1000)))
        assert 0 < result.q1 <= result.seconds <= result.q3
        assert result.millis == result.seconds * 1e3
        assert result.spread == (result.q3 - result.q1) / result.seconds

    def test_one_odd_repeat_count_of_at_least_five(self):
        calls = []
        measure(lambda: calls.append(None))
        assert REPEATS >= 5 and REPEATS % 2 == 1
        assert len(calls) == REPEATS + 1  # one warm-up run


class TestBreakeven:
    def test_equal_costs_break_even_immediately(self):
        assert breakeven_reevaluations(1.0, 1.0) == 0

    def test_double_cost_breaks_even_after_one(self):
        assert breakeven_reevaluations(2.0, 1.0) == 1

    def test_paper_shape(self):
        # ongoing 2.4x clifford -> wins from the 2nd re-evaluation on.
        assert breakeven_reevaluations(2.4, 1.0) == 2

    def test_zero_clifford_cost(self):
        assert breakeven_reevaluations(1.0, 0.0) == 0


class TestAmortization:
    def test_simple_crossover(self):
        # ongoing=10, instantiate=1, clifford=6 -> 10 / 5 = 2 instantiations
        assert amortization_instantiations(10.0, 1.0, 6.0) == 2.0

    def test_never_amortizes_when_instantiation_dominates(self):
        assert math.isinf(amortization_instantiations(10.0, 7.0, 6.0))


class TestExperimentResult:
    def test_format_and_checks(self):
        result = ExperimentResult(experiment="X", title="t")
        result.add_row("row one")
        result.add_check("shape holds", True)
        result.add_check("other shape", False)
        text = result.format()
        assert "row one" in text
        assert "[PASS] shape holds" in text
        assert "[FAIL] other shape" in text
        assert not result.all_passed()

    def test_all_passed_with_no_checks(self):
        assert ExperimentResult(experiment="X", title="t").all_passed()


class TestDefaultScale:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert default_scale() == 2.5

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        assert default_scale() == 1.0

    def test_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        assert default_scale() == 0.01
