"""Integration tests: every workload's ongoing run instantiates to its
Clifford run at every sampled reference time.

This is the end-to-end version of the paper's correctness requirement
``∀rt: ‖Q(D)‖rt == Q(‖D‖rt)`` — the left side is the ongoing engine, the
right side the independent Clifford executor over instantiated data.
"""

import pytest

from repro.baselines.clifford import cliff_max_reference_time
from repro.datasets import (
    ComplexJoinWorkload,
    SelectionWorkload,
    SelfJoinWorkload,
    TemporalJoinWorkload,
    generate_dex,
    generate_dsc,
    generate_dsh,
    generate_mozilla,
    last_tenth,
    synthetic_database,
)
from repro.datasets import mozilla as mozilla_module
from repro.datasets import synthetic as synthetic_module

_MOZ_ARGUMENT = last_tenth(mozilla_module.HISTORY_START, mozilla_module.HISTORY_END)
_SYN_ARGUMENT = last_tenth(
    synthetic_module.HISTORY_START, synthetic_module.HISTORY_END
)


@pytest.fixture(scope="module")
def mozilla_db():
    return generate_mozilla(600).as_database()


@pytest.fixture(scope="module")
def dex_db():
    return synthetic_database(generate_dex(400))


@pytest.fixture(scope="module")
def dsh_db():
    return synthetic_database(generate_dsh(400))


def _sample_rts(history_start, history_end):
    span = history_end - history_start
    return [
        history_start,
        history_start + span // 3,
        history_end - span // 10,
        history_end + 50,
    ]


class TestSelectionWorkload:
    @pytest.mark.parametrize("predicate", ["overlaps", "before"])
    def test_ongoing_matches_clifford_everywhere(self, mozilla_db, predicate):
        workload = SelectionWorkload("B", predicate, _MOZ_ARGUMENT)
        ongoing = workload.run_ongoing(mozilla_db)
        for rt in _sample_rts(
            mozilla_module.HISTORY_START, mozilla_module.HISTORY_END
        ):
            clifford = workload.run_clifford(mozilla_db, rt)
            assert ongoing.instantiate(rt) == frozenset(clifford), rt

    def test_plan_is_a_selection_over_a_scan(self, mozilla_db):
        workload = SelectionWorkload("B", "overlaps", _MOZ_ARGUMENT)
        text = mozilla_db.explain(workload.plan())
        # The table is large enough that the cost model routes the
        # temporal probe through the interval index.
        assert "OngoingFilter" in text and "IntervalScan" in text

    def test_the_cold_result_holds_one_rt_object_per_rt_value(self):
        # Qσ_ovlp on D_sc: a predicate gives every tuple on the same side
        # of its critical points the same true-set, so ~2k rows hold a few
        # dozen RT values — and as many RT objects, not one per row.
        database = synthetic_database(generate_dsc(2000))
        result = SelectionWorkload("R", "overlaps", _SYN_ARGUMENT).run_ongoing(database)
        values = {item.rt for item in result}
        assert len(values) > 10 and len(result) > 10 * len(values)
        assert len({id(item.rt) for item in result}) == len(values)


class TestSelfJoinWorkload:
    @pytest.mark.parametrize("predicate", ["overlaps", "before"])
    def test_ongoing_matches_clifford_everywhere(self, dex_db, predicate):
        workload = SelfJoinWorkload("R", predicate)
        ongoing = workload.run_ongoing(dex_db)
        for rt in _sample_rts(
            synthetic_module.HISTORY_START, synthetic_module.HISTORY_END
        ):
            clifford = workload.run_clifford(dex_db, rt)
            assert ongoing.instantiate(rt) == frozenset(clifford), rt

    def test_uses_hash_join(self, dex_db):
        workload = SelfJoinWorkload("R", "overlaps")
        assert "HashJoin" in dex_db.explain(workload.plan())


class TestTemporalJoinWorkload:
    def test_overlaps_matches_clifford(self, dsh_db):
        workload = TemporalJoinWorkload("R", "overlaps")
        ongoing = workload.run_ongoing(dsh_db)
        rt = cliff_max_reference_time(dsh_db.relation("R"))
        assert ongoing.instantiate(rt) == frozenset(workload.run_clifford(dsh_db, rt))

    def test_before_matches_clifford(self):
        database = synthetic_database(generate_dex(120))
        workload = TemporalJoinWorkload("R", "before")
        ongoing = workload.run_ongoing(database)
        for rt in (synthetic_module.HISTORY_START + 100, synthetic_module.HISTORY_END):
            assert ongoing.instantiate(rt) == frozenset(
                workload.run_clifford(database, rt)
            )

    def test_uses_merge_interval_join(self, dsh_db):
        workload = TemporalJoinWorkload("R", "overlaps")
        assert "MergeIntervalJoin" in dsh_db.explain(workload.plan())


class TestComplexJoinWorkload:
    @pytest.mark.parametrize("predicate", ["overlaps", "before"])
    def test_ongoing_matches_clifford_everywhere(self, mozilla_db, predicate):
        workload = ComplexJoinWorkload(predicate)
        ongoing = workload.run_ongoing(mozilla_db)
        for rt in _sample_rts(
            mozilla_module.HISTORY_START, mozilla_module.HISTORY_END
        ):
            clifford = workload.run_clifford(mozilla_db, rt)
            assert ongoing.instantiate(rt) == frozenset(clifford), rt

    def test_severity_filter_applies(self, mozilla_db):
        workload = ComplexJoinWorkload("overlaps", severity="blocker")
        result = workload.run_ongoing(mozilla_db)
        severity_position = result.schema.index_of("S.Severity")
        assert all(
            row.values[severity_position] == "blocker" for row in result
        )


class TestLastTenth:
    def test_spans_the_last_ten_percent(self):
        assert last_tenth(0, 100) == (90, 100)
        assert last_tenth(-200, 0) == (-20, 0)
