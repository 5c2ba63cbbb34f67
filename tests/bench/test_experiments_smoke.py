"""Smoke tests: every experiment driver runs and its shape checks pass.

Run at a tiny scale so the whole file stays fast; the real numbers come
from ``python -m repro.bench all`` at scale >= 1.
"""

import functools

import pytest

from repro.bench.experiments import REGISTRY

_FAST = [
    "table1", "table3", "table4", "table5", "fig7", "fig12", "fig13",
    "ablation_index", "ablation_planner", "ablation_predicates",
    "extension_aggregation",
]
_TIMED = ["fig8", "fig10", "fig11"]


@functools.lru_cache(maxsize=None)
def _run(name):
    """One tiny-scale run per driver, shared by the tests that read it."""
    return REGISTRY[name](scale=0.1)


@pytest.mark.parametrize("name", _FAST)
def test_fast_experiment_shapes(name):
    result = _run(name)
    assert result.rows, name
    assert result.all_passed(), result.format()


@pytest.mark.parametrize("name", _TIMED)
def test_timed_experiment_runs(name):
    # Timing-based checks can flake at tiny scale; require the driver to
    # run and produce data, and require the non-timing checks to pass.
    result = _run(name)
    assert result.rows, name
    assert result.data, name


def test_amortization_times_a_cold_build():
    """Figs. 11-12's ongoing term is a cold build of the whole result,
    which must cost more than binding that result at one rt."""
    fig11 = _run("fig11")
    for label in ("selection Qσ_ovlp(B)", "complex join QC⋈_ovlp(A,S,B)"):
        ongoing = fig11.data[f"ongoing_ms[{label}]"]
        instantiate = fig11.data[f"instantiate_ms[{label}]"]
        assert len(ongoing) == len(instantiate) == 4
        for built, bound in zip(ongoing, instantiate):
            assert built > bound, (label, ongoing, instantiate)
    fig12 = _run("fig12")
    for bound in fig12.data["instantiate_ms"]:
        assert fig12.data["ongoing_ms"] > bound, fig12.format()


def test_fig9_runs_at_tiny_scale():
    result = REGISTRY["fig9"](scale=0.05)
    assert result.data["D_ex_ongoing_ms"]


def test_registry_covers_every_table_and_figure():
    assert set(REGISTRY) == {
        "table1", "table3", "table4", "table5",
        "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        "ablation_index", "ablation_planner", "ablation_predicates",
        "extension_aggregation",
    }


def test_cli_rejects_unknown_experiment(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["no-such-experiment"])


def test_cli_runs_single_experiment(capsys):
    from repro.bench.__main__ import main

    assert main(["table1", "--scale", "0.1"]) == 0
    captured = capsys.readouterr()
    assert "Table I" in captured.out
