"""Smoke test of the ledger: tiny scale, every workload, no timing asserts.

Runs the four workloads at ``n_bugs=500`` with 50 commits each, in
subprocesses (the ledger's modules are scripts, not a package), and
checks what a later change could silently break: that every metric
``BENCHMARK.json`` declares is emitted with its unit and none that it
does not declare, that the oracle passes, that equal seeds give equal
notification counts, and that traced spans nest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [item["name"] for item in CONTRACT["workloads"]]
SMALL = ["--n-bugs", "500", "--commits", "50"]


_RUNS: dict = {}


def ledger(tmp_path: Path, workload: str, trace: int):
    """One run per (workload, trace) for the whole module."""
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = _ledger(tmp_path, workload, trace)
    return _RUNS[workload, trace]


def _ledger(tmp_path: Path, workload: str, trace: int):
    out, spans = tmp_path / "out.json", tmp_path / "spans.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--trace", str(trace), "--out", str(out),
            "--spans", str(spans), *SMALL,
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    document = json.loads(out.read_text())
    recorded = json.loads(spans.read_text()) if spans.is_file() else []
    return last, document["workloads"][workload], recorded


def declared(section: str) -> dict:
    return {item["name"]: item["unit"] for item in CONTRACT[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_declared_metric(tmp_path, workload):
    last, result, spans = ledger(tmp_path, workload, trace=1)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert result["failures"] == []
    emitted = {name: metric["unit"] for name, metric in last["metrics"].items()}
    assert emitted == declared("per_layer")
    # The document holds every end-to-end metric, gated or not, and none
    # that BENCHMARK.json does not declare in one of its two lists.
    in_document = {n: m["unit"] for n, m in result["end_to_end"].items()}
    assert declared("end_to_end").items() <= in_document.items()
    assert in_document.items() <= {**declared("end_to_end"), **emitted}.items()
    assert all(metric["value"] > 0 for metric in result["end_to_end"].values())
    assert result["detail"]["commits"] == 50

    # Every span lies inside its parent (wall clock, any thread).
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], (
                span,
                parent,
            )
    if workload == "journey_mixed":
        # One root per tick: the commit's journey, and nothing beside it.
        roots = [
            span for span in spans if span["phase"] == "live" and span["parent"] is None
        ]
        assert roots and {span["name"] for span in roots} == {"journey"}
        ticks = [span["tick"] for span in roots]
        assert len(ticks) == len(set(ticks))


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path):
    last, result, _ = ledger(tmp_path, "journey_mixed", trace=0)
    emitted = {name: metric["unit"] for name, metric in last["metrics"].items()}
    assert emitted == declared("end_to_end")
    assert last["correct"] is True
    # Same seed, same inputs: the traced run saw the same deliveries.
    _, traced, _ = ledger(tmp_path, "journey_mixed", trace=1)
    assert traced["detail"]["signature"] == result["detail"]["signature"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, no result."""
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "journey_mixed"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
