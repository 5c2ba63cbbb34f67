"""Regenerate PROFILE.md: where one commit's time goes, at three scales.

    python benchmarks/ledger/make_profile.py [--scales 5000 20000 80000] [--seed N]

Runs ``journey_mixed`` and ``burst_serve`` under the tracer at each scale
(fewer commits at the larger scales — the budget is per commit, so the
count only sets its precision) and writes the ranked
self-time budget of one commit, resp. one flush round, to ``PROFILE.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Timed commits per scale: enough rounds for a stable mean per span.
COMMITS = {5000: 600, 20000: 300, 80000: 150}


def traced(workload: str, n_bugs: int, seed: int, scratch: Path) -> dict:
    out = scratch / f"{workload}-{n_bugs}.json"
    commits = COMMITS.get(n_bugs, 300)
    subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--n-bugs", str(n_bugs), "--seed", str(seed),
            "--commits", str(commits), "--trace", "1", "--out", str(out),
        ],  # fmt: skip
        check=True,
        stdout=subprocess.DEVNULL,
    )
    document = json.loads(out.read_text())
    return {**document["workloads"][workload], "stamp": document["stamp"]}


def table(result: dict, per: str, divisor: float) -> list:
    rows = result["detail"]["profile"]
    lines = [
        f"| span | CPU ms per {per} | share | calls per {per} |",
        "| --- | ---: | ---: | ---: |",
    ]
    for row in rows:
        if row["share"] < 0.002:
            continue
        lines.append(
            f"| `{row['span']}` | {row['ms_per_commit'] * divisor:.3f} "
            f"| {row['share']:.1%} | {row['calls_per_commit'] * divisor:.1f} |"
        )
    total = sum(row["ms_per_commit"] for row in rows) * divisor
    lines.append(f"| **total traced self time** | **{total:.3f}** | 100 % | |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scales", type=int, nargs="+", default=sorted(COMMITS))
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args()
    text = [
        "# PROFILE — where one commit's time goes",
        "",
        "Generated by `python benchmarks/ledger/make_profile.py`; do not edit by hand.",
        "Self time on the thread CPU clock, per span, over the traced rounds of the",
        "live phase (see README.md, *Per-layer metrics* and *Reading PROFILE.md*).",
        "The machine's speed drifts between runs: read the shares, and compare",
        "absolute numbers only within one table.",
        "",
    ]
    with tempfile.TemporaryDirectory(prefix="ledger-profile-") as scratch:
        for n_bugs in args.scales:
            journey = traced("journey_mixed", n_bugs, args.seed, Path(scratch))
            burst = traced("burst_serve", n_bugs, args.seed, Path(scratch))
            stamp = journey["stamp"]
            layer = journey["per_layer"]
            text += [
                f"## n_bugs = {n_bugs:,}",
                "",
                f"Rows at the end of `journey_mixed`: {journey['detail']['rows']}; "
                f"seed {stamp['seed']}, commit `{stamp['git_sha'][:12]}`, "
                f"Python {stamp['python']}, {stamp['cpu']} × {stamp['nproc']}.",
                "",
                f"### One `journey_mixed` commit ({journey['detail']['commits']} timed, "
                f"tracing overhead {layer['trace.overhead_pct']['value']:.1f} %)",
                "",
                *table(journey, "commit", 1.0),
                "",
                f"Notifications per commit: "
                f"{layer['notify.count']['value'] / journey['detail']['commits']:.1f} sent, "
                f"{layer['notify.suppressed']['value'] / journey['detail']['commits']:.1f} "
                f"suppressed; snapshot reuse "
                f"{layer['store.snapshot_reuse_share']['value']:.0%}; operator state "
                f"{layer['delta.state_bytes']['value'] / 1e6:.0f} MB; recovery replays "
                f"{layer['recovery.records_per_s']['value']:.0f} records/s.",
                "",
            ]
            per_round = burst["per_layer"]["flush.commits_per_round"]["value"]
            text += [
                f"### One `burst_serve` flush round "
                f"({per_round:.1f} commits per round, "
                f"{burst['per_layer']['flush.rounds']['value']:.0f} rounds)",
                "",
                *table(burst, "round", per_round),
                "",
                f"Wall-clock waits: commit → flush start "
                f"{burst['per_layer']['flush.wait_ms']['value']:.1f} ms, mailbox "
                f"{burst['per_layer']['mailbox.wait_ms']['value']:.1f} ms (median); "
                f"{burst['per_layer']['mailbox.coalesced']['value']:.0f} notifications "
                f"coalesced, backlog up to "
                f"{burst['per_layer']['delivery.backlog_max']['value']:.0f}.",
                "",
            ]
    (HERE / "PROFILE.md").write_text("\n".join(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
