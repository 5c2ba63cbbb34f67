"""The performance ledger: one command, four workloads, every metric by name.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N] [--seconds S]
        [--commits C] [--n-bugs N] [--trace 0|1] [--out FILE] [--spans FILE]
        [--append-history]

Without ``--workload`` all four workloads run, each in a fresh
interpreter (so ``rss_mb`` is that workload's own), untraced first and —
with ``--trace 1`` — once more under the tracer; end-to-end numbers always
come from the untraced run.  With ``--workload`` one workload runs in
this process and the last line of standard output is one JSON object:
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

The program measures the checkout it lives in: ``src/`` beside
``benchmarks/`` goes to the front of ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no src/repro beside {HERE} — nothing to measure")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from lifecycle import WORKLOADS, Lifecycle  # noqa: E402
from stats import stamp  # noqa: E402
from trace import Tracer  # noqa: E402

HISTORY = HERE / "history.jsonl"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="scales every operation count (10 = the reference counts)",
    )
    parser.add_argument(
        "--commits", type=int, help="timed commits, overriding --seconds' count"
    )
    parser.add_argument("--n-bugs", type=int, default=5000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the result document here")
    parser.add_argument("--spans", type=Path, help="write the recorded spans here")
    parser.add_argument(
        "--append-history",
        action="store_true",
        help=f"append the result to {HISTORY.name}",
    )
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> Dict[str, object]:
    """Run ``args.workload`` in this process."""
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ledger-", dir=scratch))
    tracer = Tracer() if args.trace else None
    try:
        result = Lifecycle(
            WORKLOADS[args.workload],
            seed=args.seed,
            n_bugs=args.n_bugs,
            seconds=args.seconds,
            commits=args.commits,
            workdir=workdir,
            tracer=tracer,
        ).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None and args.spans:
        args.spans.write_text(json.dumps(tracer.export()))
    return result


def run_all(args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    """Run every workload in its own interpreter; merge the traced pass."""
    results: Dict[str, Dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="ledger-out-") as scratch:
        for name in WORKLOADS:
            for trace in (0, 1) if args.trace else (0,):
                out = Path(scratch) / f"{name}-{trace}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--n-bugs", str(args.n_bugs),
                    *(["--commits", str(args.commits)] if args.commits else []),
                    "--trace", str(trace), "--out", str(out),
                ]  # fmt: skip
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                # The child's report, minus its machine-readable last line.
                print(done.stdout.rsplit("\n", 2)[0], flush=True)
                if not out.is_file():
                    sys.exit(f"ledger: {name} (trace {trace}) produced no result")
                result = json.loads(out.read_text())["workloads"][name]
                if trace:
                    merged = results[name]
                    merged["per_layer"] = result["per_layer"]
                    merged["detail"]["profile"] = result["detail"]["profile"]
                    merged["correct"] = merged["correct"] and result["correct"]
                    for key in ("attempted", "failed", "failures"):
                        merged[key] += result[key]
                else:
                    results[name] = result
    return results


def report(result: Dict[str, object]) -> None:
    """Every metric by name, with unit, spread between repeats and count."""
    detail = result["detail"]
    print(f"== {result['workload']} ==")
    print(
        f"   rows {detail['rows']}, {detail['subscriptions']} subscriptions on "
        f"{detail['fingerprints']} fingerprints, {detail['commits']} timed commits"
    )
    gated = {item["name"] for item in CONTRACT["end_to_end"]}
    for name, metric in result["end_to_end"].items():
        print(
            f"   {name:<22} {metric['value']:>14.4f} {metric['unit']:<6}"
            f" spread {metric['spread']:6.1%}  n={metric['n']:<6}"
            f"{'' if name in gated else ' (ungated)'}"
        )
    share = result["failed"] / result["attempted"]
    print(
        f"   {'failed_share':<22} {share:>14.4f} {'share':<6}"
        f" {result['failed']} of {result['attempted']}"
    )
    for name in ("deliver_ms", "generator_late_ms"):
        entry = detail[name]
        if entry["n"]:
            tail = (
                f"{entry['tail']} {entry['tail_value']:.4f}"
                if entry["tail"]
                else "no tail (too few samples)"
            )
            print(f"   {name:<22} median {entry['median']:.4f}, {tail}, n={entry['n']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    if "per_layer" in result:
        print("   -- per layer --")
        for name, metric in result["per_layer"].items():
            print(f"   {name:<30} {metric['value']:>14.4f} {metric['unit']}")
        print("   -- self time per commit, ranked --")
        for row in detail["profile"][:12]:
            print(
                f"   {row['span']:<24} {row['ms_per_commit']:8.4f} ms"
                f"  {row['share']:6.1%}  x{row['calls_per_commit']:.1f}"
            )


def last_line(result: Dict[str, object], trace: int) -> str:
    """The machine-readable result of one workload: one JSON object with
    the metrics ``BENCHMARK.json`` declares for this kind of run."""
    measured = {**result["end_to_end"], **result.get("per_layer", {})}
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                item["name"]: {
                    "value": measured[item["name"]]["value"],
                    "unit": measured[item["name"]]["unit"],
                }
                for item in declared
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.workload:
        results = {args.workload: run_one(args)}
        report(results[args.workload])
    else:
        results = run_all(args)
    document = {
        "stamp": stamp(ROOT, args.seed),
        "config": {
            key: getattr(args, key)
            for key in ("seconds", "commits", "n_bugs")
        },
        "workloads": results,
    }
    if args.out:
        args.out.write_text(json.dumps(document, indent=1))
    if args.append_history:
        for result in results.values():
            result["detail"].pop("spans", None)
        with HISTORY.open("a") as history:
            history.write(json.dumps(document) + "\n")
    if args.workload:
        print(last_line(results[args.workload], args.trace))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
