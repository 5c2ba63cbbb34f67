"""Per-layer metrics: spans and public counters folded into named numbers.

Layer names are module names of ``repro``.  Timings are **self times**
on the thread CPU clock (see :mod:`trace`) — a wait for the interpreter
lock is nobody's self time; unless a metric says
otherwise they are means in milliseconds per call over the *traced
rounds of the live phase*, so ``metric × calls per commit`` is that
layer's share of one commit.  Waits (``*.wait_ms``, ``wal.sync_ms``,
``generator.late_ms``) are wall-clock by nature.  Counts come from the
public counters: ``session.stats()``, the session's metrics registry
(which carries the WAL's and the recovery's counters),
``Subscription.node_report()`` and the mailbox statistics.  A layer a
workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from itertools import groupby
from typing import Dict, List, Sequence

from repro.bench.harness import breakeven_reevaluations

from stats import summary

#: Operator classes whose ``apply_delta`` time is reported by name.
OPERATORS = (
    "SeqScan",
    "IntervalScan",
    "FixedFilter",
    "OngoingFilter",
    "ProjectOp",
    "HashJoin",
    "AggregateOp",
    "DistinctOp",
    "SortLimitOp",
)


def _mean_ms(values: Sequence[float]) -> float:
    return statistics.fmean(values) * 1e3 if values else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def trace_overhead_pct(rounds) -> float:
    """What the tracer costs a closed loop, in percent of a commit's time.

    The loop alternates traced and untraced blocks of rounds; each block
    is compared with the block after it (the same op mix, a moment
    later), and the median of those ratios is reported — the machine's
    speed drifts over a run, and one stalled block would own a mean.
    """
    costs = []  # (traced?, seconds per commit) of each block, in order
    for traced, block in groupby(rounds, key=lambda item: item.traced):
        block = list(block)
        seconds = sum(item.ended - item.started for item in block)
        costs.append((traced, seconds / sum(item.commits for item in block)))
    ratios = [
        cost / after if traced else after / cost
        for (traced, cost), (_, after) in zip(costs, costs[1:])
    ]
    return (statistics.median(ratios) - 1.0) * 100.0 if ratios else 0.0


def counter(snapshot: Dict[str, dict], name: str) -> float:
    """The unlabeled sample of *name* in a registry snapshot (0 if absent)."""
    samples = snapshot.get(name, {}).get("samples", ())
    return float(samples[0]["value"]) if samples else 0.0


def per_layer(run, rounds, cold, recovered) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run."""
    tracer = run.tracer
    live = tracer.self_times("live")
    everywhere = tracer.self_times()
    recovering = tracer.self_times("recover")
    traced = [item for item in rounds if item.traced]
    commits = sum(item.commits for item in traced)
    all_commits = sum(item.commits for item in rounds)

    def moved(name: str) -> float:
        return float(run.stats_after[name] - run.stats_before[name])

    values: Dict[str, tuple] = {}

    def put(name: str, value: float, unit: str) -> None:
        values[name] = (value, unit)

    # sqlish, planner, cold executor: whole-run totals.
    put("sqlish.compile_ms", sum(everywhere["sqlish.compile"]) * 1e3, "ms")
    put("planner.plan_ms", sum(everywhere["planner.plan"]) * 1e3, "ms")
    put(
        "executor.cold_eval_s",
        sum(everywhere["executor.query"]) + sum(everywhere["executor.evaluate"]),
        "s",
    )
    put("executor.rows_out", run.detail.get("cold_rows_out", 0), "count")

    # engine.database: the commit itself, WAL time excluded (child span).
    for verb in ("insert", "update", "delete"):
        put(f"commit.{verb}_ms", _mean_ms(live[f"commit.{verb}"]), "ms")
    put("commit.count", commits, "count")

    # durable.wal
    put("wal.append_ms", _mean_ms(live["wal.append"]), "ms")
    put("wal.sync_ms", _median(tracer.durations("wal.sync")) * 1e3, "ms")
    put("wal.fsyncs", counter(run.final_metrics, "repro_wal_fsyncs_total"), "count")
    put("wal.bytes_per_commit", (run.wal_after - run.wal_before) / all_commits, "bytes")

    # live.manager
    flushes = moved("repro_live_flushes_total")
    put("flush.self_ms", _mean_ms(live["live.flush"]), "ms")
    put("flush.rounds", flushes, "count")
    put("flush.commits_per_round", all_commits / flushes if flushes else 0.0, "count")
    put("flush.wait_ms", _median(tracer.flush_waits) * 1e3, "ms")

    # engine.delta / engine.maintenance
    by_operator: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    rows_in = rows_out = state_bytes = 0.0
    for report in run.node_reports:
        for node in report:
            entry = by_operator[node["operator"]]
            entry[0] += node["apply_seconds"]
            entry[1] += node["applies"]
            rows_in += node["delta_rows_in"]
            rows_out += node["delta_rows_out"]
            state_bytes += node["state_bytes"]
    put("delta.refresh_ms", _mean_ms(live["delta.refresh"]), "ms")
    for operator in OPERATORS:
        seconds, applies = by_operator.get(operator, (0.0, 0.0))
        put(
            f"delta.apply_ms.{operator}",
            seconds / applies * 1e3 if applies else 0.0,
            "ms",
        )
    put("delta.rows_in", rows_in, "count")
    put("delta.rows_out", rows_out, "count")
    full = moved("repro_live_full_refreshes_total")
    refreshes = full + moved("repro_live_delta_refreshes_total")
    put("delta.full_refreshes", full, "count")
    put("delta.fallback_share", full / refreshes if refreshes else 0.0, "share")
    put("delta.state_bytes", state_bytes, "bytes")

    # relational.relation (ResultStore)
    taken = moved("repro_store_snapshots_taken_total")
    reused = moved("repro_store_snapshots_reused_total")
    put("store.commit_ms", _mean_ms(live["store.commit"]), "ms")
    put("store.snapshot_ms", _mean_ms(live["store.snapshot"]), "ms")
    put("store.snapshots_taken", taken, "count")
    put(
        "store.snapshot_reuse_share",
        reused / (taken + reused) if taken + reused else 0.0,
        "share",
    )

    # live.subscription / core
    put("notify.instantiate_ms", _mean_ms(live["notify.instantiate"]), "ms")
    put("notify.count", moved("repro_live_notifications_total"), "count")
    put("notify.suppressed", moved("repro_live_suppressed_notifications_total"), "count")

    # serve.queues / serve.bus
    put("mailbox.wait_ms", _median(tracer.mailbox_waits) * 1e3, "ms")
    put(
        "mailbox.coalesced",
        run.final_stats["repro_serve_coalesced_notifications_total"],
        "count",
    )
    put(
        "mailbox.dropped",
        run.final_stats["repro_serve_dropped_notifications_total"],
        "count",
    )
    put("delivery.callback_ms", _mean_ms(live["delivery.callback"]), "ms")
    put("delivery.backlog_max", tracer.backlog_max, "count")

    # durable.snapshot / durable.recovery: per recovery.
    recoveries = len(recovered["recover"].seconds)
    replay_s = sum(recovering["recovery.apply_delta"]) / recoveries
    replayed = counter(
        run.recovery_reports[-1]["metrics"], "repro_recovery_replayed_records_total"
    )
    final_flush = [
        record[2] - record[1]
        for record in tracer.spans
        if record[0] == "live.flush"
        and record[3] is not None
        and record[3][0] == "recovery.open"
    ]
    put("checkpoint.write_s", _median(tracer.durations("checkpoint.write", "recover")), "s")
    put(
        "checkpoint.bytes",
        _median([report["checkpoint_bytes"] for report in run.recovery_reports]),
        "bytes",
    )
    put("recovery.load_s", _median(tracer.durations("recovery.load", "recover")), "s")
    put("recovery.resume_s", _median(tracer.durations("recovery.resume", "recover")), "s")
    put("recovery.replay_s", replay_s, "s")
    put("recovery.records_per_s", replayed / replay_s if replay_s else 0.0, "1/s")
    put("recovery.final_flush_s", _median(final_flush), "s")

    # baselines.clifford: the paper-anchored reference (cold_paper only).
    # One Clifford evaluation of the three queries (mean over the five
    # reference times), beside one ongoing evaluation of the same three.
    clifford = sum(_median(timer.seconds) for timer in cold["clifford"].values()) / 5.0
    ongoing = sum(
        _median(timer.seconds)
        for name, timer in cold["query"].items()
        if str(name).endswith(".plan")
    )
    put("clifford.query_s", clifford, "s")
    put(
        "clifford.breakeven",
        breakeven_reevaluations(ongoing, clifford) if clifford else 0,
        "count",
    )

    # harness
    put("generator.late_ms", _median(run.late) * 1e3, "ms")
    put("trace.overhead_pct", trace_overhead_pct(rounds), "%")

    run.detail["profile"] = profile(live, commits)
    run.detail["spans"] = {
        name: summary([value * 1e3 for value in samples])
        for name, samples in sorted(live.items())
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def profile(live: Dict[str, List[float]], commits: int) -> List[Dict[str, object]]:
    """The self-time budget of one commit, ranked: where the time goes."""
    total = sum(sum(samples) for samples in live.values())
    rows = [
        {
            "span": name,
            "ms_per_commit": sum(samples) / commits * 1e3 if commits else 0.0,
            "calls_per_commit": len(samples) / commits if commits else 0.0,
            "share": sum(samples) / total if total else 0.0,
        }
        for name, samples in live.items()
    ]
    return sorted(rows, key=lambda row: -row["ms_per_commit"])
