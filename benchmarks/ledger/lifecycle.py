"""The four workloads, as one database lifecycle with four traffic shapes.

Every workload runs the same phases against the public API of ``repro``:

1. **set-up** — generate MozillaBugs from the seed, open a durable
   database, load it, subscribe ``pool_v1``, checkpoint;
2. **live** — one writer thread commits modifications (closed loop, or an
   open loop of bursts on a fixed schedule under ``session.serve``);
3. **cold** — cold evaluation and instantiation.  On the live workloads
   this *is* the oracle (every fingerprint re-evaluated on the final
   tables); on ``cold_paper`` it is the paper's three queries;
4. **recover** — close without a checkpoint, reopen copies of the
   directory (checkpoint load, subscription resume, WAL replay, final
   flush), check the recovered state is byte-identical, checkpoint.

The driver's contract wants every end-to-end metric from every workload
(README.md quotes it), hence one lifecycle; the workloads differ in which
phase carries the load and in the shape of the live traffic
(:data:`WORKLOADS`).  All phase lengths are operation counts derived from
``--seconds`` by a constant factor, never durations: two commits being
compared do identical work.

Every end-to-end timing is wall clock; the value over repeats of one
operation is their median, with the quartile spread beside it.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.datasets import (
    ComplexJoinWorkload,
    SelectionWorkload,
    SelfJoinWorkload,
    generate_dex,
    generate_dsc,
    generate_mozilla,
    last_tenth,
)
from repro.datasets import synthetic
from repro.engine.database import Database

import layers
import oracle
from pool import (
    REFERENCE_TIMES,
    Op,
    Recorder,
    apply_op,
    modification_stream,
    pool_v1,
)
from stats import Timer, percentile, quartile_spread, summary, timed_passes
from trace import Tracer

#: The system under test gets one delivery worker and no flush shards:
#: with the single writer that is three threads on two cores.
SESSION = {
    "delivery_workers": 1,
    "flush_shards": 0,
    "backpressure": "block",
    "queue_capacity": 64,
}
SERVE = {"debounce_min": 0.001, "debounce_max": 0.05}

#: Open loop: bursts of BURST_COMMITS every BURST_INTERVAL seconds — the
#: offered rate is a constant of the benchmark (50 commits/s).
BURST_COMMITS = 25
BURST_INTERVAL = 0.5

#: Repeats of the operations that are timed whole: set-ups, passes over
#: the cold queries and their instantiations, recoveries (each on a fresh
#: copy of the directory) and checkpoints after each recovery.
SETUPS = 3
COLD_RUNS = 5
RECOVERIES = 3
CHECKPOINTS = 2

#: Repeats of a closed loop's timed phase (equal shares of its commits):
#: ``commits_per_s`` is the median over them.
BLOCKS = 3

#: Under the tracer a closed loop alternates traced and untraced blocks
#: of this many commits — two whole blocks of the op mix, so both sides see
#: the same mix — and one run yields the tracing overhead.
TRACE_BLOCK = 40

_NO_SPAN = nullcontext()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "closed": flush and drain after every ``flush_every`` commits;
    #: "open": bursts on a fixed schedule under ``session.serve``.
    loop: str
    #: Timed commits at ``--seconds 10`` (a tenth more run as warm-up).
    commits: int
    flush_every: int = 1
    slow_consumers: int = 0
    #: Load D_sc/D_ex beside MozillaBugs and time the paper's queries.
    paper: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "journey_mixed",
            "closed loop, one commit in flight: a modification's whole "
            "journey with nothing to hide behind",
            loop="closed",
            commits=600,
        ),
        Workload(
            "burst_serve",
            "open loop of bursts under serve(): coalescing, debounce and "
            "mailbox backpressure, which journey_mixed bypasses",
            loop="open",
            commits=500,
            slow_consumers=2,
        ),
        Workload(
            "cold_paper",
            "the paper's three queries evaluated cold: the pull path that "
            "must stay flat when the delta path improves",
            loop="closed",
            commits=300,
            paper=True,
        ),
        Workload(
            "recover_replay",
            "the WAL read instead of appended, deltas replayed as one "
            "batch through warm state, behind a batched ingest",
            loop="closed",
            commits=900,
            flush_every=25,
        ),
    )
}


class Round(NamedTuple):
    """One unit of the live phase: the commits between two flushes.

    A closed loop's round is ``flush_every`` commits plus the flush and
    the drain; an open loop's round is one burst.
    """

    commits: int
    #: Closed loop: ``monotonic()`` before the first commit and after the
    #: drain.  Open loop: the instant the burst was due, and the next one.
    started: float
    ended: float
    first_tick: int
    traced: bool


class Lifecycle:
    """One run of one workload; :meth:`run` returns the result document."""

    def __init__(
        self,
        workload: Workload,
        *,
        seed: int,
        n_bugs: int,
        seconds: float,
        commits: Optional[int] = None,
        workdir: Path,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.n_bugs = n_bugs
        self.workdir = workdir
        self.tracer = tracer
        size = BURST_COMMITS if workload.loop == "open" else workload.flush_every
        self.round_size = size
        if commits is None:
            commits = round(workload.commits * seconds / 10.0)
        self.timed_rounds = max(1, round(commits / size))
        self.warmup_rounds = max(1, self.timed_rounds // 10)
        self.tally = oracle.Tally()
        self.rejected = 0
        self.late: List[float] = []
        self.detail: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _span(self, name: str, tick: Optional[int] = None):
        tracer = self.tracer
        if tracer is None or not tracer.active:
            return _NO_SPAN
        return tracer.span(name, tick)

    def _phase(self, name: str, *, collect: bool = True) -> None:
        if collect:
            gc.collect()
        if self.tracer is not None:
            self.tracer.phase = name

    def _wal_bytes(self) -> int:
        return sum(
            path.stat().st_size for path in (self.root / "wal").glob("wal-*.log")
        )

    # ------------------------------------------------------------------
    # phase 1: set-up
    # ------------------------------------------------------------------

    def set_up(self) -> None:
        workload = self.workload
        self.root = self.workdir / "db"
        dataset = generate_mozilla(self.n_bugs, seed=self.seed)
        database = Database.open(self.root, fsync="batch")
        database.register("B", dataset.bug_info)
        database.register("A", dataset.bug_assignment)
        database.register("S", dataset.bug_severity)
        if workload.paper:
            # The paper's ratios: D_sc ten times, D_ex half the bug count
            # (200k and 10k rows at the full scale of 20k bugs).
            database.register("Dsc", generate_dsc(10 * self.n_bugs, seed=self.seed))
            database.register("Dex", generate_dex(self.n_bugs // 2, seed=self.seed))
        session = database.live_session(**SESSION)
        specs = pool_v1(dataset, slow_consumers=workload.slow_consumers)
        self.recorders = {
            spec.name: Recorder(spec, self.tracer) for spec in specs
        }
        self.subscriptions = {}
        for spec in specs:
            mailbox = (
                {"backpressure": "coalesce", "queue_capacity": 2} if spec.delay else {}
            )
            self.subscriptions[spec.name] = session.subscribe_sql(
                spec.statement,
                on_refresh=self.recorders[spec.name],
                reference_time=spec.reference_time,
                name=spec.name,
                **mailbox,
            )
        database.checkpoint()
        self.ops = modification_stream(
            dataset,
            (self.warmup_rounds + self.timed_rounds) * self.round_size,
            self.seed,
        )
        self.database = database
        self.session = session
        self.tables = database.tables()

    def _tear_down(self) -> None:
        self.database.close()
        shutil.rmtree(self.root)

    # ------------------------------------------------------------------
    # phase 2: live
    # ------------------------------------------------------------------

    def _commit(self, op: Op) -> None:
        with self._span(f"commit.{op.verb}", self.database.last_commit.tick + 1):
            changed = apply_op(self.tables, op)
        if not changed:
            self.rejected += 1

    def _settle(self) -> None:
        self.session.flush()
        self.session.bus.drain()

    def _closed_round(self, ops: Sequence[Op]) -> Round:
        tracer = self.tracer
        first = self.database.last_commit.tick + 1
        started = time.monotonic()
        with self._span("journey", first) as root:
            if root is not None:
                tracer.adopt = root
            for op in ops:
                self._commit(op)
            self._settle()
            if root is not None:
                tracer.adopt = None
        return Round(
            len(ops),
            started,
            time.monotonic(),
            first,
            tracer is not None and tracer.active,
        )

    def _closed_loop(self, rounds: List[Sequence[Op]]) -> List[Round]:
        tracer = self.tracer
        done: List[Round] = []
        for index, ops in enumerate(rounds):
            if index == self.warmup_rounds:
                self._enter_live()
            if tracer is not None and index >= self.warmup_rounds:
                block = (index - self.warmup_rounds) * self.round_size // TRACE_BLOCK
                tracer.install() if block % 2 == 0 else tracer.uninstall()
            done.append(self._closed_round(ops))
        if tracer is not None:
            tracer.install()
        return done[self.warmup_rounds :]

    def _open_loop(self, rounds: List[Sequence[Op]]) -> List[Round]:
        """Bursts on a fixed wall-clock schedule, regardless of progress."""
        self.session.serve(**SERVE)
        done: List[Round] = []
        started = time.monotonic() + 0.05
        for index, ops in enumerate(rounds):
            if index == self.warmup_rounds:
                self._enter_live(collect=False)
            due = started + index * BURST_INTERVAL
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if index >= self.warmup_rounds:
                self.late.append(max(0.0, time.monotonic() - due))
            first = self.database.last_commit.tick + 1
            for op in ops:
                self._commit(op)
            done.append(Round(len(ops), due, due + BURST_INTERVAL, first, True))
        self.session.stop_serving()
        self._settle()
        self.settled = time.monotonic()
        return done[self.warmup_rounds :]

    def _enter_live(self, *, collect: bool = True) -> None:
        self._phase("live", collect=collect)
        self.stats_before = self.session.stats()
        self.wal_before = self._wal_bytes()

    def live(self) -> List[Round]:
        size = self.round_size
        rounds = [self.ops[i : i + size] for i in range(0, len(self.ops), size)]
        self._phase("warmup")
        oracle.fold_initial(self.recorders, self.subscriptions)
        loop = self._open_loop if self.workload.loop == "open" else self._closed_loop
        timed = loop(rounds)
        self.stats_after = self.session.stats()
        self.wal_after = self._wal_bytes()
        return timed

    @staticmethod
    def _blocks(rounds: List[Round]) -> List[List[Round]]:
        """The timed rounds as ``BLOCKS`` consecutive repeats."""
        size = -(-len(rounds) // BLOCKS)
        return [rounds[i : i + size] for i in range(0, len(rounds), size)]

    def _throughput(self, rounds: List[Round]) -> Dict[str, object]:
        """Timed commits ÷ wall clock.

        Closed loop: per repeat of the timed phase, the median.  Open loop:
        what was achieved of the offered rate — all timed commits over
        the time from the first burst being due until the last delivery
        had drained (one sample: a backlog only shows at the end).
        """
        commits = sum(item.commits for item in rounds)
        if self.workload.loop == "open":
            rates = [commits / (self.settled - rounds[0].started)]
        else:
            rates = [
                sum(item.commits for item in block)
                / sum(item.ended - item.started for item in block)
                for block in self._blocks(rounds)
            ]
        return {
            "value": statistics.median(rates),
            "unit": "1/s",
            "spread": quartile_spread(rates),
            "n": commits,
        }

    def _latencies(self, rounds: List[Round]) -> List[List[float]]:
        """Write → deliver seconds of the fast subscribers' timed
        deliveries, per repeat of the timed phase.

        ``monotonic()`` at the first instruction of the callback minus
        ``notification.commit.at`` — on the open loop minus the instant
        the commit's burst was *due* (the oldest commit's stamp survives
        coalescing, so its tick names the burst).
        """
        first_ticks = [item.first_tick for item in rounds]
        blocks = self._blocks(rounds)
        per_block = len(blocks[0])
        open_loop = self.workload.loop == "open"
        latencies: List[List[float]] = [[] for _ in blocks]
        for recorder in self.recorders.values():
            if recorder.spec.delay:
                continue
            for tick, arrived, committed in recorder.arrivals:
                if tick < first_ticks[0]:
                    continue  # warm-up
                index = bisect_right(first_ticks, tick) - 1
                if open_loop:
                    committed = rounds[index].started
                latencies[index // per_block].append(arrived - committed)
        return [block for block in latencies if block]

    # ------------------------------------------------------------------
    # phase 3: cold
    # ------------------------------------------------------------------

    def cold(self) -> Dict[str, Dict[str, Timer]]:
        self._phase("cold")
        times = oracle.oracle_times(self.ops[-1].at, REFERENCE_TIMES)
        query, instantiate, rows_out = oracle.check_pool(
            self.database,
            self.subscriptions,
            self.recorders,
            times,
            self.tally,
            runs=1 if self.workload.paper else COLD_RUNS,
        )
        timers = {"query": query, "instantiate": instantiate, "clifford": {}}
        if self.workload.paper:
            timers, rows_out = self._paper_queries()
        self.detail["cold_rows_out"] = rows_out
        return timers

    def _paper_queries(self):
        """Qσ_ovlp on D_sc, Q⋈_ovlp on D_ex, QC⋈_ovlp on MozillaBugs: as
        plans, as OSQL, instantiated, and re-evaluated Clifford's way.
        One sample is a pass over all three queries."""
        database = self.database
        start, end = last_tenth(synthetic.HISTORY_START, synthetic.HISTORY_END)
        plans = {
            "Qsel": SelectionWorkload("Dsc", "overlaps", (start, end)),
            "Qjoin": SelfJoinWorkload("Dex", "overlaps"),
            "QC": ComplexJoinWorkload("overlaps"),
        }
        statements = {
            "Qsel": f"SELECT * FROM Dsc WHERE VT OVERLAPS PERIOD '[{start}, {end})'",
            "Qjoin": "SELECT * FROM Dex AS R, Dex AS S "
            "WHERE R.G = S.G AND R.VT OVERLAPS S.VT",
            "QC": "SELECT * FROM A, S, B, B AS B2 WHERE A.ID = S.ID "
            "AND S.Severity = 'major' AND A.VT OVERLAPS S.VT AND A.ID = B.ID "
            "AND B.Product = B2.Product AND B.Component = B2.Component "
            "AND B.OS = B2.OS AND A.VT OVERLAPS B2.VT",
        }
        # Interval boundaries: the selection period's edges, the end of
        # the history, the newest modification time, and far beyond.
        times = (start, end - 1, end, self.ops[-1].at, end + 3650)
        plan, results = timed_passes(
            {label: partial(workload.run_ongoing, database) for label, workload in plans.items()},
            COLD_RUNS,
        )
        sql, through_sql = timed_passes(
            {label: partial(database.sql, text) for label, text in statements.items()},
            COLD_RUNS,
        )
        instantiate, rows = timed_passes(
            {
                (label, rt): partial(result.instantiate, rt)
                for label, result in results.items()
                for rt in times
            },
            COLD_RUNS,
        )
        with self._span("clifford.query"):
            clifford, baseline = timed_passes(
                {
                    (label, rt): partial(workload.run_clifford, database, rt)
                    for label, workload in plans.items()
                    for rt in times
                },
                1,
            )
        for (label, rt), expected in rows.items():
            self.tally.check(
                through_sql[label].instantiate(rt) == expected,
                f"{label}: OSQL and plan results differ at rt={rt}",
            )
            self.tally.check(
                set(baseline[label, rt]) == expected,
                f"{label}: Clifford's result differs at rt={rt}",
            )
        timers = {
            "query": {
                **{f"{label}.plan": timer for label, timer in plan.items()},
                **{f"{label}.sql": timer for label, timer in sql.items()},
            },
            "instantiate": instantiate,
            "clifford": clifford,
        }
        return timers, sum(len(result) for result in results.values())

    # ------------------------------------------------------------------
    # phase 4: recover
    # ------------------------------------------------------------------

    def recover(self) -> Dict[str, Timer]:
        self._phase("recover")
        expected_tables = oracle.table_bytes(self.database)
        expected_results = {
            name: subscription.result
            for name, subscription in self.subscriptions.items()
        }
        self.detail["rows"] = {name: len(table) for name, table in self.tables.items()}
        self.detail["subscriptions"] = len(self.subscriptions)
        self.detail["fingerprints"] = len(
            {item.fingerprint for item in self.subscriptions.values()}
        )
        self.final_stats = self.session.stats()
        self.detail["signature"] = oracle.notification_signature(self.recorders)
        self.final_metrics = self.session.metrics.snapshot()
        self.node_reports = list(
            {
                subscription.fingerprint: subscription.node_report()
                for subscription in self.subscriptions.values()
            }.values()
        )
        self.database.close()
        # A recovering process does not hold the state it lost.
        specs = [recorder.spec for recorder in self.recorders.values()]
        del self.database, self.session, self.tables, self.subscriptions, self.recorders
        timers = {"recover": Timer(), "checkpoint": Timer()}
        self.recovery_reports = []
        for index in range(RECOVERIES):
            gc.collect()
            copy = self.workdir / f"recovered-{index}"
            shutil.copytree(self.root, copy)
            callbacks = {spec.name: Recorder(spec) for spec in specs}
            with self._span("recover"), timers["recover"]:
                database = Database.open(
                    copy, fsync="batch", session=dict(SESSION), on_refresh=callbacks
                )
                database.live_session().bus.drain()
            oracle.check_recovered(
                expected_tables, expected_results, database, self.tally
            )
            # Each checkpoint rewrites every heap: the same work again.
            for _ in range(CHECKPOINTS):
                with self._span("checkpoint"), timers["checkpoint"]:
                    path = database.checkpoint()
            self.recovery_reports.append(
                {
                    "checkpoint_bytes": sum(
                        item.stat().st_size
                        for item in Path(path).rglob("*")
                        if item.is_file()
                    ),
                    "metrics": database.live_session().metrics.snapshot(),
                }
            )
            database.close()
            del database
            shutil.rmtree(copy)
        return timers

    # ------------------------------------------------------------------
    # the whole run
    # ------------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        try:
            setup = Timer()
            for attempt in range(SETUPS):
                if attempt:
                    self._tear_down()
                self._phase("setup")
                with setup:
                    self.set_up()
            rounds = self.live()
            latencies = self._latencies(rounds)
            throughput = self._throughput(rounds)
            cold = self.cold()
            recovered = self.recover()
        finally:
            if tracer is not None:
                tracer.uninstall()
        return self._result(setup, rounds, throughput, latencies, cold, recovered)

    def _result(self, setup, rounds, throughput, latencies, cold, recovered):
        tally = self.tally
        commits = sum(item.commits for item in rounds)
        tally.count(commits, self.rejected, "commits changed no row")
        tally.count(
            0, self.stats_after["repro_live_refresh_errors_total"], "refreshes raised"
        )
        tally.count(
            0,
            self.final_stats["repro_serve_dropped_notifications_total"],
            "notifications were dropped",
        )

        def timed(timer: Timer, unit: str) -> Dict[str, object]:
            return {
                "value": statistics.median(timer.seconds),
                "unit": unit,
                "spread": quartile_spread(timer.seconds),
                "n": len(timer.seconds),
            }

        def summed(timers: Dict[str, Timer], unit: str, scale: float) -> Dict[str, object]:
            """The sum over the items of each item's median time."""
            return {
                "value": sum(statistics.median(t.seconds) for t in timers.values()) * scale,
                "unit": unit,
                "spread": quartile_spread(
                    [sum(one) for one in zip(*(t.seconds for t in timers.values()))]
                ),
                "n": sum(len(timer.seconds) for timer in timers.values()),
            }

        def latency(q: float) -> Dict[str, object]:
            """Percentile over all timed deliveries; spread over the repeats."""
            return {
                "value": percentile(pooled, q) * 1e3,
                "unit": "ms",
                "spread": quartile_spread(
                    [percentile(sorted(block), q) for block in latencies]
                ),
                "n": len(pooled),
            }

        pooled = sorted(value for block in latencies for value in block)
        end_to_end = {
            "setup_s": timed(setup, "s"),
            "commits_per_s": throughput,
            "deliver_p50_ms": latency(50.0),
            "deliver_p99_ms": latency(99.0),
            "query_s": summed(cold["query"], "s", 1.0),
            "instantiate_ms": summed(cold["instantiate"], "ms", 1e3),
            "recover_s": timed(recovered["recover"], "s"),
            "checkpoint_s": timed(recovered["checkpoint"], "s"),
            "wal_bytes_per_commit": {
                "value": (self.wal_after - self.wal_before) / commits,
                "unit": "bytes",
                "spread": 0.0,
                "n": commits,
            },
            "rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
                "spread": 0.0,
                "n": 1,
            },
        }
        self.detail.update(
            {
                "commits": commits,
                "rounds": len(rounds),
                "deliver_ms": summary([value * 1e3 for value in pooled]),
                "generator_late_ms": summary([value * 1e3 for value in self.late]),
            }
        )
        result: Dict[str, object] = {
            "workload": self.workload.name,
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.messages[:20],
            "end_to_end": end_to_end,
            "detail": self.detail,
        }
        if self.tracer is not None:
            result["per_layer"] = layers.per_layer(self, rounds, cold, recovered)
        return result
