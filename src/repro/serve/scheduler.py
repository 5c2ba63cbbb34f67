"""Sharded flush scheduling: independent shared results refresh in parallel.

A flush has embarrassing parallelism hiding in it: two shared results
with different fingerprints share no operator state, so their refreshes
cannot conflict — only refreshes of the *same* result must stay ordered.
The :class:`FlushScheduler` encodes exactly that invariant:

* each fingerprint hashes to one shard (:func:`~repro.serve.sharding.shard_index`);
* each shard is one FIFO job queue drained by one dedicated worker
  thread — per-result refreshes are **serially consistent** because the
  owning worker never runs two of them concurrently or out of order;
* a flush round submits every dirty fingerprint to its owning shard and
  waits on a :class:`FlushRound` barrier until all of them refreshed.

The scheduler knows nothing about plans or deltas: a job is a
fingerprint, and it runs an opaque ``refresh(fingerprint) -> bool``
callable supplied by the :class:`~repro.live.manager.SubscriptionManager`
— what the refresh answers for is the plan's own pending record, claimed
by the refresh itself — which keeps all refresh semantics (error
isolation, notification suppression, stats) in one place whether the
flush is serial or sharded.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Collection, Deque, Optional, Tuple

from repro.serve.sharding import shard_index

__all__ = ["FlushRound", "FlushScheduler"]


class FlushRound:
    """Barrier handle for one submitted flush round."""

    def __init__(self, expected: int):
        self._condition = threading.Condition()
        self._expected = expected
        self._completed = 0
        self.refreshed = 0

    def _job_done(self, refreshed: bool) -> None:
        with self._condition:
            self._completed += 1
            if refreshed:
                self.refreshed += 1
            if self._completed >= self._expected:
                self._condition.notify_all()

    def done(self) -> bool:
        with self._condition:
            return self._completed >= self._expected

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until every job of the round ran; returns refresh count."""
        with self._condition:
            self._condition.wait_for(
                lambda: self._completed >= self._expected, timeout=timeout
            )
            return self.refreshed


class _ShardWorker:
    """One shard: a FIFO job queue drained by one thread."""

    def __init__(
        self,
        index: int,
        refresh: Callable[[str], bool],
        name: str,
        on_error: Optional[Callable[[int, str, BaseException], None]] = None,
    ):
        self.index = index
        self.flushes = 0  # jobs run on this shard (stats)
        self.failures = 0  # refresh callables that raised (stats)
        self._refresh = refresh
        self._on_error = on_error
        self._condition = threading.Condition()
        self._jobs: Deque[Tuple[str, FlushRound]] = deque()
        self._open = True
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.thread.start()

    def submit(self, fingerprint: str, round_: FlushRound) -> None:
        with self._condition:
            self._jobs.append((fingerprint, round_))
            self._condition.notify()

    def _run(self) -> None:
        while True:
            with self._condition:
                while self._open and not self._jobs:
                    self._condition.wait()
                if not self._open and not self._jobs:
                    return
                fingerprint, round_ = self._jobs.popleft()
            refreshed = False
            try:
                refreshed = self._refresh(fingerprint)
            except Exception as exc:  # noqa: BLE001 — a refresh error must
                # never kill the shard.  The manager's refresh callable
                # isolates expected errors itself, so reaching here means
                # something escaped it — count it and announce it so a
                # dying shard is observable, then keep draining.
                with self._condition:
                    self.failures += 1
                hook = self._on_error
                if hook is not None:
                    try:
                        hook(self.index, fingerprint, exc)
                    except Exception:  # noqa: BLE001 — nor may the hook
                        pass
            finally:
                with self._condition:
                    self.flushes += 1
                round_._job_done(refreshed)

    def backlog(self) -> int:
        with self._condition:
            return len(self._jobs)

    def stop(self) -> None:
        with self._condition:
            self._open = False
            self._condition.notify_all()
        self.thread.join(timeout=10)


class FlushScheduler:
    """Routes dirty fingerprints to per-shard FIFO refresh workers."""

    def __init__(
        self,
        refresh: Callable[[str], bool],
        *,
        shards: int = 4,
        name: str = "flush-shard",
        on_error: Optional[Callable[[int, str, BaseException], None]] = None,
    ):
        if shards < 1:
            raise ValueError("a flush scheduler needs at least one shard")
        self._workers = [
            _ShardWorker(index, refresh, f"{name}-{index}", on_error=on_error)
            for index in range(shards)
        ]
        self._closed = False

    @property
    def shard_count(self) -> int:
        return len(self._workers)

    def shard_of(self, fingerprint: str) -> int:
        return shard_index(fingerprint, len(self._workers))

    def submit(self, dirty: Collection[str]) -> FlushRound:
        """Enqueue one refresh job per dirty fingerprint; non-blocking.

        Jobs land on their owning shard's FIFO queue, so two rounds'
        refreshes of the same fingerprint run in submission order while
        different fingerprints proceed in parallel.
        """
        if self._closed:
            raise RuntimeError("flush scheduler is closed")
        round_ = FlushRound(len(dirty))
        for fingerprint in dirty:
            self._workers[self.shard_of(fingerprint)].submit(fingerprint, round_)
        return round_

    def flush(
        self, dirty: Collection[str], *, timeout: Optional[float] = None
    ) -> int:
        """Submit and wait; returns the number of performed refreshes."""
        return self.submit(dirty).wait(timeout=timeout)

    def flush_counts(self) -> Tuple[int, ...]:
        """Jobs run per shard since startup (the stats counter)."""
        return tuple(worker.flushes for worker in self._workers)

    def failure_counts(self) -> Tuple[int, ...]:
        """Escaped refresh exceptions per shard since startup."""
        return tuple(worker.failures for worker in self._workers)

    def backlog(self) -> int:
        return sum(worker.backlog() for worker in self._workers)

    def close(self) -> None:
        """Stop all shard workers after their queues drain."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()

    @property
    def closed(self) -> bool:
        return self._closed
