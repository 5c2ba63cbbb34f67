"""Spans recorded from outside: wraps public callables of ``repro`` at run time.

This is the tracing the first benchmark change is allowed: nothing under
``src/`` knows it is being timed.  :meth:`Tracer.install` replaces each
callable in :data:`TARGETS` by a wrapper that records
``[name, start, end, parent, tick, thread, phase, cpu_start, cpu_end]``
in memory (``start``/``end`` on the monotonic wall clock, ``cpu_*`` on
the calling thread's CPU clock);
:meth:`Tracer.uninstall` puts the originals back.  The trace id is the
``CommitStamp.tick`` of the modification a span works for.

A span's **self time** is its duration minus the durations of its
children *on the same thread* — by default on the thread CPU clock, so
that neither a descheduled VM nor a wait for the interpreter lock is
charged to the layer that happened to be running.  Spans on another thread (a delivery
callback running while the writer waits in ``drain``) are linked to the
root that caused them for attribution, but they overlap their parent in
time and are therefore not subtracted from it.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, TICK, THREAD, PHASE, CPU_START, CPU_END = range(9)

#: span name → (module, class or None, attribute).  Public names only.
TARGETS = (
    ("sqlish.compile", "repro.sqlish", None, "compile_statement"),
    ("planner.plan", "repro.engine.planner", None, "plan_query"),
    ("executor.query", "repro.engine.database", "Database", "query"),
    ("executor.evaluate", "repro.engine.maintenance", "IncrementalMaintainer", "evaluate"),
    ("wal.append", "repro.durable.wal", "WriteAheadLog", "append"),
    ("wal.sync", "repro.durable.wal", "WriteAheadLog", "sync"),
    ("live.flush", "repro.live.manager", "SubscriptionManager", "flush"),
    ("delta.refresh", "repro.engine.maintenance", "IncrementalMaintainer", "refresh"),
    ("delta.apply", "repro.engine.delta", "DeltaEvaluator", "apply"),
    ("store.commit", "repro.engine.delta", None, "commit_changes"),
    ("store.snapshot", "repro.relational.relation", "ResultStore", "snapshot"),
    ("core.instantiate", "repro.relational.relation", "OngoingRelation", "instantiate"),
    ("mailbox.put", "repro.serve.queues", "Mailbox", "put"),
    ("checkpoint.write", "repro.durable.snapshot", None, "write_checkpoint"),
    ("recovery.load", "repro.durable.snapshot", None, "load_latest_checkpoint"),
    ("recovery.resume", "repro.live.manager", "SubscriptionManager", "resume"),
    ("recovery.open", "repro.durable.recovery", None, "open_database"),
    ("recovery.apply_delta", "repro.engine.database", "Table", "apply_delta"),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Trace id given to a span that has no parent to inherit from.
        self.tick = 0
        #: Lifecycle phase stamped on every span ("setup", "live", ...).
        self.phase = "setup"
        #: The open root that parentless spans on *other* threads attach
        #: to — set by the closed loop, whose writer waits for them.
        self.adopt: Optional[list] = None
        #: Mailbox waits (put → callback start) and backlog samples.
        self.mailbox_waits: List[float] = []
        self.backlog_max = 0
        #: commit → flush-start waits, one per flush round that notified.
        self.flush_waits: List[float] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._put_at: Dict[int, float] = {}
        self._flush_oldest: Dict[int, float] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, tick: Optional[int] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        if tick is None:
            tick = parent[TICK] if parent is not None else self.tick
        record = [
            name, time.monotonic(), 0.0, parent, tick,
            threading.get_ident(), self.phase, time.thread_time(), 0.0,
        ]  # fmt: skip
        stack.append(record)
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[CPU_END] = time.thread_time()
        record[END] = time.monotonic()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, tick: Optional[int] = None) -> Iterator[list]:
        """A span around the benchmark's own call into a layer."""
        record = self._open(name, tick)
        try:
            yield record
        finally:
            self._close(record)

    def callback(self, notification, started: float, cpu_started: float) -> None:
        """Record one subscriber callback that just ended (the recorders
        call this as their last statement)."""
        put_at = self._put_at.pop(id(notification), None)
        if put_at is not None:
            self.mailbox_waits.append(max(0.0, started - put_at))
        self.spans.append(
            [
                "delivery.callback", started, time.monotonic(), self.adopt,
                notification.commit.tick, threading.get_ident(), self.phase,
                cpu_started, time.thread_time(),
            ]  # fmt: skip
        )

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(record)

        def traced_flush(session, *args, **kwargs):
            commit = session.database.last_commit
            record = tracer._open(name, commit.tick if commit else None)
            try:
                return original(session, *args, **kwargs)
            finally:
                tracer._close(record)
                oldest = tracer._flush_oldest.pop(id(record), None)
                if oldest is not None:
                    tracer.flush_waits.append(max(0.0, record[START] - oldest))
                backlog = getattr(session.bus, "backlog", None)
                if backlog is not None:
                    tracer.backlog_max = max(tracer.backlog_max, backlog())

        def traced_put(mailbox, payload, *args, **kwargs):
            record = tracer._open(name)
            try:
                return original(mailbox, payload, *args, **kwargs)
            finally:
                tracer._close(record)
                commit = getattr(payload, "commit", None)
                if commit is not None:
                    tracer._put_at[id(payload)] = record[END]
                    flush = record[PARENT]
                    while flush is not None and flush[NAME] != "live.flush":
                        flush = flush[PARENT]
                    if flush is not None:
                        known = tracer._flush_oldest.get(id(flush), commit.at)
                        tracer._flush_oldest[id(flush)] = min(known, commit.at)

        special = {"live.flush": traced_flush, "mailbox.put": traced_put}
        wrapper = special.get(name, traced)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # -- patching -------------------------------------------------------

    @property
    def active(self) -> bool:
        """``True`` while the wrappers are installed."""
        return bool(self._patches)

    def install(self) -> None:
        """Wrap every target; names imported elsewhere are patched too."""
        if self._patches:
            return
        for name, module_name, class_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attribute]
            wrapper = self._wrap(name, original)
            self._replace(owner, attribute, original, wrapper)
            if class_name is None:
                # ``from module import function`` copies of the same object.
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro.")
                        and other.__dict__.get(attribute) is original
                    ):
                        self._replace(other, attribute, original, wrapper)

    def _replace(self, owner, attribute: str, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def self_times(
        self, phase: Optional[str] = None, *, clock: str = "cpu"
    ) -> Dict[str, List[float]]:
        """Self time per span, grouped by name (optionally one phase).

        ``core.instantiate`` spans that run inside a flush are reported
        as ``notify.instantiate`` — same function, the live use of it.
        """
        first, last = (CPU_START, CPU_END) if clock == "cpu" else (START, END)
        children: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None and parent[THREAD] == record[THREAD]:
                children[id(parent)] += record[last] - record[first]
        grouped: Dict[str, List[float]] = defaultdict(list)
        for record in self.spans:
            if phase is not None and record[PHASE] != phase:
                continue
            name = record[NAME]
            if name == "core.instantiate" and _inside(record, "live.flush"):
                name = "notify.instantiate"
            own = record[last] - record[first] - children.get(id(record), 0.0)
            grouped[name].append(max(0.0, own))
        return grouped

    def durations(self, name: str, phase: Optional[str] = None) -> List[float]:
        return [
            record[END] - record[START]
            for record in self.spans
            if record[NAME] == name and (phase is None or record[PHASE] == phase)
        ]

    def export(self) -> List[dict]:
        """The spans as plain dicts (``parent`` is an index or ``None``)."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        return [
            {
                "name": record[NAME],
                "start": record[START],
                "end": record[END],
                "parent": index.get(id(record[PARENT])),
                "tick": record[TICK],
                "thread": record[THREAD],
                "phase": record[PHASE],
                "cpu": record[CPU_END] - record[CPU_START],
            }
            for record in self.spans
        ]


def _inside(record: list, name: str) -> bool:
    parent = record[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False
