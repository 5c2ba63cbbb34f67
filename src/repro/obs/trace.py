"""Refresh-pipeline tracing: a zero-dependency span recorder.

One modification's journey through the live engine —
write → delta-coalesce → per-operator ``apply_delta`` → store-commit →
enqueue → deliver — crosses four threads and five modules.  The
:class:`TraceRecorder` stitches it back together: hot paths open spans
(``tracer.span("flush", fingerprint=...)``) or record pre-timed
completes (:meth:`TraceRecorder.add`), the recorder ring-buffers them,
and :meth:`TraceRecorder.to_chrome` / :meth:`TraceRecorder.dump_json`
emit Chrome trace-event JSON — open the dump in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` and every span lands
on its thread's track.

Tracing is **opt-in** (``LiveSession(trace=True)``) and the disabled
path is one attribute check: a recorder that is not enabled returns a
shared no-op span and records nothing — call sites write
``with tracer.span(...)`` once, traced or not (:data:`NULL_TRACER` is the
recorder to hold when tracing is off).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["TraceRecorder", "NULL_TRACER"]


class _NoopSpan:
    """The shared do-nothing context manager of a disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span; records a complete event when the block exits."""

    __slots__ = ("_recorder", "_name", "_args", "_started")

    def __init__(self, recorder: "TraceRecorder", name: str, args: dict):
        self._recorder = recorder
        self._name = name
        self._args = args
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.add(
            self._name,
            self._started,
            time.perf_counter() - self._started,
            **self._args,
        )


class TraceRecorder:
    """A bounded, thread-safe recorder of refresh-pipeline spans.

    Events live in a ring buffer (``capacity`` newest spans), each
    stamped with the recording thread's id so the Chrome trace viewer
    reconstructs the cross-thread pipeline: writer threads show the
    ``write`` intake spans, the flushing thread (the serve loop's, or
    the caller's) the ``refresh``/``apply`` spans, delivery workers the
    ``deliver`` spans.
    """

    def __init__(self, capacity: int = 4096, *, enabled: bool = True):
        if capacity < 1:
            raise ValueError("trace capacity must be at least 1")
        #: The one flag hot paths check; flipping it pauses/resumes
        #: recording without touching the buffer.
        self.enabled = enabled
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        #: All timestamps are relative to this origin (perf_counter is
        #: monotonic but epoch-less); one origin per recorder keeps every
        #: span of a session on one comparable timeline.
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **args: Any):
        """A context manager timing one pipeline stage.

        ``with tracer.span("flush", fingerprint=fp): ...`` — the span is
        recorded when the block exits (including on exceptions, so a
        failing refresh still shows up in the trace).
        """
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, args)

    def add(
        self, name: str, started: float, duration: float, **args: Any
    ) -> None:
        """Record one already-timed complete event.

        *started* is a ``time.perf_counter()`` reading, *duration* is in
        seconds.  Hot paths that already hold both (the delta evaluator
        times every ``apply_delta`` for the counters regardless) use this
        instead of a span to avoid a second pair of clock reads.
        """
        if not self.enabled:
            return
        event = (
            name,
            started - self._origin,
            duration,
            threading.get_ident(),
            threading.current_thread().name,
            args,
        )
        with self._lock:
            self._events.append(event)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """The recorded spans as plain dicts (oldest first, seconds)."""
        with self._lock:
            events = list(self._events)
        return [
            {
                "name": name,
                "start": start,
                "duration": duration,
                "thread_id": tid,
                "thread_name": thread_name,
                "args": dict(args),
            }
            for name, start, duration, tid, thread_name, args in events
        ]

    def to_chrome(self) -> Dict[str, Any]:
        """The trace in Chrome trace-event format (Perfetto-compatible).

        Complete (``"ph": "X"``) events with microsecond ``ts``/``dur``,
        one ``tid`` per recording thread, plus metadata events naming the
        threads — the JSON loads directly into Perfetto or
        ``chrome://tracing``.
        """
        pid = os.getpid()
        with self._lock:
            events = list(self._events)
        trace_events: List[Dict[str, Any]] = []
        named_threads: Dict[int, str] = {}
        for name, start, duration, tid, thread_name, args in events:
            if tid not in named_threads:
                named_threads[tid] = thread_name
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": thread_name},
                    }
                )
            trace_events.append(
                {
                    "name": name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": {key: _jsonable(value) for key, value in args.items()},
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def dump_json(self, path: Optional[str] = None) -> str:
        """Serialize :meth:`to_chrome`; optionally write it to *path*."""
        text = json.dumps(self.to_chrome())
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"TraceRecorder({state}, events={len(self)}/{self.capacity})"
        )


def _jsonable(value: Any) -> Any:
    """Span args must survive ``json.dumps`` — stringify anything exotic."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    return str(value)


#: A permanently disabled recorder — a convenient default for call sites
#: that want to write ``tracer.span(...)`` unconditionally.
NULL_TRACER = TraceRecorder(enabled=False)
