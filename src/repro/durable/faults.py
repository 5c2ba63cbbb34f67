"""Named crashpoints and a subprocess crash harness for durability tests.

The durability code (WAL append, fsync, checkpoint writing, recovery
replay, notification delivery) calls :func:`fire` at well-known points.
In production nothing is armed and ``fire`` is a dictionary truthiness
check — effectively free.  Tests arm a crashpoint to either *raise*
:class:`InjectedCrash` (an in-process failure the caller may observe and
recover from) or *exit* the whole process with ``os._exit`` (a hard
crash indistinguishable from ``kill -9`` as far as the files on disk are
concerned).

Crashpoints can also be armed from the environment variable
``REPRO_CRASHPOINT`` (``name``, ``name:action`` or ``name:action:after``)
which is how the subprocess harness arms a child writer without the
child carrying any test-specific code.

The harness half of this module (:func:`run_until_marker_then_kill`)
spawns a writer process, watches its stdout for marker lines, and sends
``SIGKILL`` once enough markers have been seen — the canonical
"crash a writer mid-burst" loop used by the recovery gate.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

from repro.errors import DurabilityError

__all__ = [
    "CRASHPOINTS",
    "InjectedCrash",
    "arm",
    "disarm",
    "reset",
    "fire",
    "armed",
    "fire_counts",
    "CrashResult",
    "run_until_marker_then_kill",
]

#: Every crashpoint the durability code can hit.  ``arm`` rejects names
#: outside this tuple so a typo in a test fails loudly instead of arming
#: a point that never fires.
CRASHPOINTS = (
    "wal.pre_append",
    "wal.post_append",
    "wal.pre_fsync",
    "checkpoint.mid_heap",
    "checkpoint.pre_publish",
    "recovery.mid_replay",
    "delivery.pre_ack",
)

#: Exit status used by ``action="exit"`` — mirrors the shell's status for
#: a process killed by SIGKILL so harness assertions can treat armed
#: hard-exits and real ``kill -9`` the same way.
KILLED_STATUS = 137


class InjectedCrash(DurabilityError):
    """Raised by an armed crashpoint with ``action="raise"``."""


class _Arming:
    __slots__ = ("action", "after", "exit_code")

    def __init__(self, action: str, after: int, exit_code: int) -> None:
        self.action = action
        self.after = after
        self.exit_code = exit_code


_lock = threading.Lock()
_armed: Dict[str, _Arming] = {}
_fired: Dict[str, int] = {}


def arm(
    name: str,
    *,
    action: str = "raise",
    after: int = 0,
    exit_code: int = KILLED_STATUS,
) -> None:
    """Arm *name* to fail on its ``after``-th next firing.

    ``action="raise"`` raises :class:`InjectedCrash`; ``action="exit"``
    terminates the process with ``os._exit(exit_code)`` — no atexit
    handlers, no flushes, a faithful stand-in for ``kill -9``.  A
    crashpoint fires once and disarms itself.
    """
    if name not in CRASHPOINTS:
        raise ValueError(f"unknown crashpoint {name!r}; known: {CRASHPOINTS}")
    if action not in ("raise", "exit"):
        raise ValueError(f"crashpoint action must be 'raise' or 'exit', not {action!r}")
    if after < 0:
        raise ValueError("after must be >= 0")
    with _lock:
        _armed[name] = _Arming(action, after, exit_code)


def disarm(name: str) -> None:
    """Disarm *name* (a no-op when it is not armed)."""
    with _lock:
        _armed.pop(name, None)


def reset() -> None:
    """Disarm every crashpoint and clear the fired counters."""
    with _lock:
        _armed.clear()
        _fired.clear()


def fire_counts() -> Dict[str, int]:
    """How many times each crashpoint has actually fired."""
    with _lock:
        return dict(_fired)


def fire(name: str) -> None:
    """Hit crashpoint *name*; fails only when a test armed it."""
    if not _armed:  # fast path: nothing armed anywhere
        return
    _fire_slow(name)


def _fire_slow(name: str) -> None:
    with _lock:
        arming = _armed.get(name)
        if arming is None:
            return
        if arming.after > 0:
            arming.after -= 1
            return
        del _armed[name]
        _fired[name] = _fired.get(name, 0) + 1
        action = arming.action
        exit_code = arming.exit_code
    if action == "exit":
        os._exit(exit_code)
    raise InjectedCrash(f"crashpoint {name} fired")


@contextmanager
def armed(
    name: str,
    *,
    action: str = "raise",
    after: int = 0,
    exit_code: int = KILLED_STATUS,
) -> Iterator[None]:
    """Arm *name* for the duration of a ``with`` block, disarming on exit."""
    arm(name, action=action, after=after, exit_code=exit_code)
    try:
        yield
    finally:
        disarm(name)


def _arm_from_env() -> None:
    spec = os.environ.get("REPRO_CRASHPOINT")
    if not spec:
        return
    parts = spec.split(":")
    name = parts[0]
    action = parts[1] if len(parts) > 1 and parts[1] else "raise"
    after = int(parts[2]) if len(parts) > 2 and parts[2] else 0
    arm(name, action=action, after=after)


_arm_from_env()


# ----------------------------------------------------------------------
# Subprocess crash harness
# ----------------------------------------------------------------------


class CrashResult(NamedTuple):
    """Outcome of :func:`run_until_marker_then_kill`."""

    returncode: int
    lines: List[str]  # every stdout line read before the process ended
    killed: bool  # True when the harness sent SIGKILL
    markers_seen: int


def run_until_marker_then_kill(
    argv: Sequence[str],
    *,
    marker: str,
    count: int = 1,
    timeout: float = 60.0,
    env: Optional[Dict[str, str]] = None,
    cwd: Optional[str] = None,
) -> CrashResult:
    """Spawn *argv*, SIGKILL it after *count* stdout lines contain *marker*.

    The child must write marker lines to stdout and flush them; each
    marker is the child's acknowledgement that some unit of work (e.g. a
    committed modification batch) reached the log.  Killing between two
    acknowledgements lands the crash mid-burst by construction.  Returns
    once the process has been reaped; ``returncode`` is ``-SIGKILL``
    when the kill landed, or the child's own status when it exited first
    (e.g. via an armed ``action="exit"`` crashpoint).
    """
    proc = subprocess.Popen(
        list(argv),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        bufsize=1,
        env=env,
        cwd=cwd,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    lines: List[str] = []
    markers_seen = 0
    killed = False
    try:
        assert proc.stdout is not None
        for raw in proc.stdout:
            lines.append(raw.rstrip("\n"))
            if marker in raw:
                markers_seen += 1
                if markers_seen >= count and not killed:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed = True
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return CrashResult(proc.returncode, lines, killed, markers_seen)
