"""``pool_v1`` — the fixed subscription pool — and the modification stream.

The pool mixes what a deployment mixes: cheap filters and temporal
joins, aggregates, top-k and DISTINCT; fingerprints shared by three
subscribers at different reference times and fingerprints of one
subscriber; subscribers that read rows and subscribers that only read
deltas.  Its name is versioned because later issues cite numbers
measured against it: change the pool and the name changes with it.
"""

from __future__ import annotations

import random
import string
import time
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.datasets.mozilla import HISTORY_END, HISTORY_START, MozillaBugs
from repro.datasets.workloads import last_tenth
from repro.engine.modifications import (
    current_delete,
    current_insert,
    current_update,
)

#: Every shared fingerprint is read at the end of the history, a month
#: and a year later — results must hold at all of them without refresh.
REFERENCE_TIMES = (HISTORY_END, HISTORY_END + 30, HISTORY_END + 365)

#: Op mix by commit (verb, table, share).
OP_MIX = (
    ("insert", "B", 0.40),
    ("insert", "A", 0.15),
    ("update", "S", 0.25),
    ("update", "A", 0.10),
    ("delete", "B", 0.10),
)


#: Characters of an inserted bug's description — the mean of the
#: generator's — fixed, so that the bytes a commit logs do not depend on
#: a draw.
TEXT_LENGTH = 850


class SubscriberSpec(NamedTuple):
    name: str
    statement: str
    reference_time: Optional[int]
    #: Seconds the callback sleeps; non-zero marks a slow consumer, which
    #: subscribes with the ``coalesce`` policy instead of ``block``.
    delay: float = 0.0


def pool_v1(dataset: MozillaBugs, *, slow_consumers: int = 0) -> List[SubscriberSpec]:
    """33 subscriptions over 15 fingerprints (plus optional slow consumers)."""
    products = sorted(set(dataset.bug_info.column("Product")))
    systems = sorted(set(dataset.bug_info.column("OS")))
    tenth_start, tenth_end = last_tenth(HISTORY_START, HISTORY_END)
    # F3 holds the assignments that ended in the first tenth of the
    # history: no modification ever changes it, so every refresh of it is
    # suppressed — the pool's member for the no-change path.
    early = HISTORY_START + (HISTORY_END - HISTORY_START) // 10
    mean_group = len(dataset.bug_severity) // 7
    shared = {
        "F1": f"SELECT * FROM B WHERE Product = '{products[0]}'",
        "F2": "SELECT * FROM B WHERE VT OVERLAPS "
        f"PERIOD '[{tenth_start}, {tenth_end})'",
        "F3": "SELECT * FROM A WHERE VT BEFORE "
        f"PERIOD '[{early}, {early + 30})'",
        "J1": "SELECT * FROM A, S WHERE A.ID = S.ID "
        "AND A.VT OVERLAPS S.VT AND S.Severity = 'major'",
        "J2": "SELECT A.ID, A.Email, A.VT, S.Severity, B.Product, B.Component "
        "FROM A, S, B WHERE A.ID = S.ID AND A.VT OVERLAPS S.VT "
        "AND S.Severity = 'major' AND A.ID = B.ID",
        "G1": "SELECT Product, COUNT(*) AS n, AVG(ID) AS mean_id "
        "FROM B GROUP BY Product",
        "G2": "SELECT Severity, COUNT(*) AS n FROM S GROUP BY Severity "
        f"HAVING n > {mean_group}",
        "T1": "SELECT ID, Product, Component FROM B ORDER BY ID DESC LIMIT 10",
        "D1": f"SELECT DISTINCT Component FROM B WHERE OS = '{systems[0]}'",
    }
    specs = [
        SubscriberSpec(f"{key}@{rt}", statement, rt)
        for key, statement in shared.items()
        for rt in REFERENCE_TIMES
    ]
    # Six unshared variants of F1; the last two never ask for rows.
    for index in range(1, 7):
        product = products[index % len(products)]
        specs.append(
            SubscriberSpec(
                f"U{index}",
                f"SELECT * FROM B WHERE Product = '{product}'",
                HISTORY_END if index <= 4 else None,
            )
        )
    for index, key in enumerate(("G1", "F2")[:slow_consumers]):
        specs.append(
            SubscriberSpec(f"slow{index}", shared[key], HISTORY_END, delay=0.020)
        )
    return specs


class Recorder:
    """One subscriber's callback.

    Stamps the arrival before anything else, keeps the last notification
    for the oracle, and folds every result-level delta into a multiset
    that must end up equal to the final result: a lost, duplicated or
    wrong notification shows there even when the final rows agree.
    """

    __slots__ = ("spec", "arrivals", "last", "folded", "tracer")

    def __init__(self, spec: SubscriberSpec, tracer=None):
        self.spec = spec
        #: (oldest commit tick, ``monotonic()`` on arrival, ``commit.at``).
        self.arrivals: List[tuple] = []
        self.last = None
        self.folded: Optional[Counter] = None
        self.tracer = tracer

    def __call__(self, notification) -> None:
        arrived = time.monotonic()
        commit = notification.commit
        self.arrivals.append((commit.tick, arrived, commit.at))
        cpu_started = time.thread_time()
        self.last = notification
        delta = notification.delta
        if delta is None or self.folded is None:
            self.folded = Counter(notification.result.tuples)
        else:
            self.folded.update(delta.inserted)
            self.folded.subtract(delta.deleted)
        if self.spec.delay:
            time.sleep(self.spec.delay)
        if self.tracer is not None and self.tracer.active:
            self.tracer.callback(notification, arrived, cpu_started)


class Op(NamedTuple):
    verb: str
    table: str
    key: Optional[int]
    values: tuple
    at: int


def modification_stream(
    dataset: MozillaBugs, count: int, seed: int
) -> List[Op]:
    """*count* single-table commits, every one of which changes a row.

    Updates and deletes only target bugs whose valid time is still
    ongoing (a current update of an already terminated tuple is a
    no-op), so no operation is ever rejected and the number of commits
    is exact.  Every commit gets a modification time of its own: a row
    inserted and terminated at the *same* time has the empty envelope
    ``[at, at)``, on which ``IntervalIndex`` (engine/indexes.py
    ``_build``) recurses without end — a defect of the engine this
    benchmark found and must not trip over.
    """
    rng = random.Random(seed)
    products = sorted(set(dataset.bug_info.column("Product")))
    components = sorted(set(dataset.bug_info.column("Component")))
    systems = sorted(set(dataset.bug_info.column("OS")))
    severities = sorted(set(dataset.bug_severity.column("Severity")))
    alphabet = string.ascii_lowercase + "     "
    # Bugs with an ongoing B/A/S row (seeded) and with an ongoing B row.
    seeded = [
        item.values[0]
        for item in dataset.bug_info
        if not item.values[5].is_fixed
    ]
    seeded.sort()
    inserted: List[int] = []
    next_id = len(dataset.bug_info)
    # Exact shares, not draws: every 20 commits hold 8/3/5/2/2 of the
    # five kinds in shuffled order, so no stretch of the stream is
    # heavier than another and every seed has the same mix.
    block = [
        (verb, table) for verb, table, share in OP_MIX for _ in range(round(share * 20))
    ]

    def take(pool: List[int]) -> int:
        index = rng.randrange(len(pool))
        pool[index], pool[-1] = pool[-1], pool[index]
        return pool.pop()

    ops: List[Op] = []
    for index in range(count):
        at = HISTORY_END + 1 + index
        if index % len(block) == 0:
            rng.shuffle(block)
        verb, table = block[index % len(block)]
        if len(seeded) < 2 and (verb, table) != ("insert", "B"):
            verb, table = "insert", "B"  # tiny data sets run out of open bugs
        if (verb, table) == ("insert", "B"):
            values = (
                next_id,
                rng.choice(products),
                rng.choice(components),
                rng.choice(systems),
                "".join(rng.choices(alphabet, k=TEXT_LENGTH)),
            )
            inserted.append(next_id)
            ops.append(Op("insert", "B", None, values, at))
            next_id += 1
        elif (verb, table) == ("insert", "A"):
            key = rng.choice(seeded)
            email = f"dev{rng.randrange(2000):04d}@mozilla.org"
            ops.append(Op("insert", "A", None, (key, email), at))
        elif (verb, table) == ("update", "S"):
            key = rng.choice(seeded)
            ops.append(Op("update", "S", key, (key, rng.choice(severities)), at))
        elif (verb, table) == ("update", "A"):
            key = rng.choice(seeded)
            email = f"dev{rng.randrange(2000):04d}@mozilla.org"
            ops.append(Op("update", "A", key, (key, email), at))
        else:
            pool = inserted if inserted and rng.random() < 0.5 else seeded
            ops.append(Op("delete", "B", take(pool), (), at))
    return ops


def apply_op(tables: Dict[str, object], op: Op) -> int:
    """Run one modification; returns the number of rows it changed."""
    table = tables[op.table]
    if op.verb == "insert":
        current_insert(table, op.values, at=op.at)
        return 1
    key = op.key
    matches: Callable = lambda item: item.values[0] == key  # noqa: E731
    if op.verb == "update":
        return current_update(table, matches, op.values, at=op.at)
    return current_delete(table, matches, at=op.at)
