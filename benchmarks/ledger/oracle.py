"""The correctness oracle every run must pass.

The paper's contract, in the form of the extended version
(arXiv:2001.05722): a maintained ongoing result instantiated at *any*
reference time equals the query evaluated cold on the current tables and
instantiated at that time.  Every check is counted in a :class:`Tally`;
the ledger reports its totals as ``attempted`` and ``failed``.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.engine.storage import pack_tagged_tuple
from repro.sqlish import compile_statement

from stats import Timer, timed_passes

Failures = List[str]


class Tally:
    """Attempted and failed operations and checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: Failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.count(1, 0 if ok else 1, what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.messages.append(f"{failed} x {what}" if failed > 1 else what)


def oracle_times(last_at: int, reference_times: Sequence[int]) -> Tuple[int, ...]:
    """Three reference times: before every modification, on the boundary
    of the newest ongoing interval (``[last_at, now)`` starts there), and
    beyond the latest subscriber."""
    return (min(reference_times), last_at, max(reference_times) + 1)


def check_pool(
    database,
    subscriptions: Dict[str, object],
    recorders: Dict[str, object],
    reference_times: Sequence[int],
    tally: Tally,
    *,
    runs: int = 1,
) -> Tuple[Dict[object, Timer], Dict[object, Timer], int]:
    """Compare every distinct fingerprint with a cold re-evaluation.

    Returns the timers of the cold queries and of the instantiations
    (``runs`` samples each) — the oracle *is* the cold evaluation of the
    live workloads, so it is timed, not repeated — and the number of
    rows the cold queries returned.
    """
    by_fingerprint: Dict[str, List[object]] = {}
    for subscription in subscriptions.values():
        by_fingerprint.setdefault(subscription.fingerprint, []).append(subscription)
    plans = {
        fingerprint: compile_statement(sharers[0].statement, database)
        for fingerprint, sharers in by_fingerprint.items()
    }
    query_times, cold_results = timed_passes(
        {
            fingerprint: partial(database.query, plan)
            for fingerprint, plan in plans.items()
        },
        runs,
    )
    instantiate_times, expected = timed_passes(
        {
            (fingerprint, rt): partial(cold.instantiate, rt)
            for fingerprint, cold in cold_results.items()
            for rt in reference_times
        },
        runs,
    )
    rows_out = sum(len(cold) for cold in cold_results.values())
    for fingerprint, sharers in by_fingerprint.items():
        first = sharers[0]
        cold = cold_results[fingerprint]
        label = first.name.split("@")[0]
        tally.check(cold == first.result, f"{label}: maintained result != cold result")
        for rt in reference_times:
            tally.check(
                first.instantiate(rt) == expected[fingerprint, rt],
                f"{label}: instantiate({rt}) differs from cold evaluation",
            )
        counts = set()
        for subscription in sharers:
            recorder = recorders[subscription.name]
            if recorder.spec.delay:
                continue  # slow consumers coalesce: their counts are not fixed
            counts.add(len(recorder.arrivals))
            tally.check(
                len(recorder.arrivals) == subscription.stats.notifications,
                f"{subscription.name}: {len(recorder.arrivals)} deliveries, "
                f"{subscription.stats.notifications} notifications sent",
            )
            if recorder.last is None:
                continue
            # What the subscriber was last told must be the final state …
            if subscription.reference_time is not None:
                tally.check(
                    recorder.last.rows == cold.instantiate(subscription.reference_time),
                    f"{subscription.name}: last delivered rows are stale",
                )
            # … and the deltas it was sent must add up to it.
            folded = {item for item, count in recorder.folded.items() if count > 0}
            negative = [item for item, count in recorder.folded.items() if count < 0]
            tally.check(
                not negative and folded == set(cold.tuples),
                f"{subscription.name}: folded deltas do not add up to the result",
            )
        tally.check(
            len(counts) <= 1,
            f"{label}: sharers of one fingerprint got different counts {sorted(counts)}",
        )
    return query_times, instantiate_times, rows_out


def table_bytes(database) -> Dict[str, List[bytes]]:
    """Every base table as a sorted list of encoded rows."""
    return {
        name: sorted(pack_tagged_tuple(row) for row in table.rows())
        for name, table in database.tables().items()
    }


def check_recovered(
    expected_tables: Dict[str, List[bytes]],
    expected_results: Dict[str, object],
    database,
    tally: Tally,
) -> None:
    """A recovered database must be byte-identical to the one closed."""
    recovered = table_bytes(database)
    for name, rows in expected_tables.items():
        tally.check(recovered.get(name) == rows, f"recovered table {name} differs")
    session = database.live_session()
    resumed = {subscription.name: subscription for subscription in session.subscriptions}
    for name, result in expected_results.items():
        subscription = resumed.get(name)
        tally.check(
            subscription is not None and subscription.result == result,
            f"recovered subscription {name} differs",
        )


def notification_signature(recorders: Dict[str, object]) -> Dict[str, int]:
    """Deliveries per fast subscriber — equal for equal seeds."""
    return {
        name: len(recorder.arrivals)
        for name, recorder in sorted(recorders.items())
        if not recorder.spec.delay
    }


def fold_initial(recorders: Dict[str, object], subscriptions: Dict[str, object]) -> None:
    """Start every recorder's folded multiset at the subscribed result."""
    for name, recorder in recorders.items():
        recorder.folded = Counter(subscriptions[name].result.tuples)
