"""Materialized ongoing results: caches that never go stale by time passing.

A key consequence of ongoing query results (Section IX-C): a materialized
ongoing result only needs refreshing after explicit database
modifications — never because the clock advanced.  Applications that want
plain fixed results simply *instantiate* the stored ongoing result at their
reference time, which is far cheaper than re-running the query.

The materialized result is a live subscription: ``subscribe`` builds it
once, ``sub.instantiate(rt)`` serves it at any reference time, and
``session.flush()`` refreshes it after a modification.

Run with::

    python examples/materialized_views.py
"""

import time

from repro import fmt_point
from repro.datasets import SelectionWorkload, generate_mozilla, last_tenth
from repro.datasets import mozilla as mozilla_module
from repro.engine.modifications import current_insert


def main() -> None:
    dataset = generate_mozilla(5_000)
    db = dataset.as_database()
    workload = SelectionWorkload(
        "B",
        "overlaps",
        last_tenth(mozilla_module.HISTORY_START, mozilla_module.HISTORY_END),
    )

    session = db.live_session()
    started = time.perf_counter()
    sub = session.subscribe(workload.plan(), name="open_during_window")
    materialize_seconds = time.perf_counter() - started
    print(
        f"materialized once: {len(sub.result)} ongoing tuples "
        f"in {materialize_seconds * 1e3:.1f} ms"
    )

    print("\nServing *fixed* results at many reference times from the result:")
    total_instantiate = 0.0
    total_clifford = 0.0
    for offset in (-700, -400, -100, -10, 30, 400):
        rt = mozilla_module.HISTORY_END + offset
        started = time.perf_counter()
        served = sub.instantiate(rt)
        total_instantiate += time.perf_counter() - started

        started = time.perf_counter()
        re_evaluated = workload.run_clifford(db, rt)
        total_clifford += time.perf_counter() - started

        assert served == frozenset(re_evaluated)
        print(
            f"  rt={fmt_point(rt):>12}: {len(served):>5} tuples "
            f"(identical to a full re-evaluation)"
        )
    print(
        f"\n6 instantiations: {total_instantiate * 1e3:.1f} ms from the result "
        f"vs {total_clifford * 1e3:.1f} ms via re-evaluation"
    )
    print(
        f"amortization incl. materializing: "
        f"{(materialize_seconds + total_instantiate) * 1e3:.1f} ms vs "
        f"{total_clifford * 1e3:.1f} ms"
    )

    print(
        f"\nwork left after time passed: {session.pending} dirty plans, "
        f"{sub.stats.refreshes} refreshes  (never by time)"
    )
    current_insert(
        db.table("B"),
        (99_999, "product-00", "component-00", "Linux", "new bug"),
        at=mozilla_module.HISTORY_END - 1,
    )
    print(f"dirty plans after an explicit INSERT: {session.pending}")
    refreshed = session.flush()
    print(
        f"flush: {refreshed} refresh, {sub.stats.refreshes} in total; "
        f"{len(sub.result)} ongoing tuples"
    )
    session.close()


if __name__ == "__main__":
    main()
