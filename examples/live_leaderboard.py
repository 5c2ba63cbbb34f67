"""A live top-k leaderboard, served straight from OSQL.

The ordered-surface PR makes the *full* SQL shape subscribable: one
statement carries multi-aggregate ``GROUP BY``, ``HAVING``, ``DISTINCT``
and a maintained ``ORDER BY ... LIMIT k`` window, and the serving layer
needs no changes at all — :meth:`repro.live.LiveSession.subscribe_sql`
compiles the text to a plan whose top of the tree is a :class:`SortLimit` node.

Two boards over the MozillaBugs workload:

* **newest-bugs feed** — ``ORDER BY ID DESC LIMIT 10``: every freshly
  filed bug has the largest ID so far, so each write lands *inside* the
  window and stays on the O(log k) delta path (insert into the sorted
  window, evict the boundary row into the overflow count);
* **component leaderboard** — ``GROUP BY Component`` with ``COUNT(*)``
  and ``SUM_DURATION(VT)`` in one pass, filtered by ``HAVING`` and
  topped by ``ORDER BY open_bugs DESC ... LIMIT 3``: rows are ordered
  by their *eventual* value (counts over ongoing tuples keep growing as
  time passes), and a rank change at the window boundary falls back to
  the logged full refresh — the stats below show both paths firing.

Run with::

    python examples/live_leaderboard.py
"""

import threading
import time

from repro.datasets import generate_mozilla
from repro.datasets import mozilla as mozilla_module
from repro.engine.modifications import current_delete, current_insert
from repro.live import LiveSession
from repro.sqlish import compile_statement

FEED_SQL = "SELECT ID, Component FROM B ORDER BY ID DESC LIMIT 10"

BOARD_SQL = (
    "SELECT Component, COUNT(*) AS open_bugs, SUM_DURATION(VT) AS load "
    "FROM B GROUP BY Component "
    "HAVING open_bugs >= 2 "
    "ORDER BY open_bugs DESC, Component LIMIT 3"
)

N_WRITERS = 2
WRITES_PER_WRITER = 20
HOT_COMPONENT = "component-03"


def _show(title: str, subscription, key) -> None:
    # The maintained window is a *set* of ongoing tuples (which k rows
    # survive); presentation order is applied at instantiation time.
    rows = sorted(subscription.instantiate(mozilla_module.HISTORY_END), key=key)
    print(f"{title}:")
    for rank, row in enumerate(rows, start=1):
        print(f"  {rank}. {row}")


def _feed_rank(row):
    return -row[0]  # newest bug ID first


def _board_rank(row):
    return (-row[1], row[0])  # open_bugs DESC, Component


def main() -> None:
    dataset = generate_mozilla(5_000)
    db = dataset.as_database()
    session = LiveSession(db, delivery_workers=2)

    feed = session.subscribe_sql(FEED_SQL, name="newest-bugs")
    board = session.subscribe_sql(BOARD_SQL, name="component-leaderboard")
    _show("initial top components", board, _board_rank)

    session.serve(debounce=0.005)
    bugs = db.table("B")

    def writer(seed: int) -> None:
        base = 30_000_000 + seed * WRITES_PER_WRITER
        for i in range(WRITES_PER_WRITER):
            bug_id = base + i
            row = ("product-00", HOT_COMPONENT, "Linux", f"burst {seed}/{i}")
            current_insert(
                bugs, (bug_id,) + row, at=mozilla_module.HISTORY_END - 5
            )
            if i % 7 == 6:  # the occasional triage closes a bug again
                current_delete(
                    bugs,
                    lambda r, b=bug_id: r.values[0] == b,
                    at=mozilla_module.HISTORY_END - 3,
                )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=writer, args=(seed,))
        for seed in range(N_WRITERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    write_seconds = time.perf_counter() - started

    session.stop_serving()
    session.flush()
    session.bus.drain(timeout=10)

    print(
        f"\n{N_WRITERS} writers filed {N_WRITERS * WRITES_PER_WRITER} "
        f"modifications against {HOT_COMPONENT!r} in "
        f"{write_seconds * 1e3:.1f} ms while the serve loop kept both "
        f"boards fresh\n"
    )
    _show("top components now", board, _board_rank)
    _show("\nnewest bugs", feed, _feed_rank)

    stats = session.stats()
    print(
        f"\nrefreshes: {stats['repro_live_delta_refreshes_total']} by delta, "
        f"{stats['repro_live_full_refreshes_total']} full "
        f"(top-k boundary evictions fall back, in-window churn does not); "
        f"{stats['repro_live_flushes_total']} flushes coalesced from "
        f"{stats['repro_live_events_total']} events"
    )

    # Both maintained windows are exact: byte-identical to re-running the
    # compiled plans from scratch.
    for sql, subscription in ((FEED_SQL, feed), (BOARD_SQL, board)):
        assert subscription.result == db.query(compile_statement(sql, db))
    print("both boards match a from-scratch evaluation — exactly")
    session.close()


if __name__ == "__main__":
    main()
