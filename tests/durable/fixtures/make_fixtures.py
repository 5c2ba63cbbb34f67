"""Write one golden fixture of the durable formats.

    PYTHONPATH=src python tests/durable/fixtures/make_fixtures.py OUT

writes, from a fixed seed,

* ``OUT/db/`` — a durable database directory: a WAL segment set holding
  CREATE, BATCH, SNAPSHOT and DROP records, and one checkpoint holding a
  statement subscription (``by_statement``), a subscription built from a
  plan object (``by_plan``) and, for each, a pending coalesced
  notification (captured while the one delivery worker was stuck in a
  callback);
* ``OUT/rows.json`` — every table's rows at close, each row as base64 of
  its tagged storage encoding, sorted.

After the checkpoint the WAL suffix touches only tables the
subscriptions do not read, so a reopen delivers exactly the captured
notifications.  The script refuses an existing *OUT*: a committed
fixture is never regenerated — a format change bumps its version and
adds a fixture beside the old ones.
"""

from __future__ import annotations

import base64
import json
import random
import sys
import threading
from pathlib import Path

from repro.core.interval import OngoingInterval, until_now
from repro.core.timeline import mmdd
from repro.core.timepoint import NOW, fixed, growing
from repro.engine.database import Database
from repro.engine.plan import scan
from repro.engine.storage import pack_tagged_tuple
from repro.relational.predicates import col, lit
from repro.relational.schema import Schema
from repro.relational.tuples import OngoingTuple

SEED = 38

STATEMENT = "SELECT * FROM R WHERE VT OVERLAPS PERIOD '[08/01, 09/01)'"


def plan():
    """The plan-object subscription: literals of three tagged kinds, an
    interval intersection and a named join."""
    recent = lit(OngoingInterval(fixed(mmdd(7, 15)), NOW))
    return (
        scan("R")
        .where((col("C") != lit("spam")) & col("VT").overlaps(recent))
        .join(
            scan("S"),
            on=(col("R.K") == col("S.K")) & col("R.VT").overlaps(col("S.VT")),
            left_name="R",
            right_name="S",
        )
        .select_columns("R.K", "S.L", ("W", col("R.VT").intersect(col("S.VT"))))
    )


def _interval(rng: random.Random) -> OngoingInterval:
    start = mmdd(7, 1) + rng.randrange(60)
    shape = rng.randrange(3)
    if shape == 0:
        return until_now(start)
    if shape == 1:
        return OngoingInterval(fixed(start), fixed(start + 1 + rng.randrange(30)))
    return OngoingInterval(fixed(start), growing(start + rng.randrange(20)))


def write(out: Path) -> None:
    rng = random.Random(SEED)
    db = Database.open(out / "db", name="fixture", fsync="off")
    r = db.create_table("R", Schema.of("K", "C", ("VT", "interval")))
    s = db.create_table("S", Schema.of("K", "L", ("VT", "interval")))
    for key in range(12):
        r.insert(key % 6, rng.choice(["spam", "ham", "eggs"]), _interval(rng))
    for key in range(6):
        s.insert(key, f"label-{key}", _interval(rng))

    session = db.live_session(delivery_workers=1)
    stuck = threading.Event()
    plug = threading.Event()

    def listener(event) -> None:
        stuck.set()
        plug.wait(timeout=60)

    session.subscribe_sql(STATEMENT, on_refresh=listener, name="by_statement")
    session.subscribe(plan(), on_refresh=listener, name="by_plan")
    r.insert(2, "ham", until_now(mmdd(8, 10)))
    session.flush()
    if not stuck.wait(timeout=30):
        raise RuntimeError("the first notification was never delivered")
    # The worker is stuck in the callback: these queue, and coalesce.
    for key, day in ((3, 12), (4, 14)):
        r.insert(key, "eggs", until_now(mmdd(8, day)))
        session.flush()
    db.checkpoint()
    plug.set()

    # The suffix: every record kind, none of it on R or S.
    t = db.create_table("T", Schema.of("K", ("VT", "interval")))
    for key in range(4):
        t.insert(key, _interval(rng))
    t.replace_all([OngoingTuple((10 + key, _interval(rng))) for key in range(3)])
    t.insert(20, until_now(mmdd(9, 1)))
    db.create_table("U", Schema.of("K"))
    db.drop_table("U")

    rows = {
        name: sorted(
            base64.b64encode(pack_tagged_tuple(row)).decode("ascii")
            for row in table.rows()
        )
        for name, table in sorted(db.tables().items())
    }
    db.close()
    (out / "rows.json").write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    if out.exists():
        print(f"{out} exists; a fixture is never regenerated", file=sys.stderr)
        return 1
    write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
