"""The scrape is one documented table (ROADMAP 4c).

README's "Observability" section lists every family a scrape exposes,
with its kind, what reads it and the test that asserts it.  A family
that appears without a row, a row whose family is gone, or a row citing
a test the suite no longer collects fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.core.interval import until_now
from repro.engine.database import Database
from repro.obs.promtext import validate_prometheus_text
from repro.relational.schema import Schema

ROOT = Path(__file__).resolve().parents[2]

_ROW = re.compile(
    r"^\| `(repro_\w+)` \| (\w+) \| ([^|]+) \| `(tests/[^`]+)` \|$", re.M
)


def _readme_table():
    """``{family: (kind, reader, test id)}`` from README's table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Observability", 1)[1].split("\n## ", 1)[0]
    rows = _ROW.findall(section)
    table = {
        name: (kind, reader.strip(), test) for name, kind, reader, test in rows
    }
    assert len(table) == len(rows), "a family has two rows"
    return table


def _scrape(path):
    """Every family of a durable session with one delivery worker, one
    subscription that has delivered, and one checkpoint."""
    db = Database.open(path, fsync="off", session={"delivery_workers": 1})
    try:
        db.create_table("R", Schema.of("K", ("VT", "interval")))
        session = db.live_session()
        session.subscribe_sql("SELECT * FROM R", on_refresh=lambda event: None)
        db.table("R").insert(1, until_now(5))
        session.flush()
        assert session.bus.drain(timeout=10)
        db.checkpoint()
        validate_prometheus_text(session.metrics.render_prometheus())
        return {
            name: entry["kind"]
            for name, entry in session.metrics.snapshot().items()
        }
    finally:
        db.close()


def test_the_scrape_is_the_readme_table(tmp_path):
    table = _readme_table()
    scraped = _scrape(tmp_path)
    assert set(scraped) == set(table)
    assert scraped == {name: kind for name, (kind, _, _) in table.items()}
    assert all(reader for _, reader, _ in table.values())


def test_every_test_the_table_cites_is_collected():
    cited = sorted({test for _, _, test in _readme_table().values()})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            "-p", "no:cacheprovider", *cited,
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    collected = set(done.stdout.split())
    assert set(cited) <= collected, set(cited) - collected
