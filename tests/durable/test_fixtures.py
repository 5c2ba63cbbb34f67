"""Committed durable directories written by earlier formats still open.

``fixtures/v1`` was written by the last checkpoint format 1 code (a
statement-less subscription kept as a pickle), ``fixtures/v2`` by format
2 (kept as data); both by ``fixtures/make_fixtures.py`` at its seed.  Each
test opens a copy: a reopen may rotate or truncate WAL segments.
"""

import base64
import json
import logging
import pickle
import shutil
from pathlib import Path

import pytest

from repro.durable.wal import KIND_BATCH, KIND_CREATE, KIND_DROP, KIND_SNAPSHOT
from repro.engine.database import Database
from repro.engine.storage import pack_tagged_tuple

from tests.conftest import assert_fixed_semantics

FIXTURES = Path(__file__).parent / "fixtures"


def _open(version, tmp_path):
    root = tmp_path / version
    shutil.copytree(FIXTURES / version / "db", root)
    (manifest_path,) = root.glob("checkpoints/*/MANIFEST.json")
    manifest = json.loads(manifest_path.read_text())
    received = {}
    db = Database.open(
        root,
        session={},
        on_refresh={
            entry["name"]: received.setdefault(entry["name"], []).append
            for entry in manifest["subscriptions"]
        },
    )
    return db, manifest, received


def _assert_rows(db, version):
    expected = json.loads((FIXTURES / version / "rows.json").read_text())
    assert sorted(db.tables()) == sorted(expected)
    for name, rows in expected.items():
        packed = sorted(
            base64.b64encode(pack_tagged_tuple(row)).decode("ascii")
            for row in db.table(name).rows()
        )
        assert packed == rows, name


def _assert_delivered_once(db, received, names):
    assert {name: len(events) for name, events in received.items() if events} == {
        name: 1 for name in names
    }
    for name in names:
        assert received[name][0].changed_tables == ("R",)
    session = db.live_session()
    session.flush()
    assert session.resume() == []  # the manifest was consumed
    assert all(len(received[name]) == 1 for name in names)


def test_the_wal_holds_every_record_kind(tmp_path):
    for version in ("v1", "v2"):
        db, _, _ = _open(version, tmp_path)
        kinds = {record.kind for _, record in db._durability.wal.records()}
        assert kinds == {KIND_CREATE, KIND_BATCH, KIND_SNAPSHOT, KIND_DROP}
        db.close()


def test_format_2_resumes_both_subscriptions(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="repro.durable")
    db, manifest, received = _open("v2", tmp_path)
    assert manifest["format"] == 2
    _assert_rows(db, "v2")
    subscriptions = {sub.name: sub for sub in db.live_session().subscriptions}
    assert sorted(subscriptions) == ["by_plan", "by_statement"]
    for entry in manifest["subscriptions"]:
        assert subscriptions[entry["name"]].fingerprint == entry["fingerprint"]
    assert caplog.records == []  # no fingerprint changed, nothing skipped
    _assert_delivered_once(db, received, ["by_plan", "by_statement"])
    assert db._durability.reenqueued_notifications == 2
    for sub in subscriptions.values():
        assert_fixed_semantics(sub.plan, db, sub.result, context=sub.name)
    db.close()


def test_format_1_refuses_its_pickled_plan_by_name(tmp_path, caplog, monkeypatch):
    loads = []
    monkeypatch.setattr(pickle, "loads", lambda *a, **k: loads.append(a))
    monkeypatch.setattr(pickle, "load", lambda *a, **k: loads.append(a))
    caplog.set_level(logging.ERROR, logger="repro.durable")
    db, manifest, received = _open("v1", tmp_path)
    assert manifest["format"] == 1
    assert [entry["name"] for entry in manifest["subscriptions"]
            if entry["plan_pickle"]] == ["by_plan"]
    _assert_rows(db, "v1")
    (sub,) = db.live_session().subscriptions
    assert sub.name == "by_statement"
    (record,) = caplog.records
    assert "'by_plan'" in record.getMessage()
    assert "'by_plan'" in str(record.exc_info[1])
    _assert_delivered_once(db, received, ["by_statement"])
    assert_fixed_semantics(sub.plan, db, sub.result)
    assert loads == []
    db.close()
