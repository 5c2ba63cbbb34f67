"""API hygiene: the public surface is importable, exported, and documented."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGES = [
    "repro",
    "repro.core",
    "repro.relational",
    "repro.engine",
    "repro.baselines",
    "repro.datasets",
    "repro.bench",
    "repro.sqlish",
    "repro.live",
]

_MODULES = [
    "repro.core.timeline",
    "repro.core.timepoint",
    "repro.core.intervalset",
    "repro.core.boolean",
    "repro.core.interval",
    "repro.core.operations",
    "repro.core.allen",
    "repro.core.integer",
    "repro.core.duration",
    "repro.relational.schema",
    "repro.relational.tuples",
    "repro.relational.relation",
    "repro.relational.predicates",
    "repro.engine.database",
    "repro.engine.plan",
    "repro.engine.planner",
    "repro.engine.executor",
    "repro.engine.storage",
    "repro.engine.indexes",
    "repro.engine.modifications",
    "repro.engine.bitemporal",
    "repro.engine.rewrite",
    "repro.baselines.fixed_algebra",
    "repro.baselines.clifford",
    "repro.baselines.torp",
    "repro.baselines.forever",
    "repro.baselines.anselma",
    "repro.datasets.mozilla",
    "repro.datasets.incumbent",
    "repro.datasets.synthetic",
    "repro.datasets.workloads",
    "repro.sqlish.lexer",
    "repro.sqlish.parser",
    "repro.sqlish.compiler",
    "repro.bench.harness",
    "repro.live.events",
    "repro.live.subscription",
    "repro.live.manager",
]


@pytest.mark.parametrize("name", _PACKAGES)
def test_package_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"{name}.{export} in __all__ but missing"


@pytest.mark.parametrize("name", _MODULES)
def test_module_docstrings_and_exports(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name
    for export in getattr(module, "__all__", []):
        target = getattr(module, export, None)
        assert target is not None, f"{name}.{export}"
        if inspect.isclass(target) or inspect.isfunction(target):
            assert target.__doc__, f"{name}.{export} lacks a docstring"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.10.0"


def test_bound_delivery_names_are_public_in_the_live_package_only():
    """A refresh binds on read: the bound delta and the consumer-side
    fold are part of ``repro.live``; the top level stays as it was."""
    import repro
    import repro.live

    for name in ("BoundChanges", "BoundRows"):
        assert name in repro.live.__all__
        assert name not in repro.__all__ and not hasattr(repro, name)
    notification = repro.live.RefreshNotification
    assert isinstance(notification.rows, property)
    assert "rows" not in inspect.signature(notification).parameters
    for member in (notification.rows, notification.changes_at):
        assert member.__doc__
    bound_rows = repro.live.BoundRows
    for member in (bound_rows, bound_rows.rows, bound_rows.apply):
        assert member.__doc__


def test_the_serve_package_exports_delivery_names_only():
    """One thread refreshes and one bus delivers: the bus, the mailbox
    and the policy names — no scheduler, no sharding, no second bus, no
    pool, no cost model, no index registry, no second maintained result
    beside a subscription — and no metric family but the freshness
    histogram."""
    import repro
    import repro.engine
    import repro.live
    import repro.obs
    import repro.serve

    assert repro.serve.__all__ == ["EventBus", "Mailbox"]
    assert repro.EventBus is repro.live.EventBus is repro.serve.EventBus
    for name in (
        "FlushScheduler", "FlushRound", "shard_index",
        "AsyncEventBus", "DeliveryPool", "PlanCostHistory",
        "CostModel", "RefreshDecision", "DEFAULT_COST_MODEL",
        "SecondaryIndexRegistry", "PartitionIndex", "ChangeEvent",
        "materialize", "Counter", "Gauge", "DEFAULT_BUCKETS",
        "MaterializedOngoingView",
    ):
        for package in (
            repro, repro.live, repro.serve, repro.engine, repro.obs
        ):
            assert name not in package.__all__ and not hasattr(package, name)
    assert importlib.util.find_spec("repro.engine.cost") is None
    assert importlib.util.find_spec("repro.engine.views") is None
    # The bus is keyed by subscription: no topics, no error channels.
    for name in ("listener_count", "ERROR_TOPIC", "LISTENER_ERROR_TOPIC"):
        assert not hasattr(repro.EventBus, name)
    assert not hasattr(repro.serve.queues, "coalesce_payloads")


def test_aggregates_have_one_implementation_and_one_definition():
    """The engine's accumulators are the one aggregate implementation;
    ``evaluate_pointwise`` is the definition they are held to.  The
    second, sweep-based implementation and its helpers are gone."""
    import repro
    import repro.relational
    from repro.baselines.clifford import evaluate_pointwise

    assert evaluate_pointwise.__doc__
    assert importlib.util.find_spec("repro.relational.aggregate") is None
    for name in (
        "group_by", "count_tuples", "sum_durations", "min_over", "max_over",
        "members_support",
    ):
        for package in (repro, repro.relational):
            assert name not in package.__all__ and not hasattr(package, name)


def test_public_classes_have_documented_public_methods():
    from repro import IntervalSet, OngoingBoolean, OngoingInterval, OngoingTimePoint

    for cls in (IntervalSet, OngoingBoolean, OngoingInterval, OngoingTimePoint):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


def test_importing_the_package_loads_no_http_stack():
    """``ObsServer.start()`` imports ``http.server``; ``import repro``
    must not (it pulls ``email``, ``socketserver``, ``html`` and
    ``mimetypes`` into every process that never serves a scrape).  Nor
    does it load OpenSSL (``_hashlib``: 3.4 MB resident) for the one
    SHA-256 a plan fingerprint is."""
    import repro

    source = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro, sys; print(sorted(set(sys.modules) & "
            "{'http.server', 'socketserver', 'email', 'mimetypes', "
            "'_hashlib'}))",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
