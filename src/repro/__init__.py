"""repro — ongoing databases whose query results remain valid as time passes.

A complete, from-scratch reproduction of

    Yvonne Mülle and Michael H. Böhlen:
    "Query Results over Ongoing Databases that Remain Valid as Time Passes
    By", ICDE 2020 (extended version arXiv:2001.05722).

The library keeps the ongoing time point *now* uninstantiated during query
processing.  Predicates over ongoing attributes evaluate to *ongoing
booleans* — truth values that are functions of the reference time — and
relational operators fold those truth sets into a per-tuple reference time
attribute ``RT``.  The resulting *ongoing relations* satisfy, at every
reference time ``rt``::

    ‖Q(D)‖rt  ==  Q(‖D‖rt)

so a query result computed once stays correct as time passes by.

Quickstart::

    from repro import mmdd, NOW, until_now, fixed_interval, allen

    bug_vt = until_now(mmdd(1, 25))              # [01/25, now)
    patch_vt = fixed_interval(mmdd(8, 15), mmdd(8, 24))
    when = allen.before(bug_vt, patch_vt)        # an ongoing boolean
    when.instantiate(mmdd(8, 14))                # -> True
    when.instantiate(mmdd(8, 20))                # -> False

The subpackages:

* :mod:`repro.core` — ongoing time points, intervals, booleans, operations;
* :mod:`repro.relational` — ongoing relations, predicates and aggregation;
* :mod:`repro.engine` — an in-memory engine standing in for the paper's
  PostgreSQL prototype (planner with the Section VIII predicate split,
  join algorithms, storage model);
* :mod:`repro.live` — the push-based subscription engine: clients register
  ongoing queries once and are notified on explicit modifications only —
  never because time passed;
* :mod:`repro.serve` — the delivery layer: the one :class:`EventBus`,
  with threaded notification fan-out and per-subscriber mailboxes that
  merge when full, opt-in on :class:`LiveSession` (``delivery_workers``);
* :mod:`repro.obs` — the operations plane: the metrics registry
  (Prometheus rendering under ``repro_<layer>_<what>_total`` names),
  the opt-in refresh-pipeline trace recorder (Chrome trace-event JSON),
  the ``explain_analyze()`` plan renderer, freshness SLOs with
  error-budget burn (:class:`FreshnessSLO`), and the live HTTP scrape
  endpoint (:class:`ObsServer`);
* :mod:`repro.durable` — durability: a segmented CRC-framed write-ahead
  log (fsync policies ``always``/``batch``/``off``), atomic checkpoints
  that capture table heaps plus live subscriptions and their undelivered
  notifications, crash recovery by replaying the WAL suffix as ordinary
  deltas (``Database.open`` / ``db.checkpoint()``), and a fault-injection
  harness of named crashpoints;
* :mod:`repro.baselines` — Clifford, Torp, Forever, and Anselma comparators;
* :mod:`repro.datasets` — synthetic MozillaBugs / Incumbent / D_ex / D_sh /
  D_sc generators and the paper's workload queries;
* :mod:`repro.bench` — one experiment driver per table and figure of the
  paper's evaluation.
"""

from repro.core import (
    DAYS,
    EMPTY_SET,
    MICROSECONDS,
    MINUS_INF,
    NOW,
    O_FALSE,
    O_TRUE,
    PLUS_INF,
    UNIVERSAL_SET,
    Chronology,
    IntervalSet,
    OngoingBoolean,
    OngoingInt,
    OngoingInterval,
    OngoingTimePoint,
    TimePoint,
    allen,
    duration,
    point_value,
    conjunction,
    disjunction,
    equal,
    fixed,
    fixed_interval,
    fmt_interval,
    fmt_point,
    from_bool,
    from_mmdd,
    greater_equal,
    greater_than,
    growing,
    interval,
    less_equal,
    less_than,
    limited,
    mmdd,
    negation,
    not_equal,
    ongoing_max,
    ongoing_min,
    until_now,
)
from repro.errors import (
    IntervalError,
    PredicateError,
    QueryError,
    ReproError,
    SchemaError,
    StorageError,
    TimeDomainError,
)
from repro.live import (
    EventBus,
    LiveSession,
    RefreshNotification,
    Subscription,
    SubscriptionManager,
)
from repro.obs import (
    FreshnessSLO,
    ObsServer,
    Registry,
    TraceRecorder,
)

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # core re-exports
    "DAYS",
    "EMPTY_SET",
    "MICROSECONDS",
    "MINUS_INF",
    "NOW",
    "O_FALSE",
    "O_TRUE",
    "PLUS_INF",
    "UNIVERSAL_SET",
    "Chronology",
    "IntervalSet",
    "OngoingBoolean",
    "OngoingInt",
    "OngoingInterval",
    "OngoingTimePoint",
    "TimePoint",
    "allen",
    "duration",
    "point_value",
    "conjunction",
    "disjunction",
    "equal",
    "fixed",
    "fixed_interval",
    "fmt_interval",
    "fmt_point",
    "from_bool",
    "from_mmdd",
    "greater_equal",
    "greater_than",
    "growing",
    "interval",
    "less_equal",
    "less_than",
    "limited",
    "mmdd",
    "negation",
    "not_equal",
    "ongoing_max",
    "ongoing_min",
    "until_now",
    # errors
    "IntervalError",
    "PredicateError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "StorageError",
    "TimeDomainError",
    # live subscription engine
    "EventBus",
    "LiveSession",
    "RefreshNotification",
    "Subscription",
    "SubscriptionManager",
    # telemetry
    "Registry",
    "TraceRecorder",
    "FreshnessSLO",
    "ObsServer",
]
