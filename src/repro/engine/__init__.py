"""The engine substrate — stand-in for the paper's PostgreSQL prototype.

* :mod:`repro.engine.database` — catalog, tables, query entry point;
* :mod:`repro.engine.plan` — logical plans (fluent builder);
* :mod:`repro.engine.planner` — Section VIII optimizations: predicate split
  and join algorithm selection;
* :mod:`repro.engine.executor` — physical operators (scans, the two filter
  halves, hash / merge-interval / nested-loop joins);
* :mod:`repro.engine.storage` — the byte-accurate tuple layout of Table V;
* :mod:`repro.engine.indexes` — envelope interval index plus the
  maintained one a merge join keeps each side in (Section X future
  work), and the one index-vs-scan cut, ``INDEX_THRESHOLD``;
* :mod:`repro.engine.modifications` — Torp-style current insert / delete /
  update semantics;
* :mod:`repro.engine.delta` — typed row deltas and the incremental
  delta-propagation evaluator (counting-based view maintenance).
"""

from repro.engine.database import Database, Table
from repro.engine.delta import (
    Delta,
    DeltaEvaluator,
    EMPTY_DELTA,
    NonIncrementalDelta,
)
from repro.engine.plan import (
    Aggregate,
    Difference,
    Join,
    PlanNode,
    Project,
    Scan,
    Select,
    Union,
    scan,
)
from repro.engine.planner import Planner, plan_query
from repro.engine.executor import (
    AggregateOp,
    DifferenceOp,
    FixedFilter,
    HashJoin,
    MergeIntervalJoin,
    NestedLoopJoin,
    IntervalScan,
    OngoingFilter,
    PhysicalOperator,
    ProjectOp,
    SeqScan,
    UnionOp,
)
from repro.engine.storage import (
    StorageReport,
    pack_rt,
    pack_tuple,
    pack_value,
    relation_storage,
    sizeof_delta,
    sizeof_tuple,
)
from repro.engine.indexes import (
    IntervalIndex,
    IntervalProbeIndex,
    OrderedIndex,
)
from repro.engine.modifications import current_delete, current_insert, current_update
from repro.engine.bitemporal import BitemporalTable
from repro.engine.rewrite import push_down_selections, split_selections

__all__ = [
    "Database",
    "Table",
    "Delta",
    "DeltaEvaluator",
    "EMPTY_DELTA",
    "NonIncrementalDelta",
    "Aggregate",
    "Difference",
    "Join",
    "PlanNode",
    "Project",
    "Scan",
    "Select",
    "Union",
    "scan",
    "Planner",
    "plan_query",
    "AggregateOp",
    "DifferenceOp",
    "FixedFilter",
    "HashJoin",
    "MergeIntervalJoin",
    "NestedLoopJoin",
    "IntervalScan",
    "OngoingFilter",
    "PhysicalOperator",
    "ProjectOp",
    "SeqScan",
    "UnionOp",
    "StorageReport",
    "pack_rt",
    "pack_tuple",
    "pack_value",
    "relation_storage",
    "sizeof_delta",
    "sizeof_tuple",
    "IntervalIndex",
    "IntervalProbeIndex",
    "OrderedIndex",
    "current_delete",
    "current_insert",
    "current_update",
    "BitemporalTable",
    "push_down_selections",
    "split_selections",
]
