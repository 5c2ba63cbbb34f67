"""The comparison approaches discussed in Section III of the paper.

* :mod:`repro.baselines.fixed_algebra` — classical fixed-interval
  operations (the ``opF`` side of every Definition 4 equivalence);
* :mod:`repro.baselines.clifford` — instantiate *now* when accessed [3];
  the main runtime comparator (``Cliff_max``) of the evaluation, and
  ``evaluate_fixed``: any plan evaluated on the database bound at rt,
  the oracle of the engine's operators;
* :mod:`repro.baselines.torp` — the ``Tf`` domain [4]: uninstantiated
  ∩/− for modifications, no predicates, not closed under min/max;
* :mod:`repro.baselines.forever` — TQuel's *Forever* substitution [22],
  demonstrably incorrect;
* :mod:`repro.baselines.anselma` — ``T ∪ {now}`` [5]: keeps *now* in easy
  intersections, must instantiate otherwise.
"""

from repro.baselines import fixed_algebra
from repro.baselines.clifford import (
    NotSnapshotReducible,
    bind_relation,
    cliff_max_reference_time,
    critical_points,
    evaluate_fixed,
    hash_join,
    selection,
    sweep_join,
)
from repro.baselines.torp import NotRepresentableError, TfInterval, TfTimePoint
from repro.baselines.forever import (
    FOREVER,
    forever_point,
    forever_relation,
    forever_value,
)
from repro.baselines.anselma import AnselmaInterval, AnselmaPoint, AnselmaResult

__all__ = [
    "fixed_algebra",
    "NotSnapshotReducible",
    "bind_relation",
    "cliff_max_reference_time",
    "critical_points",
    "evaluate_fixed",
    "hash_join",
    "selection",
    "sweep_join",
    "NotRepresentableError",
    "TfInterval",
    "TfTimePoint",
    "FOREVER",
    "forever_point",
    "forever_relation",
    "forever_value",
    "AnselmaInterval",
    "AnselmaPoint",
    "AnselmaResult",
]
