"""The oracles are never a production path, and never the engine.

Two yardsticks check the engine's operators:
:func:`repro.baselines.clifford.evaluate_fixed` — the paper's definition,
the fixed query over the database bound at rt — for every relational
node, and :func:`repro.relational.aggregate.group_by` for aggregates,
which do not reduce to a snapshot.  A comparison only means something
while neither side calls the other:

* the engine imports from :mod:`repro.relational.aggregate` only the
  kernels below, each by name.  Since the aggregate keeps invertible
  accumulators of its own (:mod:`repro.engine.accumulators`), ``group_by``
  and its per-group computes — COUNT, SUM_DURATION, AVG, the union of a
  group's member RTs — are not among them;
* ``baselines/clifford.py`` imports nothing from :mod:`repro.engine` but
  the logical plan nodes it interprets, and nothing from the aggregate
  reference.
"""

import ast
from pathlib import Path

import repro.baselines.clifford
import repro.engine
import repro.relational.aggregate

#: The aggregate reference, and the package root that re-exports it.
_ORACLE_MODULES = ("repro.relational", "repro.relational.aggregate")

#: Kernel name → why the engine and the aggregate reference share it.
_SHARED_KERNELS = {
    "_extremum_sweep": "MIN / MAX are not invertible: one sweep over a (rt, value) iterable",
    "scalar_empty_row": "the constant row of a scalar aggregate over zero members",
    "validate_aggregate": "plan-time type check of an aggregate's argument",
}


def _imports(tree: ast.AST):
    """``(lineno, module, name)`` per imported name (``name`` None for a
    plain ``import module``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, None


def _parsed(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_engine_imports_only_per_tuple_kernels_from_the_oracle():
    offenders = []
    for path in sorted(Path(repro.engine.__file__).parent.glob("*.py")):
        for lineno, module, name in _imports(_parsed(path)):
            if module in _ORACLE_MODULES and name not in _SHARED_KERNELS:
                offenders.append(f"{path.name}:{lineno} imports {module} {name}")
    assert not offenders, offenders


def test_the_fixed_semantics_oracle_reads_only_the_plan_from_the_engine():
    aggregate_names = set(repro.relational.aggregate.__all__)
    offenders = []
    path = Path(repro.baselines.clifford.__file__)
    for lineno, module, name in _imports(_parsed(path)):
        engine = module == "repro.engine" or module.startswith("repro.engine.")
        if engine and (module, name) not in {
            ("repro.engine", "plan"),
            ("repro.engine.plan", name),
        }:
            offenders.append(f"{lineno}: {module} {name}")
        if module == "repro.relational.aggregate" or (
            module == "repro.relational" and name in aggregate_names
        ):
            offenders.append(f"{lineno}: {module} {name}")
    assert not offenders, offenders
