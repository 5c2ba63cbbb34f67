"""``relational/`` is the oracle, never a second production path.

The property suites compare the engine against the reference operators
of :mod:`repro.relational.algebra` / :mod:`repro.relational.aggregate`.
That comparison only means something while the engine does not *call*
them: this test walks every import in ``src/repro/engine/`` and allows
only the kernels below, each by name.  Since the aggregate keeps
invertible accumulators of its own (:mod:`repro.engine.accumulators`),
``group_by`` and its per-group computes — COUNT, SUM_DURATION, AVG, the
union of a group's member RTs — are not among them: the aggregate
property suites compare two independent implementations.
"""

import ast
from pathlib import Path

import repro.engine

#: The operator modules, and the package root that re-exports them.
_ORACLE_MODULES = (
    "repro.relational",
    "repro.relational.algebra",
    "repro.relational.aggregate",
)

#: Kernel name → why the engine and the oracle share it.
_SHARED_KERNELS = {
    "match_set": "Theorem 2's matched rts of ONE left tuple, not the operator",
    "_extremum_sweep": "MIN / MAX are not invertible: one sweep over a (rt, value) iterable",
    "scalar_empty_row": "the constant row of a scalar aggregate over zero members",
    "validate_aggregate": "plan-time type check of an aggregate's argument",
    "infer_kind": "column-kind inference for computed projections",
}


def _oracle_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in _ORACLE_MODULES:
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _ORACLE_MODULES:
                    yield node.lineno, f"module {alias.name}"


def test_engine_imports_only_per_tuple_kernels_from_the_oracle():
    offenders = []
    for path in sorted(Path(repro.engine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, name in _oracle_imports(tree):
            if name not in _SHARED_KERNELS:
                offenders.append(f"{path.name}:{lineno} imports {name}")
    assert not offenders, offenders
