"""The oracles are never a production path, and never the engine.

Two definitions check the engine's operators, both in
:mod:`repro.baselines.clifford`: :func:`~repro.baselines.clifford.evaluate_fixed`
— the paper's definition, the fixed query over the database bound at rt
— for every relational node, and
:func:`~repro.baselines.clifford.evaluate_pointwise` — the fixed GROUP BY,
resp. top-k, over the bag of the child's ongoing tuples — for an
aggregate and a limited sort, which do not reduce to a snapshot.  A
comparison only means something while neither side calls the other:

* ``baselines/clifford.py`` imports nothing from :mod:`repro.engine` but
  the logical plan nodes it interprets — in particular nothing from
  :mod:`repro.engine.accumulators`, the aggregate it defines;
* no engine module imports a second aggregate implementation: the
  sweep-based ``repro.relational.aggregate`` is gone, and the engine
  imports nothing from :mod:`repro.baselines`.
"""

import ast
from pathlib import Path

import repro.baselines.clifford
import repro.engine


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


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def test_engine_imports_no_oracle_and_no_second_aggregate():
    offenders = []
    for path in sorted(Path(repro.engine.__file__).parent.glob("*.py")):
        for lineno, module, name in _imports(_parsed(path)):
            if (
                _within(module, "repro.baselines")
                or module == "repro.relational.aggregate"
                or (module == "repro.relational" and name == "aggregate")
            ):
                offenders.append(f"{path.name}:{lineno} imports {module} {name}")
    assert not offenders, offenders


def test_the_fixed_semantics_oracle_reads_only_the_plan_from_the_engine():
    """``evaluate_fixed`` and ``evaluate_pointwise`` share a module: no
    import of it reaches the engine beyond ``plan`` — not the
    accumulators, not the executor that runs them."""
    offenders = []
    path = Path(repro.baselines.clifford.__file__)
    for lineno, module, name in _imports(_parsed(path)):
        if _within(module, "repro.engine") and (module, name) not in {
            ("repro.engine", "plan"),
            ("repro.engine.plan", name),
        }:
            offenders.append(f"{lineno}: {module} {name}")
    assert not offenders, offenders
    assert "evaluate_pointwise" in repro.baselines.clifford.__all__
