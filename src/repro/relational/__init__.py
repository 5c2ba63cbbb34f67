"""Ongoing relations (Section VII of the paper): the values queries run on.

* :mod:`repro.relational.schema` — schemas with fixed/ongoing attributes;
* :mod:`repro.relational.tuples` — tuples carrying the RT attribute;
* :mod:`repro.relational.relation` — ongoing relations and the bind operator;
* :mod:`repro.relational.predicates` — predicate/expression trees evaluated
  to ongoing booleans (the ``col(...)`` builder API).

The operators of Theorem 2 exist once, in the engine: build a plan
(:mod:`repro.engine.plan`) and run it with ``Database.query``.  σ is
``where``, π is ``select_columns`` (which also renames: a
``(new_name, col(old_name))`` item), ⋈ is ``join``, the product ``×`` is
``join`` on ``TRUE_PREDICATE``, ∪ is ``union``, − is ``difference`` and
``R ∩ S`` is ``R.difference(R.difference(S))``.  The paper's definition
of each — bind at rt, then run the fixed operator — is
:func:`repro.baselines.clifford.evaluate_fixed`.  Aggregation γ
(``group_by``) and ``ORDER BY … LIMIT`` (``order_by``) are defined over
the bag of their child's ongoing tuples instead:
:func:`repro.baselines.clifford.evaluate_pointwise`.
"""

from repro.relational.schema import Attribute, AttributeKind, Schema
from repro.relational.tuples import FixedTuple, OngoingTuple, bind_value
from repro.relational.relation import OngoingRelation
from repro.relational.predicates import (
    AllenPredicate,
    And,
    Column,
    Comparison,
    Expression,
    IntervalIntersection,
    Literal,
    Not,
    Or,
    Predicate,
    TRUE_PREDICATE,
    TruePredicate,
    col,
    lit,
)

__all__ = [
    "Attribute",
    "AttributeKind",
    "Schema",
    "FixedTuple",
    "OngoingTuple",
    "bind_value",
    "OngoingRelation",
    "AllenPredicate",
    "And",
    "Column",
    "Comparison",
    "Expression",
    "IntervalIntersection",
    "Literal",
    "Not",
    "Or",
    "Predicate",
    "TRUE_PREDICATE",
    "TruePredicate",
    "col",
    "lit",
]
