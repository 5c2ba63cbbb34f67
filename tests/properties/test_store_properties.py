"""Property test: lazy copy-on-read snapshots are exact.

The contract of the versioned result store
(:class:`~repro.relational.relation.ResultStore`), proven over the same
random plans and modification sequences that pin the delta engine
(``test_delta_properties.py``, reused verbatim): after any modification
step, the lazily materialized, version-cached snapshot is
*byte-identical* to the eager ``from_deduplicated`` rebuild every refresh
used to pay (same tuples, same order, same serialized bytes), and
snapshots held from earlier versions never change retroactively.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.delta import DeltaEvaluator
from repro.engine.storage import pack_tuple

# Reuse the delta-exactness generators: one representative plan per delta
# rule, and typed modification sequences (inserts, current deletes/updates,
# current inserts).  The tests directory is not a package, so the module
# is loaded off its own directory, the way pytest itself would.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_delta_properties import (  # noqa: E402
    PLAN_KEYS,
    _MODIFICATIONS,
    _apply,
    _fresh_database,
    _plans,
)


def _packed(relation) -> bytes:
    return b"".join(pack_tuple(item) for item in relation.tuples)


@given(st.sampled_from(PLAN_KEYS), _MODIFICATIONS)
@settings(max_examples=80)
def test_lazy_snapshot_equals_eager_rebuild(plan_key, modifications):
    """At every step: snapshot() == the eager from_deduplicated rebuild,
    byte for byte — and a held snapshot is frozen forever."""
    plan = _plans()[plan_key]
    db = _fresh_database()
    evaluator = DeltaEvaluator(plan, db)
    evaluator.refresh_full()
    captured = {}
    db.add_delta_listener(
        lambda name, version, delta: captured.update(
            {name: delta if name not in captured else captured[name].merge(delta)}
        )
    )
    held = []  # (snapshot, packed-bytes-at-capture-time)
    for step, modification in enumerate(modifications):
        captured.clear()
        _apply(db, modification)
        evaluator.apply(captured)
        lazy = evaluator.store.snapshot()
        eager = evaluator.store.materialize()  # the pre-store rebuild path
        assert lazy.tuples == eager.tuples, (
            f"{plan_key}: lazy snapshot diverged from the eager rebuild "
            f"at step {step}"
        )
        assert _packed(lazy) == _packed(eager)
        assert evaluator.store.snapshot() is lazy  # cached per version
        held.append((lazy, _packed(lazy)))
    # Copy-on-read means *frozen*: every snapshot still matches the bytes
    # captured when it was taken, no matter what mutated afterwards.
    for snapshot, bytes_then in held:
        assert _packed(snapshot) == bytes_then
    assert evaluator.full_evaluations == 1  # never fell back
