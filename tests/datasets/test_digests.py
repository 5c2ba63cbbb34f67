"""Golden digests of the generated data sets the benchmark ledger reads.

Each digest is a sha256 over ``repr(item.values)`` of every row, relation
by relation, recorded when descriptions were still drawn one character at
a time with ``rng.choices``.  A change to how anything is drawn must fail
here on purpose instead of shifting the ledger's numbers quietly.  The
digests hold on every CPython the suite runs under (3.10–3.12).
"""

import hashlib

import pytest

from repro.datasets import generate_dex, generate_dsc, generate_mozilla


def _mozilla():
    dataset = generate_mozilla(300, seed=1)
    return dataset.bug_info, dataset.bug_assignment, dataset.bug_severity


_DIGESTS = {
    "mozilla": (
        _mozilla,
        "9cc6b4ab14494c8797bc2c3323ff948aafb4f6438020204a2b9455921c557631",
    ),
    "dsc": (
        lambda: (generate_dsc(2000),),
        "c7367f2900848808f6fc61926648837d2a5526a47a2252d4ee5256dfff709e27",
    ),
    "dex": (
        lambda: (generate_dex(2000),),
        "0f2594af67d3284093f4fb853d5f2e327fcbbf6c66a2ca4b582bb8ff3156224d",
    ),
}


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_generated_rows_match_their_recorded_digest(name):
    generate, expected = _DIGESTS[name]
    digest = hashlib.sha256()
    for relation in generate():
        for item in relation:
            digest.update(repr(item.values).encode())
    assert digest.hexdigest() == expected
