"""Golden digests of the generated data sets the benchmark ledger and
Fig. 9 read.

Each digest is a sha256 over ``repr(item.values)`` of every row, relation
by relation.  MozillaBugs, D_sc and D_ex were recorded when descriptions
were still drawn one character at a time with ``rng.choices``; D_sh and
the segment-placed D_ex of Fig. 9 were recorded later, on unchanged
generators.  A change to how anything is drawn must fail
here on purpose instead of shifting the ledger's numbers quietly.  The
digests hold on every CPython the suite runs under (3.10–3.12).
"""

import hashlib

import pytest

from repro.datasets import generate_dex, generate_dsc, generate_dsh, generate_mozilla


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
    # Fig. 9's inputs: ongoing points placed in one history segment.
    "dex_segment": (
        lambda: (generate_dex(2000, segment=2),),
        "7a65a67f61c38de45bdb4c727fceb73fa15df72412ba075abffee927602863ff",
    ),
    "dsh": (
        lambda: (generate_dsh(2000),),
        "acc2dc072b18fc5eee2b872e9f9606b28de7fc5bc4e86f8d81d8f4de56042800",
    ),
    "dsh_segment": (
        lambda: (generate_dsh(2000, segment=2),),
        "88c75bd95a7a4e166bacf32c46b3bb0dd5565405b3224053c48e5180f81d2abc",
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
