"""Synthetic MozillaBugs data set (Table III, Fig. 7 of the paper).

The real MozillaBugs export [32] records ~20 years of Mozilla bug history in
three relations.  The export itself is not shipped with this repository, so
this module generates a seeded synthetic twin that matches every published
characteristic the experiments depend on:

==============================  ====================================
characteristic                  value in the paper (full scale)
==============================  ====================================
BugInfo cardinality             394,878   (15 % ongoing)
BugAssignment cardinality       582,668   (11 % ongoing)  ≈ 1.48 / bug
BugSeverity cardinality         434,078   (14 % ongoing)  ≈ 1.10 / bug
history length                  20 years
ongoing interval shape          ``[a, now)``
ongoing start-point skew        50 % within the last two years (Fig. 7)
BugInfo avg tuple size          ≈ 968 B (long textual descriptions)
BugAssignment avg tuple size    ≈ 90 B
BugSeverity avg tuple size      ≈ 86 B
==============================  ====================================

The default scale is laptop-sized (``DEFAULT_BUGS`` bugs); every experiment
reports the scale it ran at.  Scaling for the "growing input" experiments
follows the paper: *the history grows backward* — smaller data sets are the
most recent slice of the full one, so the absolute number of ongoing tuples
stays constant and their percentage shrinks as the data grows
(Section IX-A).

The data are a function of ``(n_bugs, seed, ongoing_fraction)`` alone and
byte-stable across releases and interpreters: the benchmark ledger and the
experiments compare runs over them.  ``tests/datasets/test_digests.py``
pins a sha256 digest of every row, so a change to how anything is drawn,
even one that keeps the distributions, fails there instead of shifting the
ledger quietly.  Descriptions are drawn in bulk (:func:`_letters`), equal
byte for byte to ``rng.choices`` and leaving the generator in its state.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.interval import OngoingInterval, fixed_interval, until_now
from repro.core.timeline import TimePoint
from repro.engine.database import Database
from repro.relational.relation import OngoingRelation
from repro.relational.schema import Schema

__all__ = ["MozillaBugs", "generate_mozilla", "DEFAULT_BUGS", "HISTORY_DAYS"]

#: Default number of bugs at "full" scale for this reproduction.
DEFAULT_BUGS = 20_000

#: 20 years of history, in days.
HISTORY_DAYS = 20 * 365

#: History runs over ticks [HISTORY_START, HISTORY_END).
HISTORY_END: TimePoint = 0
HISTORY_START: TimePoint = HISTORY_END - HISTORY_DAYS

_PRODUCTS = [f"product-{i:02d}" for i in range(12)]
_COMPONENTS = [f"component-{i:02d}" for i in range(8)]
_SYSTEMS = ["Linux", "Windows", "macOS", "FreeBSD", "Android", "Solaris"]
_SEVERITIES = [
    "blocker",
    "critical",
    "major",
    "normal",
    "minor",
    "trivial",
    "enhancement",
]

BUG_INFO_SCHEMA = Schema.of(
    "ID", "Product", "Component", "OS", "Descr", ("VT", "interval")
)
BUG_ASSIGNMENT_SCHEMA = Schema.of("ID", "Email", ("VT", "interval"))
BUG_SEVERITY_SCHEMA = Schema.of("ID", "Severity", ("VT", "interval"))


@dataclass
class MozillaBugs:
    """The three relations of the MozillaBugs data set."""

    bug_info: OngoingRelation
    bug_assignment: OngoingRelation
    bug_severity: OngoingRelation

    def as_database(self) -> Database:
        """Load the three relations into a fresh engine database (B, A, S)."""
        database = Database("mozilla")
        database.register("B", self.bug_info)
        database.register("A", self.bug_assignment)
        database.register("S", self.bug_severity)
        return database

    def slice_recent(self, n_bugs: int) -> "MozillaBugs":
        """The *n_bugs* most recent bugs — the grow-backward scaling.

        Matching assignment and severity rows are kept (the paper: "use all
        records in the other two relations that match the bug ids in
        BugInfo").
        """
        by_start = sorted(
            self.bug_info.tuples,
            key=lambda item: item.values[5].start.a,
            reverse=True,
        )
        kept = by_start[:n_bugs]
        kept_ids = {item.values[0] for item in kept}
        return MozillaBugs(
            bug_info=OngoingRelation(BUG_INFO_SCHEMA, kept),
            bug_assignment=OngoingRelation(
                BUG_ASSIGNMENT_SCHEMA,
                (t for t in self.bug_assignment if t.values[0] in kept_ids),
            ),
            bug_severity=OngoingRelation(
                BUG_SEVERITY_SCHEMA,
                (t for t in self.bug_severity if t.values[0] in kept_ids),
            ),
        )

    def ongoing_fraction(self) -> float:
        """Share of BugInfo tuples with an ongoing valid time."""
        total = len(self.bug_info)
        if total == 0:
            return 0.0
        ongoing = sum(
            1 for item in self.bug_info if not item.values[5].is_fixed
        )
        return ongoing / total


def _skewed_ongoing_start(rng: random.Random) -> TimePoint:
    """Start point of an ongoing bug, matching Fig. 7's cumulative curve.

    50 % of ongoing intervals start within the last two years, 30 % within
    years 2–6 before the export, the remaining 20 % earlier.
    """
    dice = rng.random()
    two_years = 2 * 365
    if dice < 0.5:
        return HISTORY_END - rng.randrange(1, two_years)
    if dice < 0.8:
        return HISTORY_END - rng.randrange(two_years, 6 * 365)
    return HISTORY_END - rng.randrange(6 * 365, HISTORY_DAYS)


#: The letters of a description; ``rng.choices`` picks ``_ALPHABET[j]``.
_ALPHABET = string.ascii_lowercase + "     "

#: Byte ``j`` → ``_ALPHABET[j]``.
_SPELL = bytes.maketrans(bytes(range(len(_ALPHABET))), _ALPHABET.encode("ascii"))

#: Per 64-bit lane ``w0 | w1 << 32``: bits 5–31 (``w0 >> 5``) and bits
#: 38–63 (``w1 >> 6``), the two halves of ``random()``'s 53-bit mantissa.
_HIGH_LANE = b"\xe0\xff\xff\xff\x00\x00\x00\x00"
_LOW_LANE = b"\x00\x00\x00\x00\xc0\xff\xff\xff"

#: Lanes the precomputed masks cover; a longer draw builds its own.
_LANES = 2048
_HIGH = int.from_bytes(_HIGH_LANE * _LANES, "little")
_LOW = int.from_bytes(_LOW_LANE * _LANES, "little")


def _letters(rng: random.Random, length: int) -> str:
    """``"".join(rng.choices(_ALPHABET, k=length))``, drawn in bulk.

    Byte-identical to it, and leaves *rng* in the same state.
    """
    return _spell(rng.getrandbits(64 * length), length)


def _spell(words: int, length: int) -> str:
    """The letters of the *length* ``random()`` calls that read *words*."""
    # random() is m / 2**53 with m = (w0 >> 5) << 26 | w1 >> 6 from its two
    # words; getrandbits(64 k) holds the same 2k words, least significant
    # first, so 64-bit lane i is call i.  The masks make each lane its m, and
    # m * 248 < 2**61 carries into no neighbour: lane byte 7 is then
    # floor(m * 31 / 2**53).  choices' double random() * 31 can round up to
    # the next integer only if lane bytes 1-6 are all 0xFF; byte 0 (≡ 0 mod
    # 8) and byte 7 (≤ 30) never are, so six 0xFF bytes flag such a lane.
    if length <= _LANES:
        high, low = _HIGH, _LOW
    else:
        high = int.from_bytes(_HIGH_LANE * length, "little")
        low = int.from_bytes(_LOW_LANE * length, "little")
    mantissas = (words & high) << 21 | (words & low) >> 38
    lanes = (mantissas * (8 * len(_ALPHABET))).to_bytes(8 * length, "little")
    if b"\xff" * 6 in lanes:
        return _spell_exactly(mantissas, length)
    return lanes[7::8].translate(_SPELL).decode("ascii")


def _spell_exactly(mantissas: int, length: int) -> str:
    """The letters of the 53-bit lanes *mantissas*, by ``choices``' formula."""
    n = float(len(_ALPHABET))
    return "".join(
        _ALPHABET[int(((mantissas >> 64 * i) & (2**53 - 1)) * 2**-53 * n)]
        for i in range(length)
    )


def _description(rng: random.Random) -> str:
    """A bug description sized so BugInfo tuples average ≈ 968 B."""
    return _letters(rng, max(40, int(rng.gauss(850, 220))))


def _split_interval(
    rng: random.Random, interval: OngoingInterval, pieces: int
) -> List[OngoingInterval]:
    """Split a bug's valid time into sub-intervals for assignments/severity.

    The last piece inherits the (possibly ongoing) end point of the bug —
    "the last assignment and last severity of bugs with ongoing valid times
    have ongoing valid times as well".
    """
    start = interval.start.a
    end_envelope = interval.end.b if interval.is_fixed else HISTORY_END
    if pieces == 1 or end_envelope - start < 2 * pieces:
        return [interval]
    cuts = sorted(rng.sample(range(start + 1, end_envelope), pieces - 1))
    bounds = [start, *cuts]
    result: List[OngoingInterval] = []
    for index in range(pieces - 1):
        result.append(fixed_interval(bounds[index], bounds[index + 1]))
    result.append(OngoingInterval(bounds[-1], interval.end))
    return result


def generate_mozilla(
    n_bugs: int = DEFAULT_BUGS,
    *,
    seed: int = 2020,
    ongoing_fraction: float = 0.15,
) -> MozillaBugs:
    """Generate the synthetic MozillaBugs data set.

    ``n_bugs`` scales the whole data set; ratios (ongoing share, rows per
    bug) and distributions stay fixed, so shapes are comparable to the
    paper's at any scale.
    """
    rng = random.Random(seed)
    n_ongoing = round(n_bugs * ongoing_fraction)

    info_rows: List[Tuple[object, ...]] = []
    assignment_rows: List[Tuple[object, ...]] = []
    severity_rows: List[Tuple[object, ...]] = []

    for bug_id in range(n_bugs):
        is_ongoing = bug_id < n_ongoing
        if is_ongoing:
            start = _skewed_ongoing_start(rng)
            valid_time = until_now(start)
        else:
            start = HISTORY_START + rng.randrange(HISTORY_DAYS - 1)
            duration = max(1, int(rng.expovariate(1.0 / 90.0)))
            end = min(start + duration, HISTORY_END)
            if end <= start:
                end = start + 1
            valid_time = fixed_interval(start, end)
        info_rows.append(
            (
                bug_id,
                rng.choice(_PRODUCTS),
                rng.choice(_COMPONENTS),
                rng.choice(_SYSTEMS),
                _description(rng),
                valid_time,
            )
        )
        # ~1.48 assignments per bug.
        n_assignments = 1 + (1 if rng.random() < 0.48 else 0)
        for piece in _split_interval(rng, valid_time, n_assignments):
            assignment_rows.append(
                (bug_id, f"dev{rng.randrange(2000):04d}@mozilla.org", piece)
            )
        # ~1.10 severity records per bug.
        n_severities = 1 + (1 if rng.random() < 0.10 else 0)
        for piece in _split_interval(rng, valid_time, n_severities):
            severity_rows.append((bug_id, rng.choice(_SEVERITIES), piece))

    return MozillaBugs(
        bug_info=OngoingRelation.from_rows(BUG_INFO_SCHEMA, info_rows),
        bug_assignment=OngoingRelation.from_rows(
            BUG_ASSIGNMENT_SCHEMA, assignment_rows
        ),
        bug_severity=OngoingRelation.from_rows(BUG_SEVERITY_SCHEMA, severity_rows),
    )
