"""Unit tests for the synthetic MozillaBugs generator (Table III, Fig. 7)."""

import random
from unittest import mock

from repro.datasets import generate_mozilla
from repro.datasets import mozilla as mozilla_module


class TestCharacteristics:
    def test_cardinalities_scale_with_bug_count(self):
        dataset = generate_mozilla(1_000)
        assert len(dataset.bug_info) == 1_000
        # ~1.48 assignments and ~1.10 severities per bug.
        assert 1.3 <= len(dataset.bug_assignment) / 1_000 <= 1.65
        assert 1.0 <= len(dataset.bug_severity) / 1_000 <= 1.25

    def test_ongoing_share(self):
        dataset = generate_mozilla(1_000)
        assert abs(dataset.ongoing_fraction() - 0.15) < 0.01

    def test_ongoing_intervals_are_expanding(self):
        dataset = generate_mozilla(500)
        for item in dataset.bug_info:
            interval = item.values[5]
            if not interval.is_fixed:
                assert interval.is_expanding
                assert interval.end.is_now

    def test_start_point_skew(self):
        """Fig. 7: ~half of the ongoing starts lie in the last two years."""
        dataset = generate_mozilla(4_000)
        starts = [
            item.values[5].start.a
            for item in dataset.bug_info
            if not item.values[5].is_fixed
        ]
        recent = sum(
            1 for s in starts if s >= mozilla_module.HISTORY_END - 2 * 365
        )
        assert 0.4 <= recent / len(starts) <= 0.6

    def test_valid_times_lie_in_history(self):
        dataset = generate_mozilla(500)
        for item in dataset.bug_info:
            interval = item.values[5]
            assert interval.start.a >= mozilla_module.HISTORY_START
            if interval.is_fixed:
                assert interval.end.b <= mozilla_module.HISTORY_END

    def test_foreign_keys_resolve(self):
        dataset = generate_mozilla(300)
        bug_ids = {item.values[0] for item in dataset.bug_info}
        assert all(t.values[0] in bug_ids for t in dataset.bug_assignment)
        assert all(t.values[0] in bug_ids for t in dataset.bug_severity)

    def test_sub_intervals_stay_within_bug_valid_time(self):
        dataset = generate_mozilla(300)
        bug_vt = {t.values[0]: t.values[5] for t in dataset.bug_info}
        for item in dataset.bug_assignment:
            parent = bug_vt[item.values[0]]
            child = item.values[2]
            assert child.start.a >= parent.start.a
            assert child.end.b <= parent.end.b


class TestBulkDraw:
    """``_letters`` is ``rng.choices`` over the alphabet, drawn in bulk.

    It relies on two CPython details: ``choices`` picks
    ``population[floor(random() * n)]``, and ``getrandbits`` fills its
    result with 32-bit words least significant first.
    """

    def test_letters_equal_choices_and_leave_the_same_state(self):
        lengths = (1, 40, 850, mozilla_module._LANES + 1)
        for seed in range(20):
            for length in lengths:
                bulk, reference = random.Random(seed), random.Random(seed)
                expected = reference.choices(mozilla_module._ALPHABET, k=length)
                assert mozilla_module._letters(bulk, length) == "".join(expected)
                assert bulk.random() == reference.random()

    def test_a_lane_that_rounds_up_takes_the_float_formula(self):
        """Mantissas just below each ``j · 2**53 / 31``: where the double
        ``random() * 31`` rounds up to ``j``, the letters come from the float
        formula and agree with it."""
        alphabet = mozilla_module._ALPHABET
        n = len(alphabet)
        lanes = []
        for j in range(1, n):
            ceiling = -(-j * 2**53 // n)
            for m in range(ceiling - 40, ceiling):
                # The two words random() would read for m, with junk in the
                # bits it drops.
                w0 = (m >> 26) << 5 | 0b10101
                w1 = (m & (2**26 - 1)) << 6 | 0b101010
                lanes.append((m, w0 | w1 << 32))
        rounded_up = 0
        for m, lane in lanes:
            with mock.patch.object(
                mozilla_module, "_spell_exactly", wraps=mozilla_module._spell_exactly
            ) as exact:
                assert mozilla_module._spell(lane, 1) == alphabet[int((m * 2**-53) * n)]
            if int((m * 2**-53) * n) != m * n >> 53:
                rounded_up += 1
                assert exact.called
        assert rounded_up > 0
        # One such lane among many sends the whole draw down the float path.
        words = sum(lane << 64 * i for i, (_, lane) in enumerate(lanes))
        assert mozilla_module._spell(words, len(lanes)) == "".join(
            alphabet[int((m * 2**-53) * n)] for m, _ in lanes
        )


class TestScaling:
    def test_different_seeds_differ(self):
        assert generate_mozilla(200, seed=1).bug_info != generate_mozilla(
            200, seed=2
        ).bug_info

    def test_slice_recent_raises_ongoing_share(self):
        """Grow-backward scaling (Section IX-A): ongoing tuples cluster at
        the end of the history, so a recent slice keeps most of them and
        the ongoing share rises as the data shrinks."""
        full = generate_mozilla(2_000)
        ongoing_full = sum(
            1 for t in full.bug_info if not t.values[5].is_fixed
        )
        half = full.slice_recent(1_000)
        ongoing_half = sum(
            1 for t in half.bug_info if not t.values[5].is_fixed
        )
        assert len(half.bug_info) == 1_000
        assert ongoing_half >= 0.75 * ongoing_full
        assert half.ongoing_fraction() > full.ongoing_fraction()

    def test_slice_keeps_matching_children(self):
        full = generate_mozilla(500)
        sliced = full.slice_recent(200)
        kept = {t.values[0] for t in sliced.bug_info}
        assert {t.values[0] for t in sliced.bug_assignment} <= kept
        assert {t.values[0] for t in sliced.bug_severity} <= kept


class TestDatabaseExport:
    def test_as_database_registers_three_tables(self):
        database = generate_mozilla(100).as_database()
        assert set(database.tables()) == {"A", "B", "S"}
        assert len(database.relation("B")) == 100
