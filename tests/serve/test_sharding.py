"""Stable shard routing of plan fingerprints."""

from repro.serve.sharding import shard_index


class TestShardIndex:
    def test_deterministic_and_in_range(self):
        keys = [f"fingerprint-{i:04x}" for i in range(256)]
        for shards in (1, 2, 4, 7):
            owners = [shard_index(key, shards) for key in keys]
            assert owners == [shard_index(key, shards) for key in keys]
            assert all(0 <= owner < shards for owner in owners)

    def test_single_shard_short_circuits(self):
        assert shard_index("anything", 1) == 0

    def test_distribution_is_roughly_uniform(self):
        # SHA-256-hex-like keys spread evenly: no shard may end up with
        # more than twice its fair share over 4 shards and 400 keys.
        import hashlib

        keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(400)]
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[shard_index(key, 4)] += 1
        assert max(counts) <= 200
