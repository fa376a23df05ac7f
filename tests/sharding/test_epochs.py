"""Tests for sharded epoch timing and the shard-scaling plateau."""

from __future__ import annotations

import pytest

from repro.sharding.epochs import EpochCosts, shard_sweep


class TestEpochCosts:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpochCosts(execution_time_per_tx=-1)
        with pytest.raises(ValueError):
            EpochCosts(shard_committee_size=2)
        with pytest.raises(ValueError):
            EpochCosts(execution_speedup=0)


class TestShardSweep:
    def test_throughput_saturates(self):
        """More shards divide execution but not sync: a plateau (§II-B)."""
        results = shard_sweep(
            total_txs=20_000,
            shard_counts=[1, 2, 4, 8, 16, 64],
            costs=EpochCosts(),
        )
        throughputs = [tp for _shards, _time, tp in results]
        # Throughput grows early...
        assert throughputs[1] > throughputs[0]
        assert throughputs[2] > throughputs[1]
        # ...but with diminishing returns: the last doubling gains far
        # less than the first one.
        first_gain = throughputs[1] / throughputs[0]
        last_gain = throughputs[-1] / throughputs[-2]
        assert last_gain < first_gain
        # And the plateau is bounded by the sync term.
        costs = EpochCosts()
        sync_bound = 1.0 / costs.sync_time_per_tx
        assert throughputs[-1] < sync_bound

    def test_execution_speedup_lifts_the_curve(self):
        base = shard_sweep(
            total_txs=20_000,
            shard_counts=[4],
            costs=EpochCosts(execution_speedup=1.0),
        )
        sped = shard_sweep(
            total_txs=20_000,
            shard_counts=[4],
            costs=EpochCosts(execution_speedup=6.0),
        )
        assert sped[0][2] > base[0][2]

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_sweep(
                total_txs=-1, shard_counts=[1], costs=EpochCosts()
            )
        with pytest.raises(ValueError):
            shard_sweep(
                total_txs=10, shard_counts=[0], costs=EpochCosts()
            )
