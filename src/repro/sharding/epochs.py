"""Epoch timing for the sharded chain: consensus, execution, state sync.

Zilliqa "needs to wait for state synchronization between committees
before transactions are confirmed" (§II-B).  An epoch's wall time is
therefore three parts:

1. per-shard PBFT consensus on the microblock (parallel across shards);
2. per-shard transaction execution (parallel across shards — this is
   where the paper's speed-ups act *within* each shard);
3. DS aggregation plus global state synchronisation, proportional to
   the state delta every committee must import from every other.

:func:`shard_sweep` composes these and shows the characteristic
plateau: adding shards divides execution but the sync term grows with
the cross-shard state volume, so throughput saturates — which is
exactly why reducing execution cost *within* a committee (§II-C)
remains important in sharded designs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.consensus.pbft import PBFTCommittee


@dataclass(frozen=True)
class EpochCosts:
    """Cost model parameters for one sharded epoch.

    Attributes:
        execution_time_per_tx: seconds to execute one transaction.
        sync_time_per_tx: seconds of state-sync per transaction whose
            effects must be imported by each *other* committee.
        shard_committee_size: replicas per shard (PBFT round cost).
        execution_speedup: intra-committee execution speed-up (the
            paper's R) applied to the execution term.
    """

    execution_time_per_tx: float = 0.002
    sync_time_per_tx: float = 0.0004
    shard_committee_size: int = 600
    execution_speedup: float = 1.0

    def __post_init__(self) -> None:
        if self.execution_time_per_tx < 0 or self.sync_time_per_tx < 0:
            raise ValueError("per-tx costs must be non-negative")
        if self.shard_committee_size < 4:
            raise ValueError("committee size must be >= 4")
        if self.execution_speedup <= 0:
            raise ValueError("execution_speedup must be positive")


def shard_sweep(
    *,
    total_txs: int,
    shard_counts: list[int],
    costs: EpochCosts,
    seed: int = 0,
) -> list[tuple[int, float, float]]:
    """(shards, epoch time, throughput) for a fixed transaction volume.

    Transactions spread evenly across shards (the best case); the sync
    term is what prevents unbounded scaling.
    """
    if total_txs < 0:
        raise ValueError("total_txs must be non-negative")
    results = []
    for num_shards in shard_counts:
        if num_shards < 1:
            raise ValueError("shard counts must be positive")
        rng = random.Random(seed)
        committee = PBFTCommittee(
            size=costs.shard_committee_size, rng=rng
        )
        consensus = committee.run_round().latency
        per_shard = total_txs / num_shards
        execution = (
            per_shard * costs.execution_time_per_tx / costs.execution_speedup
        )
        sync = total_txs * costs.sync_time_per_tx
        total = consensus + execution + sync
        throughput = total_txs / total if total > 0 else 0.0
        results.append((num_shards, total, throughput))
    return results
