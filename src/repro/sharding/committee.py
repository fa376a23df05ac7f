"""Committee formation and shard dispatch (Zilliqa-style).

Zilliqa "employs network sharding which assigns nodes to small
committees" where "transactions are processed independently at different
committees that are selected based on the senders' addresses" (§II-B).
This module implements both halves:

* :class:`CommitteeAssignment` — nodes run PoW to join a committee; the
  winners of the hardest puzzles form the DS (directory service)
  committee, the rest are dealt into shard committees round-robin by
  PoW solution order, mirroring Zilliqa's join protocol;
* :func:`shard_for_address` — the static sender-address -> shard map
  used to dispatch transactions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.chain.errors import ShardingError


def shard_for_address(address: str, num_shards: int) -> int:
    """Deterministic shard id for *address*.

    Uses the trailing hex digits of the address, like Zilliqa's
    assignment on the last bits of the sender address.
    """
    if num_shards < 1:
        raise ShardingError("num_shards must be positive")
    stripped = address[2:] if address.startswith("0x") else address
    try:
        value = int(stripped[-8:], 16)
    except ValueError as exc:
        raise ShardingError(f"address {address!r} is not hex") from exc
    shard = value % num_shards
    if obs.enabled():
        obs.counter("sharding.dispatch", shard=shard).inc()
    return shard


@dataclass(frozen=True)
class NodeIdentity:
    """A network node eligible to join committees."""

    node_id: str
    hashpower: float = 1.0

    def __post_init__(self) -> None:
        if self.hashpower <= 0:
            raise ValueError("hashpower must be positive")


@dataclass
class CommitteeAssignment:
    """PoW-based assignment of nodes into DS + shard committees.

    Args:
        num_shards: number of shard committees.
        shard_size: replicas per shard committee.
        ds_size: replicas in the DS committee.
        rng: injectable randomness for the simulated PoW race.
    """

    num_shards: int
    shard_size: int
    ds_size: int
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ShardingError("need at least one shard")
        if self.shard_size < 4 or self.ds_size < 4:
            raise ShardingError("committees need >= 4 replicas for PBFT")

    @property
    def nodes_required(self) -> int:
        return self.ds_size + self.num_shards * self.shard_size

    def assign(
        self, nodes: list[NodeIdentity]
    ) -> tuple[list[NodeIdentity], list[list[NodeIdentity]]]:
        """Run the simulated PoW race and deal nodes into committees.

        Each node's PoW finishing time is exponential with rate equal to
        its hashpower; the earliest finishers claim DS seats, the next
        fill the shards round-robin.

        Returns:
            (ds_committee, shard_committees)

        Raises:
            ShardingError: when fewer nodes than seats are supplied.
        """
        if len(nodes) < self.nodes_required:
            raise ShardingError(
                f"{self.nodes_required} nodes required, got {len(nodes)}"
            )
        finish_times = {
            node.node_id: self.rng.expovariate(node.hashpower)
            for node in nodes
        }
        ranked = sorted(nodes, key=lambda node: finish_times[node.node_id])
        ds_committee = ranked[: self.ds_size]
        shard_committees: list[list[NodeIdentity]] = [
            [] for _ in range(self.num_shards)
        ]
        pool = ranked[self.ds_size : self.nodes_required]
        for index, node in enumerate(pool):
            shard_committees[index % self.num_shards].append(node)
        return ds_committee, shard_committees
