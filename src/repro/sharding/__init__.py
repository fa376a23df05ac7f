"""Zilliqa-style network sharding substrate."""

from repro.sharding.epochs import EpochCosts, shard_sweep
from repro.sharding.committee import (
    CommitteeAssignment,
    NodeIdentity,
    shard_for_address,
)
from repro.sharding.zilliqa import MicroBlock, ShardedChainBuilder, TxBlock

__all__ = [
    "EpochCosts",
    "shard_sweep",
    "CommitteeAssignment",
    "NodeIdentity",
    "shard_for_address",
    "MicroBlock",
    "ShardedChainBuilder",
    "TxBlock",
]
