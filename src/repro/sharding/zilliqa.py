"""Zilliqa-style sharded block production.

Transactions are dispatched to shard committees by sender address; each
shard builds a *microblock* over its share of the traffic; the DS
committee aggregates microblocks into the final transaction block.
Cross-shard transactions are rejected, reproducing the limitation the
paper highlights ("A major limitation of Zilliqa is that it does not
support cross-shard transactions", §II-B): a transaction is accepted
only when its *receiver* either shares the sender's shard or is a plain
(non-contract) account, in which case the state update is applied during
the inter-committee state synchronisation the paper mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.account.transaction import AccountTransaction
from repro.chain.errors import ShardingError
from repro.sharding.committee import shard_for_address


@dataclass(frozen=True)
class MicroBlock:
    """One shard committee's slice of a transaction block."""

    shard_id: int
    transactions: tuple[AccountTransaction, ...]

    def __len__(self) -> int:
        return len(self.transactions)


@dataclass(frozen=True)
class TxBlock:
    """The DS committee's aggregate of all microblocks for one epoch."""

    epoch: int
    microblocks: tuple[MicroBlock, ...]

    def __len__(self) -> int:
        return sum(len(microblock) for microblock in self.microblocks)


@dataclass
class ShardedChainBuilder:
    """Dispatches transactions to shards and assembles TxBlocks.

    Args:
        num_shards: number of shard committees.
        contract_addresses: addresses hosting contracts; used for the
            cross-shard admissibility check.
    """

    num_shards: int
    contract_addresses: set[str] = field(default_factory=set)
    rejected: list[AccountTransaction] = field(default_factory=list)
    _epoch: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ShardingError("need at least one shard")

    def shard_of(self, address: str) -> int:
        return shard_for_address(address, self.num_shards)

    def is_cross_shard(self, tx: AccountTransaction) -> bool:
        """A contract call whose contract lives on a different shard."""
        if tx.is_coinbase:
            return False
        if tx.receiver not in self.contract_addresses:
            return False
        return self.shard_of(tx.sender) != self.shard_of(tx.receiver)

    def build_tx_block(
        self, transactions: list[AccountTransaction]
    ) -> TxBlock:
        """Dispatch *transactions* and aggregate the epoch's TxBlock.

        Cross-shard contract calls are recorded in ``rejected`` and
        dropped, as Zilliqa's protocol would never admit them.
        """
        buckets: list[list[AccountTransaction]] = [
            [] for _ in range(self.num_shards)
        ]
        for tx in transactions:
            if self.is_cross_shard(tx):
                self.rejected.append(tx)
                continue
            buckets[self.shard_of(tx.sender)].append(tx)
        microblocks = tuple(
            MicroBlock(shard_id=shard_id, transactions=tuple(bucket))
            for shard_id, bucket in enumerate(buckets)
        )
        block = TxBlock(epoch=self._epoch, microblocks=microblocks)
        self._epoch += 1
        return block
