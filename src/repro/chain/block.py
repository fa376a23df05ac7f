"""Blocks and block headers.

A :class:`Block` is a header plus an ordered list of transactions.  The
header commits to the transaction list through a Merkle root and to the
chain position through the parent hash, which is what the ledger layer
validates when appending.

Blocks are generic over the transaction type so the same structure hosts
UTXO transactions, account transactions, and stubs in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Generic, Iterator, Sequence, TypeVar

from repro.chain.hashing import hash_fields
from repro.chain.merkle import merkle_root
from repro.chain.transaction import BaseTransaction

TxT = TypeVar("TxT", bound=BaseTransaction)

GENESIS_PARENT = "0" * 64


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header.

    Attributes:
        height: position in the chain, genesis is 0.
        parent_hash: hash of the previous block header (GENESIS_PARENT for
            the genesis block).
        merkle_root: commitment to the ordered transaction list.
        timestamp: UNIX seconds; strictly increasing along a chain.
        difficulty: PoW difficulty target the block was mined at.
        nonce: PoW solution counter (simulated).
        miner: address or identifier of the block producer.
        extra: free-form annotation (e.g. shard id for sharded chains).
    """

    height: int
    parent_hash: str
    merkle_root: str
    timestamp: float
    difficulty: float = 1.0
    nonce: int = 0
    miner: str = ""
    extra: str = ""

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("height must be non-negative")
        if self.difficulty <= 0:
            raise ValueError("difficulty must be positive")

    @cached_property
    def block_hash(self) -> str:
        """Hash of all header fields; identifies the block.

        Computed on first access and kept on the instance (the fields
        are frozen, so it cannot go stale).
        """
        return hash_fields(
            self.height,
            self.parent_hash,
            self.merkle_root,
            self.timestamp,
            self.difficulty,
            self.nonce,
            self.miner,
            self.extra,
        )

    def __reduce__(self):
        # Fields only: a header that arrives from elsewhere is rebuilt
        # through ``__init__`` and hashes itself; the sender's memo
        # never travels.
        return (
            BlockHeader,
            tuple(getattr(self, name) for name in self.__dataclass_fields__),
        )


@dataclass(frozen=True)
class Block(Generic[TxT]):
    """A block: header plus ordered transactions.

    The transaction order is semantically meaningful: sequential execution
    (the baseline the paper speeds up) processes transactions in exactly
    this order.
    """

    header: BlockHeader
    transactions: tuple[TxT, ...] = field(default_factory=tuple)

    @property
    def block_hash(self) -> str:
        return self.header.block_hash

    @property
    def height(self) -> int:
        return self.header.height

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[TxT]:
        return iter(self.transactions)

    def non_coinbase(self) -> tuple[TxT, ...]:
        """Transactions excluding coinbases.

        The paper's TDG construction ignores coinbase transactions
        (§III-A1), so metric code operates on this view.
        """
        return tuple(tx for tx in self.transactions if not tx.is_coinbase)

    def verify_merkle(self) -> bool:
        """Check that the header's Merkle root matches the transactions."""
        if not self.transactions:
            return False
        return self.header.merkle_root == merkle_root(
            [tx.tx_hash for tx in self.transactions]
        )


def build_block(
    transactions: Sequence[TxT],
    *,
    height: int,
    parent_hash: str,
    timestamp: float,
    difficulty: float = 1.0,
    nonce: int = 0,
    miner: str = "",
    extra: str = "",
) -> Block[TxT]:
    """Assemble a block, computing the Merkle commitment.

    Raises:
        ValueError: if *transactions* is empty — every block in the
            substrates carries at least a coinbase transaction.
    """
    if not transactions:
        raise ValueError("a block must contain at least one transaction")
    header = BlockHeader(
        height=height,
        parent_hash=parent_hash,
        merkle_root=merkle_root([tx.tx_hash for tx in transactions]),
        timestamp=timestamp,
        difficulty=difficulty,
        nonce=nonce,
        miner=miner,
        extra=extra,
    )
    return Block(header=header, transactions=tuple(transactions))
