"""Generic blockchain substrate: blocks, Merkle trees, ledger.

This package is data-model agnostic; the UTXO and account substrates
build on it.
"""

from repro.chain.block import GENESIS_PARENT, Block, BlockHeader, build_block
from repro.chain.errors import (
    ChainError,
    DatasetError,
    DoubleSpendError,
    InsufficientBalanceError,
    LinkError,
    NonceError,
    OutOfGasError,
    ShardingError,
    ValidationError,
    ValueConservationError,
    VMError,
)
from repro.chain.forkchoice import BlockTree, ForkChoice, Reorg
from repro.chain.hashing import (
    address_from_seed,
    hash_concat,
    hash_fields,
    hash_parts,
    sha256_hex,
    short_hash,
)
from repro.chain.ledger import Ledger
from repro.chain.merkle import MerkleProof, MerkleTree, merkle_root
from repro.chain.transaction import BaseTransaction, TransactionStub

__all__ = [
    "GENESIS_PARENT",
    "Block",
    "BlockHeader",
    "build_block",
    "ChainError",
    "DatasetError",
    "DoubleSpendError",
    "InsufficientBalanceError",
    "LinkError",
    "NonceError",
    "OutOfGasError",
    "ShardingError",
    "ValidationError",
    "ValueConservationError",
    "VMError",
    "BlockTree",
    "ForkChoice",
    "Reorg",
    "address_from_seed",
    "hash_concat",
    "hash_fields",
    "hash_parts",
    "sha256_hex",
    "short_hash",
    "Ledger",
    "MerkleProof",
    "MerkleTree",
    "merkle_root",
    "BaseTransaction",
    "TransactionStub",
]
