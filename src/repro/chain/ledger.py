"""The ledger: an append-only, link-validated sequence of blocks.

This is the "replicated, tamper-evident log" of §II-A, reduced to the
single-replica view the analysis needs.  The ledger enforces the three
structural invariants every block append must satisfy:

1. the new block's height is exactly one past the tip;
2. its parent hash equals the tip's block hash (genesis links to the
   all-zero hash);
3. its timestamp is not earlier than the tip's.

Semantic validation (UTXO availability, account nonces, gas) is the
responsibility of the per-model state machines, which the chain builders
in :mod:`repro.workload` wire in.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from repro.chain.block import GENESIS_PARENT, Block
from repro.chain.errors import LinkError, ValidationError
from repro.chain.transaction import BaseTransaction

TxT = TypeVar("TxT", bound=BaseTransaction)


class Ledger(Generic[TxT]):
    """An in-memory chain of blocks with O(1) lookup by height and hash."""

    def __init__(self) -> None:
        self._blocks: list[Block[TxT]] = []
        self._by_hash: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block[TxT]]:
        return iter(self._blocks)

    @property
    def tip(self) -> Block[TxT] | None:
        """The most recent block, or None for an empty ledger."""
        return self._blocks[-1] if self._blocks else None

    def append(self, block: Block[TxT]) -> None:
        """Append *block*, enforcing the structural invariants.

        Raises:
            LinkError: when height or parent hash do not continue the tip.
            ValidationError: when the Merkle root or timestamp is invalid.
        """
        tip = self.tip
        if tip is None:
            if block.height != 0:
                raise LinkError(
                    f"genesis block must have height 0, got {block.height}"
                )
            if block.header.parent_hash != GENESIS_PARENT:
                raise LinkError("genesis block must link to the zero hash")
        else:
            if block.height != tip.height + 1:
                raise LinkError(
                    f"expected height {tip.height + 1}, got {block.height}"
                )
            if block.header.parent_hash != tip.block_hash:
                raise LinkError(
                    "parent hash does not match the current tip"
                )
            if block.header.timestamp < tip.header.timestamp:
                raise ValidationError("block timestamp precedes its parent")
        if not block.verify_merkle():
            raise ValidationError("Merkle root does not match transactions")
        self._by_hash[block.block_hash] = len(self._blocks)
        self._blocks.append(block)

    def block_at(self, height: int) -> Block[TxT]:
        """Return the block at *height* (negative indices not allowed)."""
        if not 0 <= height < len(self._blocks):
            raise IndexError(f"no block at height {height}")
        return self._blocks[height]

    def verify_links(self) -> bool:
        """Re-validate the whole hash chain; True when intact.

        Used by tests to demonstrate tamper evidence: a ledger rebuilt
        with any block modified fails either here or at append time.
        """
        previous = GENESIS_PARENT
        for expected_height, block in enumerate(self._blocks):
            if block.height != expected_height:
                return False
            if block.header.parent_hash != previous:
                return False
            if not block.verify_merkle():
                return False
            previous = block.block_hash
        return True

    def total_transactions(self, *, include_coinbase: bool = True) -> int:
        """Count transactions across all blocks."""
        if include_coinbase:
            return sum(len(block) for block in self._blocks)
        return sum(len(block.non_coinbase()) for block in self._blocks)
