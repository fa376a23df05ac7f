"""Fork choice and chain reorganisation.

The plain :class:`repro.chain.ledger.Ledger` is append-only — fine for
analysis, but a real node tracks a block *tree* and follows the
heaviest chain, reorganising its state when a heavier fork overtakes
the current head.  This module supplies that machinery:

* :class:`BlockTree` — stores all received blocks, tracks cumulative
  work, and answers heaviest-tip queries (ties broken first-seen, as in
  Bitcoin);
* :class:`ForkChoice` — maintains the active chain against the tree and
  reports reorganisations as (rolled_back, applied) block lists, which
  a state machine can execute using the UTXO set's undo support.

Cumulative *work* is the sum of block difficulties, the PoW rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.chain.block import GENESIS_PARENT, Block
from repro.chain.errors import LinkError, ValidationError
from repro.chain.transaction import BaseTransaction

TxT = TypeVar("TxT", bound=BaseTransaction)


@dataclass(frozen=True)
class Reorg(Generic[TxT]):
    """A head change: blocks to roll back, blocks to apply, new head."""

    rolled_back: tuple[Block[TxT], ...]
    applied: tuple[Block[TxT], ...]
    new_head: str

    @property
    def depth(self) -> int:
        """Number of blocks undone (0 for a plain extension)."""
        return len(self.rolled_back)

    @property
    def is_extension(self) -> bool:
        return not self.rolled_back


class BlockTree(Generic[TxT]):
    """All known blocks, indexed by hash, with cumulative work."""

    def __init__(self) -> None:
        self._blocks: dict[str, Block[TxT]] = {}
        self._work: dict[str, float] = {}
        self._best: str | None = None

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def add(self, block: Block[TxT]) -> None:
        """Insert *block*; its parent must already be known (or genesis).

        Raises:
            LinkError: unknown parent or height mismatch.
            ValidationError: bad Merkle commitment or duplicate.
        """
        block_hash = block.block_hash
        if block_hash in self._blocks:
            raise ValidationError(f"duplicate block {block_hash[:12]}")
        if not block.verify_merkle():
            raise ValidationError("Merkle root does not match transactions")
        parent_hash = block.header.parent_hash
        if parent_hash == GENESIS_PARENT:
            if block.height != 0:
                raise LinkError("genesis block must have height 0")
            parent_work = 0.0
        else:
            parent = self._blocks.get(parent_hash)
            if parent is None:
                raise LinkError(f"unknown parent {parent_hash[:12]}")
            if block.height != parent.height + 1:
                raise LinkError(
                    f"height {block.height} does not follow parent "
                    f"height {parent.height}"
                )
            if block.header.timestamp < parent.header.timestamp:
                raise ValidationError("timestamp precedes parent")
            parent_work = self._work[parent_hash]
        self._blocks[block_hash] = block
        self._work[block_hash] = parent_work + block.header.difficulty
        # Strictly more work takes the tip, so among equals the first
        # seen keeps it.
        if self._best is None or (
            self._work[block_hash] > self._work[self._best]
        ):
            self._best = block_hash

    def block(self, block_hash: str) -> Block[TxT]:
        try:
            return self._blocks[block_hash]
        except KeyError:
            raise KeyError(f"unknown block {block_hash!r}") from None

    def work(self, block_hash: str) -> float:
        return self._work[block_hash]

    def heaviest_tip(self) -> str | None:
        """Hash of the most-work block; first-seen wins ties."""
        return self._best

    def parent(self, block: Block[TxT]) -> Block[TxT] | None:
        """The stored parent of *block*; None above genesis."""
        return self._blocks.get(block.header.parent_hash)

    def path_to_genesis(self, block_hash: str) -> list[Block[TxT]]:
        """Blocks from genesis to *block_hash*, inclusive, in order."""
        path: list[Block[TxT]] = []
        cursor = block_hash
        while cursor != GENESIS_PARENT:
            block = self.block(cursor)
            path.append(block)
            cursor = block.header.parent_hash
        path.reverse()
        return path


class ForkChoice(Generic[TxT]):
    """Tracks the active chain over a :class:`BlockTree`."""

    def __init__(self) -> None:
        self.tree: BlockTree[TxT] = BlockTree()
        self._head: str | None = None

    @property
    def head(self) -> str | None:
        return self._head

    def head_block(self) -> Block[TxT] | None:
        return self.tree.block(self._head) if self._head else None

    def active_chain(self) -> list[Block[TxT]]:
        """The current best chain, genesis first."""
        if self._head is None:
            return []
        return self.tree.path_to_genesis(self._head)

    def receive(self, block: Block[TxT]) -> Reorg[TxT] | None:
        """Add *block* and switch heads if it creates a heavier chain.

        Returns the :class:`Reorg` describing the head change, or None
        when the head is unchanged (the block extended a losing fork).
        """
        self.tree.add(block)
        best = self.tree.heaviest_tip()
        assert best is not None
        if best == self._head:
            return None
        old_head = self._head
        self._head = best
        if old_head is None:
            applied = self.tree.path_to_genesis(best)
            return Reorg(
                rolled_back=(), applied=tuple(applied), new_head=best
            )
        # Walk both tips back to their common ancestor (None when the
        # two chains start from different genesis blocks): the cost is
        # the depth of the reorg, not the length of the chain.
        rolled_back: list[Block[TxT]] = []
        applied: list[Block[TxT]] = []
        old = self.tree.block(old_head)
        new = self.tree.block(best)
        while old is not new:
            if new is None or (
                old is not None and old.height >= new.height
            ):
                rolled_back.append(old)
                old = self.tree.parent(old)
            else:
                applied.append(new)
                new = self.tree.parent(new)
        return Reorg(
            rolled_back=tuple(rolled_back),
            applied=tuple(reversed(applied)),
            new_head=best,
        )
