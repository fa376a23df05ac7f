"""Merkle tree over transaction hashes.

Blocks commit to their transaction list through a Merkle root, exactly as
Bitcoin-family and Ethereum-family chains do.  The tree also supports
inclusion proofs, which the tests use to check tamper-evidence — the
property that makes a blockchain ledger a *ledger*.

The construction follows Bitcoin's rule of duplicating the final hash of
an odd-length level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.chain.hashing import hash_concat


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for a single leaf.

    Attributes:
        leaf: the hash whose inclusion is proven.
        path: sibling hashes from leaf level to just below the root.
        directions: for each path element, True when the sibling is on the
            right of the running hash (i.e. the running hash is the left
            operand), False when it is on the left.
    """

    leaf: str
    path: tuple[str, ...]
    directions: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.path) != len(self.directions):
            raise ValueError("path and directions must have equal length")


class MerkleTree:
    """A binary Merkle tree over an ordered sequence of hex-string leaves."""

    def __init__(self, leaves: Sequence[str]):
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        self._leaves = list(leaves)
        self._levels = self._build_levels(self._leaves)

    @staticmethod
    def _build_levels(leaves: list[str]) -> list[list[str]]:
        levels = [list(leaves)]
        while len(levels[-1]) > 1:
            current = levels[-1]
            if len(current) % 2 == 1:
                # Bitcoin-style: duplicate the last element of odd levels.
                current = current + [current[-1]]
            parent = [
                hash_concat((current[i], current[i + 1]))
                for i in range(0, len(current), 2)
            ]
            levels.append(parent)
        return levels

    @property
    def root(self) -> str:
        """The Merkle root committing to all leaves in order."""
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaves)

    def proof(self, index: int) -> MerkleProof:
        """Produce an inclusion proof for the leaf at *index*."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        path: list[str] = []
        directions: list[bool] = []
        position = index
        for level in self._levels[:-1]:
            padded = level if len(level) % 2 == 0 else level + [level[-1]]
            if position % 2 == 0:
                sibling = padded[position + 1]
                directions.append(True)
            else:
                sibling = padded[position - 1]
                directions.append(False)
            path.append(sibling)
            position //= 2
        return MerkleProof(
            leaf=self._leaves[index],
            path=tuple(path),
            directions=tuple(directions),
        )

    @staticmethod
    def verify(proof: MerkleProof, root: str) -> bool:
        """Check that *proof* authenticates its leaf against *root*."""
        running = proof.leaf
        for sibling, sibling_on_right in zip(proof.path, proof.directions):
            if sibling_on_right:
                running = hash_concat((running, sibling))
            else:
                running = hash_concat((sibling, running))
        return running == root


def merkle_root(leaves: Sequence[str]) -> str:
    """Convenience wrapper returning just the root of *leaves*."""
    return MerkleTree(leaves).root
