"""An authenticated state trie (Merkle-Patricia-lite).

Account chains commit to their global state with a state root in every
block header; this module provides that commitment for the account
substrate.  It is a hexary radix trie over key nibbles with node-level
hashing — structurally a simplified Merkle-Patricia trie (no RLP, no
extension-node compression, but the same authentication properties):

* equal contents ⇒ equal root, regardless of insertion order;
* any difference in contents ⇒ different root (up to SHA-256);
* inclusion proofs: a path of hashed nodes from root to leaf that a
  verifier can check against the root alone.

The world state uses it through :func:`state_root`, which folds every
account's balance/nonce/code/storage into trie entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.hashing import sha256_hex
from repro.sets import balance_location, storage_location

_RADIX = 16
EMPTY_ROOT = sha256_hex(b"empty-trie")


def _nibbles(key: str) -> list[int]:
    """Key string -> nibble path (hex digests of keys keep paths short)."""
    digest = sha256_hex(key.encode("utf-8"))
    return [int(ch, 16) for ch in digest[:16]]


class _Node:
    __slots__ = ("children", "value", "_hash")

    def __init__(self) -> None:
        self.children: dict[int, _Node] = {}
        self.value: str | None = None
        self._hash: str | None = None

    def invalidate(self) -> None:
        self._hash = None

    def node_hash(self) -> str:
        if self._hash is None:
            parts = ["node", self.value if self.value is not None else "\x00"]
            for index in range(_RADIX):
                child = self.children.get(index)
                parts.append(child.node_hash() if child else "-")
            self._hash = sha256_hex("\x1f".join(parts).encode("utf-8"))
        return self._hash


@dataclass(frozen=True)
class TrieProof:
    """Inclusion proof: the key, its value, and sibling hash layers.

    Each layer records, for one node on the root-to-leaf path, the
    node's own value slot and the hashes of all its children except the
    one continuing the path (identified by ``branch``).
    """

    key: str
    value: str
    layers: tuple[tuple[str, int, tuple[str, ...]], ...]


class StateTrie:
    """Mutable authenticated map from string keys to string values."""

    def __init__(self) -> None:
        self._root = _Node()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def get(self, key: str) -> str | None:
        node = self._root
        for nibble in _nibbles(key):
            child = node.children.get(nibble)
            if child is None:
                return None
            node = child
        return node.value

    def put(self, key: str, value: str) -> None:
        """Insert or update *key*; hashes along the path are invalidated."""
        if value is None:
            raise ValueError("value must not be None; use delete()")
        node = self._root
        path = [node]
        for nibble in _nibbles(key):
            child = node.children.get(nibble)
            if child is None:
                child = _Node()
                node.children[nibble] = child
            node = child
            path.append(node)
        if node.value is None:
            self._count += 1
        node.value = value
        for touched in path:
            touched.invalidate()

    def delete(self, key: str) -> bool:
        """Remove *key*; returns True when it was present."""
        node = self._root
        path: list[tuple[_Node, int]] = []
        for nibble in _nibbles(key):
            child = node.children.get(nibble)
            if child is None:
                return False
            path.append((node, nibble))
            node = child
        if node.value is None:
            return False
        node.value = None
        self._count -= 1
        # Prune now-empty branches and invalidate the path.
        for parent, nibble in reversed(path):
            child = parent.children[nibble]
            child.invalidate()
            if not child.children and child.value is None:
                del parent.children[nibble]
        self._root.invalidate()
        for parent, _nibble in path:
            parent.invalidate()
        return True

    @property
    def root(self) -> str:
        """The authenticated root of the current contents."""
        if self._count == 0:
            return EMPTY_ROOT
        return self._root.node_hash()

    # -- proofs -------------------------------------------------------------

    def prove(self, key: str) -> TrieProof:
        """Produce an inclusion proof for *key*.

        Raises:
            KeyError: when the key is absent.
        """
        node = self._root
        layers: list[tuple[str, int, tuple[str, ...]]] = []
        for nibble in _nibbles(key):
            siblings = tuple(
                node.children[index].node_hash()
                if index in node.children and index != nibble
                else ("-" if index != nibble else "*")
                for index in range(_RADIX)
            )
            layers.append(
                (
                    node.value if node.value is not None else "\x00",
                    nibble,
                    siblings,
                )
            )
            child = node.children.get(nibble)
            if child is None:
                raise KeyError(f"key {key!r} not in trie")
            node = child
        if node.value is None:
            raise KeyError(f"key {key!r} not in trie")
        return TrieProof(key=key, value=node.value, layers=tuple(layers))

    @staticmethod
    def verify_proof(proof: TrieProof, root: str) -> bool:
        """Check *proof* against *root* without any trie access."""
        # Rebuild the leaf hash, then fold the layers bottom-up.
        running = sha256_hex(
            "\x1f".join(
                ["node", proof.value] + ["-"] * _RADIX
            ).encode("utf-8")
        )
        # The leaf may have children in the real trie; proofs only work
        # for leaf-positioned values, which state keys always are
        # (fixed-length nibble paths).  Fold upward:
        for value_slot, branch, siblings in reversed(proof.layers):
            parts = ["node", value_slot]
            for index in range(_RADIX):
                if index == branch:
                    parts.append(running)
                else:
                    parts.append(siblings[index])
            running = sha256_hex("\x1f".join(parts).encode("utf-8"))
        return running == root


def state_root(state) -> str:
    """Authenticated root of a :class:`repro.account.state.WorldState`.

    Folds each account's balance, nonce, code id and storage into trie
    entries.  Deterministic: equal states yield equal roots.
    """
    trie = StateTrie()
    for address, account in sorted(state.iter_accounts()):
        trie.put(balance_location(address), str(account.balance))
        trie.put(f"nonce:{address}", str(account.nonce))
        if account.code_id:
            trie.put(f"code:{address}", account.code_id)
        for key, value in account.storage.items():
            trie.put(storage_location(address, key), value)
    return trie.root
