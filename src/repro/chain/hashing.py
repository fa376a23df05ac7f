"""Deterministic content hashing for blocks and transactions.

All identifiers in the substrates are hex digests of SHA-256 over a
canonical serialisation.  Determinism matters twice over: first so that
re-running a workload generator with the same seed produces byte-identical
chains (and therefore byte-identical experiment results), and second so
that hashes can be used as stable node identifiers in the transaction
dependency graph.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

# Number of hex characters kept for a short display hash (as used in the
# paper's Figure 6, which labels transactions by the first four hex digits).
SHORT_HASH_LEN = 4


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of *data* as a lowercase hex string."""
    return hashlib.sha256(data).hexdigest()


def hash_fields(*fields: object) -> str:
    """Hash a heterogeneous tuple of fields into a stable identifier.

    Fields are serialised as ``repr`` joined by an unambiguous separator.
    ``repr`` is stable for the types we use (str, int, float, tuple) and
    avoids pulling in a serialisation library for what is a simulation
    substrate rather than a wire protocol.
    """
    payload = "\x1f".join(map(repr, fields))
    return sha256_hex(payload.encode("utf-8"))


def hash_parts(*parts: str) -> str:
    """Hash one or more strings, none of which holds ``\\x1f``.

    The parts are joined by that separator without ``repr``, so a long
    flat digest (a block's state or receipts) costs one join and one
    SHA-256.  The join is injective because the separator is checked
    absent from every part: the text must hold exactly one fewer than
    there are parts.

    Raises:
        ValueError: no parts, or a part contains the separator; or, as
            ``UnicodeEncodeError``, a part holds a lone surrogate, which
            has no UTF-8 encoding.
    """
    payload = "\x1f".join(parts)
    if payload.count("\x1f") != len(parts) - 1:
        raise ValueError(
            "hash_parts needs one or more parts and no \\x1f separator "
            "in any of them"
        )
    return sha256_hex(payload.encode("utf-8"))


def hash_concat(parts: Iterable[str]) -> str:
    """Hash the concatenation of already-hex-encoded *parts*."""
    joined = "".join(parts)
    return sha256_hex(joined.encode("ascii"))


def short_hash(full_hash: str, length: int = SHORT_HASH_LEN) -> str:
    """Return the leading *length* hex digits of *full_hash*.

    Used for compact rendering of TDG examples (cf. paper Fig. 6).
    """
    if length <= 0:
        raise ValueError("length must be positive")
    return full_hash[:length]


def address_from_seed(seed: str, prefix: str = "0x") -> str:
    """Derive a 40-hex-character address from an arbitrary seed string.

    The account-model substrates identify accounts and contracts by
    Ethereum-style addresses; this helper keeps them deterministic.
    """
    return prefix + sha256_hex(seed.encode("utf-8"))[:40]
