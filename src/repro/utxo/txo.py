"""Transaction outputs (TXOs) and outpoints for the UTXO data model.

In the UTXO model (§II-A of the paper) every transaction consumes
previously created outputs and creates fresh ones.  An *outpoint* is the
canonical reference to an output: the creating transaction's hash plus
the output index.  The paper's UTXO TDG draws an edge ``a -> b`` exactly
when some outpoint created by ``a`` appears among the inputs of ``b``
within the same block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Values are in integer base units (satoshi-style) to avoid floating-point
# drift in value-conservation checks.
COIN = 100_000_000


@dataclass(frozen=True, order=True, slots=True)
class OutPoint:
    """A reference to the *index*-th output of transaction *tx_hash*.

    ``str(outpoint)`` is its location, ``"<tx_hash>:<index>"``: built on
    first use and kept, so the creator's and the spender's access sets
    hold one string object per outpoint (the spender's input is the
    creator's :attr:`TXO.outpoint`).  The memo takes no part in equality,
    hashing, ordering or ``repr``.
    """

    tx_hash: str
    index: int
    _location: str | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.tx_hash:
            raise ValueError("tx_hash must be non-empty")
        if self.index < 0:
            raise ValueError("output index must be non-negative")

    def __str__(self) -> str:
        location = self._location
        if location is None:
            location = f"{self.tx_hash}:{self.index}"
            object.__setattr__(self, "_location", location)
        return location


@dataclass(frozen=True, slots=True)
class TXO:
    """A transaction output: a value locked to an address.

    The locking condition is modelled as a bare address plus an optional
    script (see :mod:`repro.utxo.script`); full signature checking is out
    of scope for a concurrency study, but the script hook lets workloads
    attach higher-level protocols, one of the conflict sources the paper
    conjectures for Bitcoin.
    """

    outpoint: OutPoint
    value: int
    owner: str
    script: str = ""

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("TXO value must be non-negative")
        if not self.owner:
            raise ValueError("TXO owner must be non-empty")

    def value_in_coins(self) -> float:
        """The output value expressed in whole coins (display only)."""
        return self.value / COIN
