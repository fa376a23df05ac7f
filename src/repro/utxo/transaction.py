"""UTXO transactions.

A transaction lists the outpoints it spends and the outputs it creates.
Hashes are derived deterministically from the transaction content so the
same workload seed always yields the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.chain.hashing import hash_fields
from repro.utxo.txo import TXO, OutPoint


@dataclass(frozen=True, slots=True)
class TxOutputSpec:
    """Specification of an output to create: a value locked to an owner."""

    value: int
    owner: str
    script: str = ""

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("output value must be non-negative")
        if not self.owner:
            raise ValueError("output owner must be non-empty")


@dataclass(frozen=True, slots=True)
class UTXOTransaction:
    """A UTXO-model transaction.

    Attributes:
        inputs: outpoints consumed; empty exactly when ``is_coinbase``.
        outputs: TXOs created, indexed in order.
        tx_hash: content hash, computed at construction.
        fee: implicit miner fee (inputs total minus outputs total); it is
            stored denormalised so validation can be re-checked without
            the UTXO set.

    ``_writes`` memoises the write set
    :func:`repro.execution.engine.utxo_writes` builds on first use, so a
    transaction's task and prediction share one frozenset; like the
    outpoint's location memo it takes no part in equality, hashing or
    ``repr``.
    """

    inputs: tuple[OutPoint, ...]
    outputs: tuple[TXO, ...]
    tx_hash: str
    fee: int = 0
    size_bytes: int = field(default=250, compare=False)
    _writes: frozenset[str] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValueError("a transaction must create at least one output")
        if self.fee < 0:
            raise ValueError("fee must be non-negative")
        for index, txo in enumerate(self.outputs):
            if txo.outpoint.tx_hash != self.tx_hash:
                raise ValueError("output outpoint does not reference this tx")
            if txo.outpoint.index != index:
                raise ValueError("output indices must be contiguous")

    @property
    def is_coinbase(self) -> bool:
        return not self.inputs

    def outpoints_created(self) -> tuple[OutPoint, ...]:
        """Outpoints for every output this transaction creates."""
        return tuple(txo.outpoint for txo in self.outputs)

    def total_output_value(self) -> int:
        return sum(txo.value for txo in self.outputs)


def make_transaction(
    inputs: Sequence[OutPoint],
    outputs: Sequence[TxOutputSpec],
    *,
    fee: int = 0,
    nonce: object = 0,
    size_bytes: int = 250,
) -> UTXOTransaction:
    """Construct a transaction, deriving its hash and output outpoints.

    Args:
        inputs: outpoints to spend; empty creates a coinbase.
        outputs: output specifications in order.
        fee: declared fee (inputs minus outputs); validation checks it.
        nonce: extra entropy mixed into the hash so otherwise identical
            transactions (e.g. two coinbases with equal reward) still get
            distinct hashes.
        size_bytes: simulated serialised size, used as the block-size
            weight in aggregate metrics.
    """
    if not outputs:
        raise ValueError("a transaction must create at least one output")
    tx_hash = hash_fields(
        "utxo-tx",
        tuple((op.tx_hash, op.index) for op in inputs),
        tuple((spec.value, spec.owner, spec.script) for spec in outputs),
        fee,
        nonce,
    )
    txos = tuple(
        TXO(
            outpoint=OutPoint(tx_hash=tx_hash, index=index),
            value=spec.value,
            owner=spec.owner,
            script=spec.script,
        )
        for index, spec in enumerate(outputs)
    )
    return UTXOTransaction(
        inputs=tuple(inputs),
        outputs=txos,
        tx_hash=tx_hash,
        fee=fee,
        size_bytes=size_bytes,
    )


def make_coinbase(
    *,
    reward: int,
    miner: str,
    height: int,
    size_bytes: int = 150,
) -> UTXOTransaction:
    """Create the coinbase transaction for a block at *height*."""
    return make_transaction(
        inputs=(),
        outputs=(TxOutputSpec(value=reward, owner=miner),),
        nonce=("coinbase", height, miner),
        size_bytes=size_bytes,
    )
