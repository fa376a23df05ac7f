"""The UTXO set: the global state of a UTXO-model chain.

Nodes "keep track of unspent TXOs" (§II-A); this class is that tracking
structure, with atomic block application and revert.  Revert support is
what a real client needs for chain reorganisations; here it additionally
powers failure-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.chain.errors import DoubleSpendError, ValueConservationError
from repro.utxo.transaction import UTXOTransaction
from repro.utxo.txo import TXO, OutPoint


@dataclass(frozen=True)
class BlockUndo:
    """Everything needed to revert one applied block."""

    spent: tuple[TXO, ...]
    created: tuple[OutPoint, ...]


class UTXOSet:
    """Mutable set of unspent transaction outputs keyed by outpoint."""

    def __init__(self, initial: Iterable[TXO] = ()) -> None:
        self._utxos: dict[OutPoint, TXO] = {}
        for txo in initial:
            self._utxos[txo.outpoint] = txo

    def __len__(self) -> int:
        return len(self._utxos)

    def __contains__(self, outpoint: OutPoint) -> bool:
        return outpoint in self._utxos

    def __iter__(self) -> Iterator[TXO]:
        return iter(self._utxos.values())

    def get(self, outpoint: OutPoint) -> TXO | None:
        return self._utxos.get(outpoint)

    def total_value(self) -> int:
        """Sum of all unspent output values (the monetary base)."""
        return sum(txo.value for txo in self._utxos.values())

    def balance_of(self, owner: str) -> int:
        """Total unspent value locked to *owner* (linear scan)."""
        return sum(
            txo.value for txo in self._utxos.values() if txo.owner == owner
        )

    # -- transaction / block application ---------------------------------

    def validate_transaction(self, tx: UTXOTransaction) -> None:
        """Check *tx* against the current set without mutating it.

        Raises:
            DoubleSpendError: an input is absent from the set (spent,
                never created, or spent twice within the same tx).
            ValueConservationError: outputs plus fee exceed inputs.
        """
        if tx.is_coinbase:
            return
        seen: set[OutPoint] = set()
        input_value = 0
        for outpoint in tx.inputs:
            if outpoint in seen:
                raise DoubleSpendError(
                    f"transaction {tx.tx_hash} spends {outpoint} twice"
                )
            seen.add(outpoint)
            txo = self._utxos.get(outpoint)
            if txo is None:
                raise DoubleSpendError(
                    f"input {outpoint} of {tx.tx_hash} is not unspent"
                )
            input_value += txo.value
        output_value = tx.total_output_value()
        if output_value + tx.fee != input_value:
            raise ValueConservationError(
                f"transaction {tx.tx_hash}: inputs {input_value} != "
                f"outputs {output_value} + fee {tx.fee}"
            )

    def apply_transaction(self, tx: UTXOTransaction) -> tuple[TXO, ...]:
        """Validate and apply *tx*; returns the TXOs it spent."""
        self.validate_transaction(tx)
        spent = tuple(self._utxos.pop(outpoint) for outpoint in tx.inputs)
        for txo in tx.outputs:
            self._utxos[txo.outpoint] = txo
        return spent

    def apply_block(self, transactions: Iterable[UTXOTransaction]) -> BlockUndo:
        """Apply a block's transactions in order, atomically.

        Transactions later in the block may spend outputs created earlier
        in the same block — the intra-block chains of the paper's Fig. 6.
        On any validation failure the set is restored to its state before
        the call and the error re-raised.
        """
        spent_all: list[TXO] = []
        created_all: list[OutPoint] = []
        applied: list[UTXOTransaction] = []
        try:
            for tx in transactions:
                spent_all.extend(self.apply_transaction(tx))
                created_all.extend(tx.outpoints_created())
                applied.append(tx)
        except Exception:
            # Roll back partially applied transactions in reverse order.
            undo = BlockUndo(spent=tuple(spent_all), created=tuple(created_all))
            self.revert_block(undo)
            raise
        return BlockUndo(spent=tuple(spent_all), created=tuple(created_all))

    def revert_block(self, undo: BlockUndo) -> None:
        """Undo a previously applied block using its :class:`BlockUndo`."""
        for outpoint in undo.created:
            self._utxos.pop(outpoint, None)
        for txo in undo.spent:
            self._utxos[txo.outpoint] = txo

    def snapshot(self) -> "UTXOSet":
        """An independent copy (TXOs are immutable so sharing is safe)."""
        copy = UTXOSet()
        copy._utxos = dict(self._utxos)
        return copy
