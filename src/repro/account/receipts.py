"""Execution receipts: what actually happened when a transaction ran.

A receipt records gas used, success/failure, and — crucially for the
paper — the list of internal transactions generated by contract
execution.  The dataset layer exports receipts in the shape of the
BigQuery ``traces`` table, and the TDG builder consumes the
(sender, receiver) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.account.transaction import AccountTransaction, InternalTransaction
from repro.sets import EMPTY


@dataclass(frozen=True, slots=True)
class Receipt:
    """Outcome of executing one regular transaction."""

    tx_hash: str
    success: bool
    gas_used: int
    internal_transactions: tuple[InternalTransaction, ...] = ()
    created_contract: str = ""
    storage_reads: frozenset[tuple[str, str]] = EMPTY
    storage_writes: frozenset[tuple[str, str]] = EMPTY

    def __post_init__(self) -> None:
        if self.gas_used < 0:
            raise ValueError("gas_used must be non-negative")

    @property
    def trace_count(self) -> int:
        """Number of internal transactions (geth traces) produced."""
        return len(self.internal_transactions)


@dataclass(frozen=True, slots=True)
class ExecutedTransaction:
    """A transaction paired with its receipt — one row of an executed block."""

    tx: AccountTransaction
    receipt: Receipt

    def __post_init__(self) -> None:
        if self.tx.tx_hash != self.receipt.tx_hash:
            raise ValueError("receipt does not belong to this transaction")

    @property
    def tx_hash(self) -> str:
        return self.tx.tx_hash

    @property
    def is_coinbase(self) -> bool:
        return self.tx.is_coinbase

    @property
    def gas_used(self) -> int:
        return self.receipt.gas_used

    def edges(self) -> list[tuple[str, str]]:
        """(sender, receiver) pairs contributed to the TDG by this tx.

        Coinbase transactions contribute nothing (§III-A1).  For a
        contract creation the receiver endpoint is the *created*
        contract's (unique) address — as in geth's create traces — not
        the null address, which would otherwise spuriously connect all
        creations in a block.
        """
        addresses = self.endpoints()
        return list(zip(addresses[::2], addresses[1::2]))

    def endpoints(self) -> Sequence[str]:
        """The addresses of :meth:`edges`, pair after pair, with no
        pair built: what the account TDG reads per transaction."""
        tx = self.tx
        if tx.is_coinbase:
            return ()
        receipt = self.receipt
        receiver = tx.receiver
        if tx.is_contract_creation and receipt.created_contract:
            receiver = receipt.created_contract
        if not receipt.internal_transactions:
            return (tx.sender, receiver)
        addresses = [tx.sender, receiver]
        for internal in receipt.internal_transactions:
            addresses.append(internal.sender)
            addresses.append(internal.receiver)
        return addresses
