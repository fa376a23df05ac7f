"""World state for the account data model.

Tracks balances, nonces, contract code handles and contract storage, and
applies transactions with Ethereum-like semantics: nonce check, intrinsic
gas, value transfer, and (when the receiver is a contract) dispatch into
the VM.  The VM integration point is a callable so the state layer does
not import the VM package directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.account.gas import DEFAULT_GAS_SCHEDULE, GasSchedule
from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import (
    NULL_ADDRESS,
    AccountTransaction,
    InternalTransaction,
)
from repro.chain.errors import (
    InsufficientBalanceError,
    NonceError,
    ValidationError,
)
from repro.chain.hashing import address_from_seed
from repro.sets import EMPTY

# Signature of a contract executor: (state, tx, gas_budget) -> receipt
# fragments.  The VM package provides the real one; tests can stub it.
ContractExecutor = Callable[
    ["WorldState", AccountTransaction, int],
    tuple[bool, int, tuple[InternalTransaction, ...],
          frozenset[tuple[str, str]], frozenset[tuple[str, str]]],
]


@dataclass
class Account:
    """Mutable per-address state."""

    address: str
    balance: int = 0
    nonce: int = 0
    code_id: str = ""
    storage: dict[str, str] = field(default_factory=dict)

    @property
    def is_contract(self) -> bool:
        return bool(self.code_id)


class WorldState:
    """The global key-value state of an account-model chain."""

    def __init__(self, gas_schedule: GasSchedule = DEFAULT_GAS_SCHEDULE):
        self._accounts: dict[str, Account] = {}
        self.gas_schedule = gas_schedule

    # -- account access ---------------------------------------------------

    def account(self, address: str) -> Account:
        """Fetch (creating lazily) the account at *address*."""
        existing = self._accounts.get(address)
        if existing is None:
            existing = Account(address=address)
            self._accounts[address] = existing
        return existing

    def balance_of(self, address: str) -> int:
        account = self._accounts.get(address)
        return account.balance if account else 0

    def nonce_of(self, address: str) -> int:
        account = self._accounts.get(address)
        return account.nonce if account else 0

    def credit(self, address: str, amount: int) -> None:
        """Mint *amount* to *address* (genesis allocation, block rewards)."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        self.account(address).balance += amount

    def deploy_contract(self, deployer: str, code_id: str) -> str:
        """Register contract code at a fresh deterministic address."""
        account = self.account(deployer)
        address = address_from_seed(f"contract|{deployer}|{account.nonce}|{code_id}")
        contract = self.account(address)
        contract.code_id = code_id
        return address

    # -- transaction application ------------------------------------------

    def apply_transaction(
        self,
        tx: AccountTransaction,
        *,
        executor: ContractExecutor | None = None,
    ) -> ExecutedTransaction:
        """Validate and apply *tx*, returning its receipt.

        Coinbase transactions mint their value.  Regular transactions
        check nonce and balance, charge intrinsic gas, transfer value and
        run the contract executor when the receiver has code.

        Raises:
            NonceError / InsufficientBalanceError / ValidationError on
            invalid transactions; the state is unchanged in that case.
        """
        if tx.is_coinbase:
            self.credit(tx.receiver, tx.value)
            receipt = Receipt(tx_hash=tx.tx_hash, success=True, gas_used=0)
            return ExecutedTransaction(tx=tx, receipt=receipt)

        sender = self.account(tx.sender)
        if tx.nonce != sender.nonce:
            raise NonceError(
                f"tx {tx.tx_hash}: nonce {tx.nonce} != expected {sender.nonce}"
            )
        intrinsic = self.gas_schedule.intrinsic_gas(
            is_create=tx.is_contract_creation, data_length=len(tx.data)
        )
        if intrinsic > tx.gas_limit:
            raise ValidationError(
                f"tx {tx.tx_hash}: gas limit {tx.gas_limit} below "
                f"intrinsic cost {intrinsic}"
            )
        max_fee = tx.gas_limit * tx.gas_price
        if sender.balance < tx.value + max_fee:
            raise InsufficientBalanceError(
                f"tx {tx.tx_hash}: sender balance {sender.balance} cannot "
                f"cover value {tx.value} plus max fee {max_fee}"
            )

        sender.nonce += 1
        gas_used = intrinsic
        success = True
        internals: tuple[InternalTransaction, ...] = ()
        reads: frozenset[tuple[str, str]] = EMPTY
        writes: frozenset[tuple[str, str]] = EMPTY
        created = ""

        if tx.is_contract_creation:
            created = self.deploy_contract(tx.sender, code_id=tx.data or "raw")
            gas_used += self.gas_schedule.contract_creation
            sender.balance -= tx.value
            self.account(created).balance += tx.value
        else:
            receiver = self.account(tx.receiver)
            sender.balance -= tx.value
            receiver.balance += tx.value
            if receiver.is_contract and executor is not None:
                remaining = tx.gas_limit - gas_used
                success, vm_gas, internals, reads, writes = executor(
                    self, tx, remaining
                )
                gas_used += vm_gas
                if not success:
                    # Failed calls keep the fee but revert the transfer.
                    sender.balance += tx.value
                    receiver.balance -= tx.value

        gas_used = min(gas_used, tx.gas_limit)
        sender.balance -= gas_used * tx.gas_price
        if sender.balance < 0:
            # The max-fee precheck makes this unreachable; guard anyway.
            raise InsufficientBalanceError(
                f"tx {tx.tx_hash}: fee drove balance negative"
            )
        receipt = Receipt(
            tx_hash=tx.tx_hash,
            success=success,
            gas_used=gas_used,
            internal_transactions=internals,
            created_contract=created,
            storage_reads=reads,
            storage_writes=writes,
        )
        return ExecutedTransaction(tx=tx, receipt=receipt)

    def apply_block(
        self,
        transactions: Iterable[AccountTransaction],
        *,
        executor: ContractExecutor | None = None,
    ) -> list[ExecutedTransaction]:
        """Apply a block's transactions sequentially, in order."""
        return [
            self.apply_transaction(tx, executor=executor)
            for tx in transactions
        ]

    def total_supply(self) -> int:
        """Sum of all balances (monotone under regular txs, fees burn)."""
        return sum(account.balance for account in self._accounts.values())

    def iter_accounts(self):
        """Iterate (address, account) pairs — used for state commitments."""
        return iter(self._accounts.items())


__all__ = ["Account", "WorldState", "ContractExecutor", "NULL_ADDRESS"]
