"""Account data-model substrate (Ethereum, Ethereum Classic, Zilliqa)."""

from repro.account.gas import DEFAULT_GAS_SCHEDULE, GasSchedule
from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.state import Account, WorldState
from repro.account.trie import EMPTY_ROOT, StateTrie, TrieProof, state_root
from repro.account.transaction import (
    NULL_ADDRESS,
    AccountTransaction,
    InternalTransaction,
    make_account_transaction,
    make_coinbase_transaction,
)

__all__ = [
    "DEFAULT_GAS_SCHEDULE",
    "GasSchedule",
    "ExecutedTransaction",
    "Receipt",
    "Account",
    "WorldState",
    "EMPTY_ROOT",
    "StateTrie",
    "TrieProof",
    "state_root",
    "NULL_ADDRESS",
    "AccountTransaction",
    "InternalTransaction",
    "make_account_transaction",
    "make_coinbase_transaction",
]
