"""UTXO data-model substrate (Bitcoin, Bitcoin Cash, Litecoin, Dogecoin)."""

from repro.utxo.script import (
    ScriptError,
    ScriptResult,
    can_spend,
    evaluate,
    p2pkh_script,
)
from repro.utxo.transaction import (
    TxOutputSpec,
    UTXOTransaction,
    make_coinbase,
    make_transaction,
)
from repro.utxo.txo import COIN, TXO, OutPoint
from repro.utxo.utxo_set import BlockUndo, UTXOSet
from repro.utxo.validation import (
    BITCOIN_CASH_POLICY,
    BITCOIN_POLICY,
    DOGECOIN_POLICY,
    LITECOIN_POLICY,
    ChainPolicy,
    validate_block_transactions,
)

__all__ = [
    "ScriptError",
    "ScriptResult",
    "can_spend",
    "evaluate",
    "p2pkh_script",
    "TxOutputSpec",
    "UTXOTransaction",
    "make_coinbase",
    "make_transaction",
    "COIN",
    "TXO",
    "OutPoint",
    "BlockUndo",
    "UTXOSet",
    "BITCOIN_CASH_POLICY",
    "BITCOIN_POLICY",
    "DOGECOIN_POLICY",
    "LITECOIN_POLICY",
    "ChainPolicy",
    "validate_block_transactions",
]
