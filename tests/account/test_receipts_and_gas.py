"""Tests for receipts, TDG edge extraction, and the gas schedule."""

from __future__ import annotations

import pytest

from repro.account.gas import DEFAULT_GAS_SCHEDULE, GasSchedule
from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import (
    NULL_ADDRESS,
    AccountTransaction,
    InternalTransaction,
    make_account_transaction,
    make_coinbase_transaction,
)


def _executed(sender="0xa", receiver="0xb", internals=(), created=""):
    tx = make_account_transaction(
        sender=sender, receiver=receiver, value=1, nonce=0
    )
    receipt = Receipt(
        tx_hash=tx.tx_hash,
        success=True,
        gas_used=21_000,
        internal_transactions=tuple(internals),
        created_contract=created,
    )
    return ExecutedTransaction(tx=tx, receipt=receipt)


class TestGasSchedule:
    def test_intrinsic_transfer(self):
        assert DEFAULT_GAS_SCHEDULE.intrinsic_gas(
            is_create=False, data_length=0
        ) == 21_000

    def test_intrinsic_create_is_heavier(self):
        create = DEFAULT_GAS_SCHEDULE.intrinsic_gas(
            is_create=True, data_length=100
        )
        call = DEFAULT_GAS_SCHEDULE.intrinsic_gas(
            is_create=False, data_length=100
        )
        assert create > call

    def test_data_bytes_charged(self):
        schedule = GasSchedule()
        assert (
            schedule.intrinsic_gas(is_create=False, data_length=10)
            == 21_000 + 680
        )


class TestInternalTransaction:
    def test_depth_starts_at_one(self):
        with pytest.raises(ValueError):
            InternalTransaction(sender="a", receiver="b", depth=0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            InternalTransaction(sender="a", receiver="b", value=-1)


class TestReceipts:
    def test_receipt_must_match_transaction(self):
        tx = make_account_transaction(
            sender="0xa", receiver="0xb", value=1, nonce=0
        )
        receipt = Receipt(tx_hash="other", success=True, gas_used=0)
        with pytest.raises(ValueError):
            ExecutedTransaction(tx=tx, receipt=receipt)

    def test_edges_regular_only(self):
        item = _executed()
        assert item.edges() == [("0xa", "0xb")]

    def test_edges_include_internals(self):
        internals = [
            InternalTransaction(sender="0xb", receiver="0xc", depth=1),
            InternalTransaction(sender="0xc", receiver="0xd", depth=2),
        ]
        item = _executed(internals=internals)
        assert item.edges() == [
            ("0xa", "0xb"),
            ("0xb", "0xc"),
            ("0xc", "0xd"),
        ]

    def test_coinbase_contributes_no_edges(self):
        cb = make_coinbase_transaction(miner="0xm", reward=1, height=0)
        item = ExecutedTransaction(
            tx=cb,
            receipt=Receipt(tx_hash=cb.tx_hash, success=True, gas_used=0),
        )
        assert item.edges() == []

    def test_creation_edge_uses_created_address(self):
        tx = make_account_transaction(
            sender="0xa",
            receiver=NULL_ADDRESS,
            value=0,
            nonce=0,
            gas_limit=100_000,
        )
        receipt = Receipt(
            tx_hash=tx.tx_hash,
            success=True,
            gas_used=85_000,
            created_contract="0xnew",
        )
        item = ExecutedTransaction(tx=tx, receipt=receipt)
        assert item.edges() == [("0xa", "0xnew")]


class TestTransactionValidation:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            AccountTransaction(
                sender="a",
                receiver="b",
                value=-1,
                nonce=0,
                tx_hash="h",
            )

    def test_creation_detection(self):
        tx = make_account_transaction(
            sender="0xa", receiver=NULL_ADDRESS, value=0, nonce=0
        )
        assert tx.is_contract_creation
        cb = make_coinbase_transaction(miner="0xa", reward=0, height=0)
        assert not cb.is_contract_creation
