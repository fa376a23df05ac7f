"""Tests for geth-style trace flattening."""

from __future__ import annotations

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import (
    InternalTransaction,
    make_account_transaction,
    make_coinbase_transaction,
)
from repro.vm.tracer import trace_rows_for_block


def _executed_with_internals():
    tx = make_account_transaction(
        sender="0xa", receiver="0xcontract", value=0, nonce=0,
        gas_limit=100_000,
    )
    internals = (
        InternalTransaction(sender="0xcontract", receiver="0xb", depth=2),
        InternalTransaction(sender="0xb", receiver="0xc", depth=3),
        InternalTransaction(sender="0xcontract", receiver="0xd", depth=2),
    )
    receipt = Receipt(
        tx_hash=tx.tx_hash,
        success=True,
        gas_used=50_000,
        internal_transactions=internals,
    )
    return ExecutedTransaction(tx=tx, receipt=receipt)


class TestTraceRows:
    def test_regular_tx_top_level_row(self):
        item = _executed_with_internals()
        rows = trace_rows_for_block(7, [item])
        top = rows[0]
        assert top.trace_address == ""
        assert top.trace_type == "call"
        assert top.block_number == 7
        assert top.from_address == "0xa"

    def test_internal_rows_have_dotted_paths(self):
        item = _executed_with_internals()
        rows = trace_rows_for_block(7, [item])
        internals = [row for row in rows if row.trace_address]
        assert len(internals) == 3
        assert internals[0].depth == 2

    def test_coinbase_becomes_reward_row(self):
        cb = make_coinbase_transaction(miner="0xm", reward=5, height=1)
        item = ExecutedTransaction(
            tx=cb,
            receipt=Receipt(tx_hash=cb.tx_hash, success=True, gas_used=0),
        )
        rows = trace_rows_for_block(1, [item])
        assert rows[0].trace_type == "reward"
        assert rows[0].trace_address == ""

    def test_failed_tx_status_zero(self):
        tx = make_account_transaction(
            sender="0xa", receiver="0xb", value=0, nonce=0
        )
        item = ExecutedTransaction(
            tx=tx,
            receipt=Receipt(tx_hash=tx.tx_hash, success=False, gas_used=21_000),
        )
        rows = trace_rows_for_block(0, [item])
        assert rows[0].status == 0

    def test_internal_count_matches_paper_definition(self):
        """Rows with a trace address (§II-A's internal transactions:
        trace-generating, neither regular nor coinbase) are the
        receipt's traces."""
        item = _executed_with_internals()
        cb = make_coinbase_transaction(miner="0xm", reward=5, height=0)
        cb_item = ExecutedTransaction(
            tx=cb,
            receipt=Receipt(tx_hash=cb.tx_hash, success=True, gas_used=0),
        )
        rows = trace_rows_for_block(0, [cb_item, item])
        internals = [
            row for row in rows
            if row.trace_type != "reward" and row.trace_address
        ]
        assert len(internals) == item.receipt.trace_count
