"""Tests for the end-to-end analysis pipeline."""

from __future__ import annotations

import pytest

from repro.core.pipeline import (
    BlockRecord,
    ChainHistory,
    analyze_account_block,
    analyze_utxo_block,
    analyze_utxo_ledger,
)
from repro.core.metrics import compute_block_metrics
from repro.core.tdg import TDGResult


def _record(height, num_transactions=5, gas=0.0):
    tdg = TDGResult.from_groups(
        (f"t{height}-{i}",) for i in range(num_transactions)
    )
    return BlockRecord(
        height=height,
        timestamp=float(height),
        num_transactions=num_transactions,
        metrics=compute_block_metrics(tdg),
        gas_used=gas,
    )


class TestChainHistory:
    def test_append_requires_monotone_heights(self):
        history = ChainHistory(name="x", data_model="utxo")
        history.append(_record(0))
        with pytest.raises(ValueError):
            history.append(_record(0))

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            ChainHistory(name="x", data_model="graph")

    def test_non_empty_filter(self):
        history = ChainHistory(name="x", data_model="utxo")
        history.append(_record(0, num_transactions=0))
        history.append(_record(1, num_transactions=3))
        assert len(history.non_empty_records()) == 1

    def test_mean_transactions(self):
        history = ChainHistory(name="x", data_model="utxo")
        history.append(_record(0, num_transactions=2))
        history.append(_record(1, num_transactions=4))
        assert history.mean_transactions_per_block() == pytest.approx(3.0)


class TestBlockRecordWeights:
    def test_gas_weight_falls_back_to_tx_count(self):
        record = _record(0, num_transactions=7, gas=0.0)
        assert record.weight_gas == 7.0
        record_with_gas = _record(1, num_transactions=7, gas=420.0)
        assert record_with_gas.weight_gas == 420.0

    def test_total_transactions_includes_internal(self):
        record = BlockRecord(
            height=0,
            timestamp=0.0,
            num_transactions=10,
            metrics=_record(0).metrics,
            num_internal=25,
        )
        assert record.total_transactions == 35


class TestAnalyzeUTXO:
    def test_ledger_analysis_matches_per_block(self, small_bitcoin_ledger):
        history = analyze_utxo_ledger(small_bitcoin_ledger, name="btc")
        assert len(history) == len(small_bitcoin_ledger)
        block = small_bitcoin_ledger.block_at(20)
        record, tdg = analyze_utxo_block(
            block.transactions,
            height=block.height,
            timestamp=block.header.timestamp,
        )
        stored = history.records[20]
        assert stored.num_transactions == record.num_transactions
        assert stored.metrics.lcc_size == tdg.lcc_size

    def test_input_txo_counts_tracked(self, small_bitcoin_ledger):
        history = analyze_utxo_ledger(small_bitcoin_ledger, name="btc")
        busy = [r for r in history.records if r.num_transactions > 0]
        assert all(r.num_input_txos >= r.num_transactions * 0 for r in busy)
        assert any(r.num_input_txos > 0 for r in busy)

    def test_size_bytes_tracked(self, small_bitcoin_ledger):
        history = analyze_utxo_ledger(small_bitcoin_ledger, name="btc")
        assert all(r.size_bytes > 0 for r in history.records)


class TestAnalyzeAccount:
    def test_block_analysis_counts(self, small_ethereum_builder):
        block, executed = small_ethereum_builder.executed_blocks[-1]
        record, tdg = analyze_account_block(
            executed, height=block.height, timestamp=block.header.timestamp
        )
        regular = [i for i in executed if not i.is_coinbase]
        assert record.num_transactions == len(regular)
        assert record.num_internal == sum(
            i.receipt.trace_count for i in regular
        )
        assert record.gas_used == sum(i.gas_used for i in regular)
        assert tdg.num_transactions == record.num_transactions

    def test_gas_weights_feed_weighted_metrics(self, small_ethereum_builder):
        block, executed = small_ethereum_builder.executed_blocks[-1]
        record, _ = analyze_account_block(
            executed, height=block.height, timestamp=block.header.timestamp
        )
        assert record.metrics.total_weight == pytest.approx(record.gas_used)
