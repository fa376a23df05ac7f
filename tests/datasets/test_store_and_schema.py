"""Tests for dataset schemas, the store, and CSV round-tripping."""

from __future__ import annotations

import pytest

from repro.chain.errors import DatasetError
from repro.datasets.schema import (
    AccountTransactionRow,
    BlockRow,
    UTXOInputRow,
    row_from_dict,
    row_to_dict,
)
from repro.datasets.store import DatasetStore


def _input_row(block=1, spender="s", spent="c"):
    return UTXOInputRow(
        block_number=block, spending_tx_hash=spender, spent_tx_hash=spent
    )


class TestSchemaRoundTrip:
    def test_row_to_dict(self):
        row = _input_row()
        assert row_to_dict(row) == {
            "block_number": 1,
            "spending_tx_hash": "s",
            "spent_tx_hash": "c",
        }

    def test_row_from_dict_parses_types(self):
        row = row_from_dict(
            AccountTransactionRow,
            {
                "block_number": "7",
                "tx_hash": "h",
                "from_address": "a",
                "to_address": "b",
                "value": "123",
                "gas_used": "21000",
                "gas_price": "1",
                "is_coinbase": "False",
            },
        )
        assert row.block_number == 7
        assert row.value == 123
        assert row.is_coinbase is False

    def test_bool_parsing_variants(self):
        for raw, expected in [("True", True), ("1", True), ("false", False)]:
            row = row_from_dict(
                BlockRow,
                {
                    "block_number": "0",
                    "timestamp": "1.5",
                    "miner": "m",
                    "transaction_count": "3",
                },
            )
            assert row.timestamp == pytest.approx(1.5)


class TestDatasetStore:
    def test_insert_and_count(self):
        store = DatasetStore(chain="test")
        store.insert("utxo_inputs", [_input_row(), _input_row(block=2)])
        assert store.count("utxo_inputs") == 2
        assert store.tables["utxo_inputs"][1].block_number == 2

    def test_schema_enforced(self):
        store = DatasetStore(chain="test")
        with pytest.raises(DatasetError):
            store.insert("utxo_inputs", [object()])

    def test_unknown_table(self):
        store = DatasetStore(chain="test")
        with pytest.raises(DatasetError):
            store.insert("nonsense", [])

    def test_group_by_block_sorted(self):
        store = DatasetStore(chain="test")
        store.insert(
            "utxo_inputs",
            [_input_row(block=5), _input_row(block=1), _input_row(block=5)],
        )
        grouped = store.group_by_block("utxo_inputs")
        assert list(grouped) == [1, 5]
        assert len(grouped[5]) == 2

    def test_csv_round_trip(self, tmp_path):
        store = DatasetStore(chain="test")
        store.insert("utxo_inputs", [_input_row()])
        store.insert(
            "blocks",
            [
                BlockRow(
                    block_number=0,
                    timestamp=1.25,
                    miner="m",
                    transaction_count=2,
                )
            ],
        )
        written = store.export_csv(tmp_path)
        assert len(written) == 2
        loaded = DatasetStore.import_csv("test", tmp_path)
        assert loaded.count("utxo_inputs") == 1
        assert loaded.count("blocks") == 1
        assert loaded.tables["blocks"][0].timestamp == pytest.approx(1.25)

    def test_import_ignores_missing_tables(self, tmp_path):
        loaded = DatasetStore.import_csv("test", tmp_path)
        assert loaded.count("blocks") == 0
