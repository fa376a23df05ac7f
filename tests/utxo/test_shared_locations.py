"""Each UTXO location is built once and shared.

A UTXO block's tasks and its static predictions name the same
locations: the ``"<tx_hash>:<index>"`` of every outpoint a transaction
spends or creates.  ``OutPoint`` keeps its location string and
``UTXOTransaction`` its write set, so the creator's task, its
prediction and the spender's task and prediction hold one string object
per outpoint, and a transaction's task and prediction one frozenset.
These tests pin that sharing by identity, and that the memos leave
values, equality, hashing, ordering, ``repr`` and pickling as they were.
"""

from __future__ import annotations

import pickle

import pytest

from repro.execution.engine import tasks_from_utxo_block, utxo_writes
from repro.execution.parallel_replay import replay_block_inputs
from repro.staticcheck.predict import predict_utxo_block
from repro.utxo.transaction import (
    TxOutputSpec,
    UTXOTransaction,
    make_transaction,
)
from repro.utxo.txo import TXO, OutPoint
from repro.workload.profiles import PROFILES_BY_NAME
from repro.workload.utxo_workload import build_utxo_chain


@pytest.fixture(scope="module")
def ledger():
    """A small generated bitcoin chain."""
    return build_utxo_chain(
        PROFILES_BY_NAME["bitcoin"], num_blocks=6, seed=3, scale=0.2
    )


@pytest.fixture(scope="module")
def block(ledger):
    """The chain's largest block."""
    return max(ledger, key=lambda item: len(item.transactions)).transactions


def test_task_and_prediction_hold_one_write_set(block):
    tasks = tasks_from_utxo_block(block)
    predictions = predict_utxo_block(block)
    assert len(tasks) == len(predictions) > 10
    for task, prediction in zip(tasks, predictions):
        assert task.tx_hash == prediction.tx_hash
        assert task.writes is prediction.writes


def test_spender_holds_the_creators_location_string(ledger):
    tasks = {
        task.tx_hash: task
        for item in ledger
        for task in tasks_from_utxo_block(item.transactions)
    }
    spends = 0
    for item in ledger:
        for tx in item.transactions:
            for op in tx.inputs:
                if op.tx_hash not in tasks:
                    continue  # spends a coinbase output
                location = str(op)
                creator = tasks[op.tx_hash].writes
                spender = tasks[tx.tx_hash].writes
                assert any(entry is location for entry in creator)
                assert any(entry is location for entry in spender)
                spends += 1
    assert spends > 10


def test_filled_memos_leave_values_unchanged(block):
    tx = next(tx for tx in block if not tx.is_coinbase)
    utxo_writes(tx)
    op = tx.inputs[0]
    str(op)
    fresh_op = OutPoint(tx_hash=op.tx_hash, index=op.index)
    assert op == fresh_op and hash(op) == hash(fresh_op)
    assert repr(op) == repr(fresh_op)
    assert not op < fresh_op and not fresh_op < op
    assert sorted([OutPoint(op.tx_hash, op.index + 1), op]) == sorted(
        [fresh_op, OutPoint(op.tx_hash, op.index + 1)]
    )
    assert str(fresh_op) == f"{op.tx_hash}:{op.index}" == str(op)

    fresh_tx = UTXOTransaction(
        inputs=tx.inputs, outputs=tx.outputs, tx_hash=tx.tx_hash,
        fee=tx.fee, size_bytes=tx.size_bytes,
    )
    assert tx == fresh_tx and hash(tx) == hash(fresh_tx)
    assert repr(tx) == repr(fresh_tx)
    assert utxo_writes(fresh_tx) == utxo_writes(tx)


def test_write_set_is_every_input_and_output_location():
    tx = make_transaction(
        [OutPoint("aa", 0), OutPoint("bb", 3)],
        [TxOutputSpec(value=5, owner="x"), TxOutputSpec(value=1, owner="y")],
    )
    assert utxo_writes(tx) == {
        "aa:0", "bb:3", f"{tx.tx_hash}:0", f"{tx.tx_hash}:1",
    }
    assert utxo_writes(tx) is utxo_writes(tx)


def test_pickle_round_trip_keeps_transactions_and_write_sets():
    """The spawn replay path pickles whole ``ReplayBlock`` slices."""
    blocks = replay_block_inputs(
        PROFILES_BY_NAME["bitcoin"], blocks=4, seed=5, scale=0.2
    )
    restored = pickle.loads(pickle.dumps(blocks))
    assert restored == blocks
    for before, after in zip(blocks, restored):
        assert after.payload == before.payload
        assert [task.writes for task in after.tasks] == [
            task.writes for task in before.tasks
        ]
        for task, prediction in zip(after.tasks, after.predictions):
            assert task.writes is prediction.writes
        regular = [tx for tx in after.payload if not tx.is_coinbase]
        assert [utxo_writes(tx) for tx in regular] == [
            task.writes for task in after.tasks
        ]


@pytest.mark.parametrize("value", [
    OutPoint("ab", 1),
    TXO(outpoint=OutPoint("ab", 0), value=1, owner="o"),
    TxOutputSpec(value=1, owner="o"),
    make_transaction([OutPoint("ab", 0)], [TxOutputSpec(value=1, owner="o")]),
], ids=lambda value: type(value).__name__)
def test_no_instance_dict(value):
    assert not hasattr(value, "__dict__")
