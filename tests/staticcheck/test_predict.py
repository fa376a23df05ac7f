"""Predicted access sets, conflicts, TDGs, and task expansion."""

from __future__ import annotations

from repro.account.transaction import (
    make_account_transaction,
    make_coinbase_transaction,
)
from repro.execution.engine import TxTask, tasks_from_utxo_block
from repro.staticcheck.interproc import ContractAnalyzer
from repro.staticcheck.predict import (
    PredictedAccess,
    expanded_tasks,
    predict_block,
    predict_transaction,
    predict_utxo_block,
    predicted_conflicts,
    predicted_tdg,
    unknown_access,
)
from repro.vm.contract import CodeRegistry


def make_analyzer(bodies: dict[str, str], bindings: dict[str, str]):
    registry = CodeRegistry()
    for code_id, text in bodies.items():
        registry.register_assembly(code_id, text)
    return ContractAnalyzer(registry, bindings)


def tx(sender: str, receiver: str, value: int = 1, nonce: int = 0):
    return make_account_transaction(
        sender=sender, receiver=receiver, value=value, nonce=nonce
    )


def test_plain_transfer_predicts_balance_writes_only():
    analyzer = make_analyzer({}, {})
    prediction = predict_transaction(tx("alice", "bob"), analyzer)
    assert prediction.writes == {
        "balance:alice", "balance:bob",
    }
    assert prediction.reads == frozenset()
    assert not prediction.is_widened


def test_contract_call_adds_closed_storage_access():
    analyzer = make_analyzer(
        {"token": "sload k\npush 1\nadd\nsstore k\nstop"},
        {"tok": "token"},
    )
    prediction = predict_transaction(tx("alice", "tok"), analyzer)
    assert "storage:tok:k" in prediction.reads
    assert "storage:tok:k" in prediction.writes
    assert "balance:alice" in prediction.writes


def test_widened_contract_sets_wildcards():
    analyzer = make_analyzer(
        {
            "counter": "sload n\npush 1\nadd\nsstore n\npush 7\nsload n\n"
                       "sstore $\nstop",
        },
        {"cc": "counter"},
    )
    prediction = predict_transaction(tx("alice", "cc"), analyzer)
    assert prediction.write_wild == frozenset({"cc"})
    assert not prediction.global_top
    assert "cc" in prediction.write_addrs


def test_dynamic_transfer_collapses_to_global_top():
    analyzer = make_analyzer(
        {"payout": "sload payee\ntransfer $ 3\nstop"},
        {"pp": "payout"},
    )
    prediction = predict_transaction(tx("alice", "pp"), analyzer)
    assert prediction.global_top


def test_predict_block_skips_coinbase():
    analyzer = make_analyzer({}, {})
    transactions = [
        make_coinbase_transaction(miner="m", reward=5, height=1),
        tx("alice", "bob"),
    ]
    predictions = predict_block(transactions, analyzer)
    assert len(predictions) == 1
    assert predictions[0].tx_hash == transactions[1].tx_hash


def test_utxo_predictions_are_the_tasks_write_sets(small_bitcoin_ledger):
    """A UTXO prediction is exact: per regular transaction, in block
    order, the task adapter's write set and nothing read or widened."""
    for block in small_bitcoin_ledger:
        predictions = predict_utxo_block(block.transactions)
        tasks = tasks_from_utxo_block(block.transactions)
        assert [(p.tx_hash, p.writes) for p in predictions] == [
            (t.tx_hash, t.writes) for t in tasks
        ]
        assert not any(p.reads or p.is_widened for p in predictions)
        regular = [tx for tx in block.transactions if not tx.is_coinbase]
        assert len(regular) == len(predictions)
        for prediction, tx in zip(predictions, regular):
            assert prediction.writes == {
                str(outpoint)
                for outpoint in (*tx.inputs, *tx.outpoints_created())
            }


def test_concrete_conflict_rules():
    a = PredictedAccess(tx_hash="a", writes=frozenset({"balance:x"}))
    b = PredictedAccess(tx_hash="b", writes=frozenset({"balance:x"}))
    c = PredictedAccess(tx_hash="c", reads=frozenset({"balance:x"}))
    d = PredictedAccess(tx_hash="d", writes=frozenset({"balance:y"}))
    assert predicted_conflicts(a, b)       # write/write
    assert predicted_conflicts(a, c)       # write/read
    assert not predicted_conflicts(a, d)   # disjoint


def test_wildcard_conflicts_by_address():
    wild = PredictedAccess(
        tx_hash="w",
        write_wild=frozenset({"cc"}),
        write_addrs=frozenset({"cc"}),
    )
    touches = PredictedAccess(
        tx_hash="t",
        reads=frozenset({"storage:cc:slot"}),
        read_addrs=frozenset({"cc"}),
    )
    elsewhere = PredictedAccess(
        tx_hash="e",
        writes=frozenset({"storage:dd:slot"}),
        write_addrs=frozenset({"dd"}),
    )
    assert predicted_conflicts(wild, touches)
    assert predicted_conflicts(touches, wild)  # symmetric
    assert not predicted_conflicts(wild, elsewhere)


def test_global_top_conflicts_with_everything():
    top = unknown_access("t")
    other = PredictedAccess(tx_hash="o")
    assert predicted_conflicts(top, other)
    assert predicted_conflicts(other, top)


def test_read_wild_only_conflicts_with_writes():
    reader = PredictedAccess(
        tx_hash="r",
        read_wild=frozenset({"cc"}),
        read_addrs=frozenset({"cc"}),
    )
    other_reader = PredictedAccess(
        tx_hash="o",
        reads=frozenset({"storage:cc:k"}),
        read_addrs=frozenset({"cc"}),
    )
    writer = PredictedAccess(
        tx_hash="w",
        writes=frozenset({"storage:cc:k"}),
        write_addrs=frozenset({"cc"}),
    )
    assert not predicted_conflicts(reader, other_reader)
    assert predicted_conflicts(reader, writer)


def test_predicted_tdg_groups_by_conflict():
    a = PredictedAccess(tx_hash="a", writes=frozenset({"balance:x"}))
    b = PredictedAccess(tx_hash="b", writes=frozenset({"balance:x"}))
    c = PredictedAccess(tx_hash="c", writes=frozenset({"balance:z"}))
    tdg = predicted_tdg([a, b, c])
    assert tdg.num_transactions == 3
    assert tdg.num_conflicted == 2
    assert tdg.lcc_size == 2


def test_covers_task_handles_wildcards():
    prediction = PredictedAccess(
        tx_hash="p",
        writes=frozenset({"balance:alice"}),
        write_wild=frozenset({"cc"}),
        write_addrs=frozenset({"cc"}),
    )
    task = TxTask(
        tx_hash="p",
        writes=frozenset({"balance:alice", "storage:cc:anything"}),
    )
    assert prediction.covers_task(task)
    uncovered = TxTask(tx_hash="p", writes=frozenset({"balance:bob"}))
    assert not prediction.covers_task(uncovered)


def test_expanded_tasks_agree_with_predicted_conflicts():
    predictions = [
        PredictedAccess(
            tx_hash="w",
            write_wild=frozenset({"cc"}),
            write_addrs=frozenset({"cc"}),
        ),
        PredictedAccess(
            tx_hash="t",
            reads=frozenset({"storage:cc:slot"}),
            read_addrs=frozenset({"cc"}),
        ),
        PredictedAccess(
            tx_hash="e",
            writes=frozenset({"storage:dd:slot"}),
            write_addrs=frozenset({"dd"}),
        ),
        unknown_access("g"),
    ]
    tasks = {
        task.tx_hash: task for task in expanded_tasks(predictions)
    }
    for i, a in enumerate(predictions):
        for b in predictions[i + 1:]:
            expected = predicted_conflicts(a, b)
            actual = tasks[a.tx_hash].conflicts_with(tasks[b.tx_hash])
            assert actual == expected, (a.tx_hash, b.tx_hash)


def test_expanded_tasks_use_given_costs():
    predictions = [PredictedAccess(tx_hash="a")]
    (task,) = expanded_tasks(predictions, costs={"a": 2.5})
    assert task.cost == 2.5
