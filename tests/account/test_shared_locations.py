"""Each account location and access set is built once and shared.

An account block's tasks (from execution receipts) and its static
predictions (from the contracts' closed access sets) name the same
``balance:`` / ``storage:`` locations.  :mod:`repro.sets` spells them
and hands out one string per distinct location and one frozenset per
distinct access set, so a task and its exact prediction hold the same
two sets, while a wider prediction keeps sets of its own.  These tests
pin that sharing by identity, that the memos are bounded, and that the
slotted account records keep equality, hashing and pickling.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import sets
from repro.account.transaction import InternalTransaction
from repro.execution.parallel_replay import replay_block_inputs
from repro.node.node import NodeTx
from repro.workload.profiles import ETHEREUM


@pytest.fixture(scope="module")
def blocks():
    """A small generated ethereum chain whose contracts all take dynamic
    operands, so some predictions are exact, some wider, some widened."""
    profile = dataclasses.replace(
        ETHEREUM, num_dynamic_contracts=ETHEREUM.num_contracts
    )
    return replay_block_inputs(profile, blocks=6, seed=3, scale=0.2)


def pairs(blocks):
    for block in blocks:
        assert len(block.tasks) == len(block.predictions)
        for task, prediction in zip(block.tasks, block.predictions):
            assert task.tx_hash == prediction.tx_hash
            yield task, prediction


def is_exact(task, prediction) -> bool:
    return (
        not prediction.is_widened
        and prediction.reads == task.reads
        and prediction.writes == task.writes
    )


def test_each_location_is_one_string(blocks):
    objects, values = set(), set()
    for task, prediction in pairs(blocks):
        for access in (
            task.reads, task.writes, prediction.reads, prediction.writes
        ):
            for location in access:
                objects.add(id(location))
                values.add(location)
    assert len(values) > 100
    assert len(objects) == len(values)


def test_exact_prediction_holds_its_tasks_sets(blocks):
    exact = [pair for pair in pairs(blocks) if is_exact(*pair)]
    assert len(exact) > 50
    assert any(task.reads for task, _prediction in exact)
    for task, prediction in exact:
        assert prediction.reads is task.reads
        assert prediction.writes is task.writes


def test_wider_prediction_keeps_sets_of_its_own(blocks):
    wider = widened = 0
    for task, prediction in pairs(blocks):
        if is_exact(task, prediction):
            continue
        if prediction.is_widened:
            widened += 1
        else:
            wider += 1
            assert prediction.covers_task(task)
        if prediction.writes != task.writes:
            assert prediction.writes is not task.writes
        if prediction.reads != task.reads:
            assert prediction.reads is not task.reads
    assert wider > 5 and widened > 5


def test_equal_sets_are_one_object_and_empty_is_empty():
    first = sets.access_set({sets.balance_location("0xab")})
    assert sets.access_set({"balance:0xab"}) is first
    assert sets.access_set(set()) is sets.EMPTY
    assert sets.balance_location("0xab") is sets.balance_location("0xab")
    assert sets.storage_location("0xab", "k") == "storage:0xab:k"
    assert sets.storage_location("0xab", "k") is sets.storage_location(
        "0xab", "k"
    )


@pytest.mark.parametrize("memo", [
    sets.balance_location, sets.storage_location, sets._shared_set,
], ids=lambda memo: memo.__name__)
def test_memos_are_bounded(memo):
    maxsize = memo.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize == sets.MEMO_SIZE


def round_trip(value):
    restored = pickle.loads(pickle.dumps(value))
    assert restored == value and hash(restored) == hash(value)
    return restored


def test_pickle_round_trip_keeps_records(blocks):
    executed = next(
        item for block in blocks for item in block.payload
        if item.receipt.internal_transactions and item.receipt.storage_reads
    )
    round_trip(executed)
    round_trip(executed.receipt)
    # No set inside, so the repr is order-free too.
    for value in (executed.tx, executed.receipt.internal_transactions[0]):
        assert repr(round_trip(value)) == repr(value)
    task, prediction = next(
        (task, prediction) for task, prediction in pairs(blocks)
        if task.tx_hash == executed.tx_hash
    )
    node_tx = NodeTx(
        task=task, payload=executed, fee=3, weight=1, prediction=prediction
    )
    restored = round_trip(node_tx)
    assert restored.payload.tx.data == executed.tx.data


def test_account_records_have_no_instance_dict(blocks):
    item = next(item for block in blocks for item in block.payload)
    internal = InternalTransaction(sender="a", receiver="b")
    for value in (item, item.receipt, item.tx, internal):
        assert not hasattr(value, "__dict__"), type(value).__name__
