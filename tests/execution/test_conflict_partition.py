"""The location-indexed conflict partition against its pairwise definition.

``predicted_conflicts`` and ``TxTask.conflicts_with`` say when *two*
items conflict; ``conflict_partition`` and ``cross_group_conflicts``
must give, per location and in linear time, exactly what the closure
over all pairs gives.  The pairwise loops the executors used to run
are kept here as the reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution.conflict_partition import (
    conflict_partition,
    cross_group_conflicts,
)
from repro.execution.engine import (
    TxTask,
    conflict_groups,
    predicted_groups,
    tasks_from_utxo_block,
)
from repro.execution.grouped import cross_group_aborts
from repro.execution.parallel_replay import (
    ENGINES,
    ReplayBlock,
    replay_chain,
)
from repro.execution.speculative import split_conflicted
from repro.staticcheck.predict import (
    PredictedAccess,
    predict_utxo_block,
    predicted_conflicts,
    predicted_tdg,
)
from repro.utxo.transaction import TxOutputSpec, make_transaction
from repro.utxo.txo import OutPoint

ADDRESSES = ("A", "B", "C")
LOCATIONS = tuple(
    [f"storage:{address}:{key}" for address in ADDRESSES for key in "12"]
    + [f"balance:{address}" for address in ADDRESSES]
)


# -- references: the pairwise definitions -------------------------------------


def pairwise_components(items, conflicts) -> list[list[int]]:
    """Connected components of the pairwise *conflicts* graph, groups
    in first-seen order with members in block order."""
    adjacent = {index: set() for index in range(len(items))}
    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            if conflicts(a, items[j]):
                adjacent[i].add(j)
                adjacent[j].add(i)
    seen: set[int] = set()
    groups: list[list[int]] = []
    for start in range(len(items)):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            for neighbour in adjacent[frontier.pop()]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        seen |= component
        groups.append(sorted(component))
    return groups


def pairwise_cross_group_aborts(tasks, groups) -> list[TxTask]:
    """The chain schedule's safety net as it was: every pair."""
    group_of = {
        task.tx_hash: index
        for index, group in enumerate(groups) for task in group
    }
    aborted: set[str] = set()
    for i, a in enumerate(tasks):
        for b in tasks[i + 1:]:
            if group_of[a.tx_hash] == group_of[b.tx_hash]:
                continue
            if a.conflicts_with(b):
                aborted.update((a.tx_hash, b.tx_hash))
    return [task for task in tasks if task.tx_hash in aborted]


# -- strategies ---------------------------------------------------------------


def storage_addresses(locations, wild) -> frozenset[str]:
    """The derived ``*_addrs`` index, as ``predict_transaction`` fills it."""
    found = set(wild)
    for location in locations:
        if location.startswith("storage:"):
            found.add(location.split(":", 2)[1])
    return frozenset(found)


location_sets = st.frozensets(st.sampled_from(LOCATIONS), max_size=3)
# Wildcards are rare in real blocks; keep most draws concrete so the
# components do not all collapse into one.
address_sets = st.one_of(
    st.just(frozenset()),
    st.just(frozenset()),
    st.frozensets(st.sampled_from(ADDRESSES), max_size=2),
)


@st.composite
def predictions(draw) -> list[PredictedAccess]:
    count = draw(st.integers(min_value=0, max_value=9))
    block = []
    for index in range(count):
        reads, writes = draw(location_sets), draw(location_sets)
        read_wild, write_wild = draw(address_sets), draw(address_sets)
        block.append(PredictedAccess(
            tx_hash=f"tx{index}",
            reads=reads,
            writes=writes,
            read_wild=read_wild,
            write_wild=write_wild,
            global_top=draw(st.integers(0, 19)) == 0,
            read_addrs=storage_addresses(reads, read_wild),
            write_addrs=storage_addresses(writes, write_wild),
        ))
    return block


@st.composite
def labelled_tasks(draw) -> tuple[list[TxTask], list[int]]:
    count = draw(st.integers(min_value=0, max_value=10))
    tasks = [
        TxTask(
            tx_hash=f"tx{index}",
            reads=draw(location_sets),
            writes=draw(location_sets),
        )
        for index in range(count)
    ]
    labels = [draw(st.integers(0, 3)) for _ in range(count)]
    return tasks, labels


# -- the partition ------------------------------------------------------------


class TestPartitionEqualsPairwiseClosure:
    @settings(max_examples=400, deadline=None)
    @given(block=predictions())
    def test_predicted_sets_with_widened_forms(self, block):
        expected = pairwise_components(block, predicted_conflicts)
        assert conflict_partition(block) == expected
        # Everything built on it: the predicted TDG ...
        assert predicted_tdg(block).groups == tuple(
            tuple(block[index].tx_hash for index in group)
            for group in expected
        )
        # ... static-grouped's groups, static-informed's bin.
        tasks = [TxTask(tx_hash=item.tx_hash) for item in block]
        by_hash = {item.tx_hash: item for item in block}
        groups = predicted_groups(by_hash, tasks)
        assert [
            [task.tx_hash for task in group] for group in groups
        ] == [[block[index].tx_hash for index in group] for group in expected]
        has_partner = {
            a.tx_hash for a in block
            if any(b is not a and predicted_conflicts(a, b) for b in block)
        }
        _clean, binned = split_conflicted(tasks, groups)
        assert {task.tx_hash for task in binned} == has_partner

    @settings(max_examples=200, deadline=None)
    @given(drawn=labelled_tasks())
    def test_runtime_sets(self, drawn):
        tasks, _labels = drawn
        expected = pairwise_components(tasks, TxTask.conflicts_with)
        assert conflict_partition(tasks) == expected
        assert conflict_groups(tasks) == [
            [tasks[index] for index in group] for group in expected
        ]

    def test_groups_first_seen_members_in_block_order(self):
        tasks = [
            TxTask("a", writes=frozenset({"x"})),
            TxTask("b", writes=frozenset({"y"})),
            TxTask("c", reads=frozenset({"y"})),
            TxTask("d", writes=frozenset({"x", "z"})),
            TxTask("e", reads=frozenset({"z"})),
        ]
        assert conflict_partition(tasks) == [[0, 3, 4], [1, 2]]

    def test_read_only_sharers_are_never_merged(self):
        readers = [
            TxTask(f"r{index}", reads=frozenset({"hot"})) for index in range(5)
        ]
        assert conflict_partition(readers) == [[i] for i in range(5)]
        wild = [
            PredictedAccess(
                tx_hash=f"r{index}",
                reads=frozenset({"storage:A:1"}),
                read_wild=frozenset({"A"}),
                read_addrs=frozenset({"A"}),
            )
            for index in range(4)
        ]
        assert conflict_partition(wild) == [[i] for i in range(4)]
        # One writer at the address joins every wildcard reader of it.
        writer = PredictedAccess(
            tx_hash="w",
            writes=frozenset({"storage:A:2"}),
            write_addrs=frozenset({"A"}),
        )
        assert conflict_partition(wild + [writer]) == [[0, 1, 2, 3, 4]]

    def test_global_top_is_one_group(self):
        block = [
            PredictedAccess(tx_hash="a", writes=frozenset({"x"})),
            PredictedAccess(tx_hash="b", global_top=True),
            PredictedAccess(tx_hash="c", writes=frozenset({"y"})),
        ]
        assert conflict_partition(block) == [[0, 1, 2]]

    def test_empty(self):
        assert conflict_partition([]) == []
        assert cross_group_conflicts([], []) == []


# -- the safety net -----------------------------------------------------------


class TestCrossGroupConflicts:
    @settings(max_examples=400, deadline=None)
    @given(drawn=labelled_tasks())
    def test_equals_pairwise_abort_scan(self, drawn):
        """Any grouping, sound or not: same aborts, in block order."""
        tasks, labels = drawn
        groups: dict[int, list[TxTask]] = {}
        for task, label in zip(tasks, labels):
            groups.setdefault(label, []).append(task)
        ordered = list(groups.values())
        expected = pairwise_cross_group_aborts(tasks, ordered)
        assert cross_group_aborts(tasks, ordered) == expected
        assert [
            tasks[index] for index in cross_group_conflicts(tasks, labels)
        ] == expected

    def test_sound_grouping_has_no_crossing(self):
        tasks = [
            TxTask("a", writes=frozenset({"x"})),
            TxTask("b", reads=frozenset({"x"})),
            TxTask("c", reads=frozenset({"x"})),
        ]
        labels = [0] * len(tasks)
        for label, group in enumerate(conflict_partition(tasks)):
            for index in group:
                labels[index] = label
        assert cross_group_conflicts(tasks, labels) == []

    def test_readers_in_the_writers_group_are_spared(self):
        tasks = [
            TxTask("w", writes=frozenset({"x"})),
            TxTask("near", reads=frozenset({"x"})),
            TxTask("far", reads=frozenset({"x"})),
        ]
        # "far" reads what group 0 writes; "near" shares that group.
        assert cross_group_conflicts(tasks, [0, 0, 1]) == [0, 2]


# -- no pair is ever asked ----------------------------------------------------


def wide_utxo_block(size: int) -> ReplayBlock:
    """*size* transactions: independent spends plus a few chains."""
    transactions = []
    for index in range(size):
        if index % 10 == 9:
            spent = transactions[-1].outputs[0].outpoint
        else:
            spent = OutPoint(tx_hash=f"funding{index}", index=0)
        transactions.append(make_transaction(
            [spent],
            [TxOutputSpec(value=1, owner=f"owner{index}")] * 2,
            nonce=index,
        ))
    return ReplayBlock(
        height=1,
        tasks=tuple(tasks_from_utxo_block(transactions)),
        payload=tuple(transactions),
        predictions=tuple(predict_utxo_block(transactions)),
    )


def test_no_engine_asks_a_pairwise_question(monkeypatch):
    """Replaying a block costs no pairwise conflict test at all: with
    both two-item predicates rigged to raise, a 300-task block still
    replays through all eight engines, to one state root."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("pairwise conflict test on the replay path")

    monkeypatch.setattr(TxTask, "conflicts_with", refuse)
    monkeypatch.setattr("repro.staticcheck.predict.predicted_conflicts", refuse)
    monkeypatch.setattr("repro.staticcheck.predicted_conflicts", refuse)
    with pytest.raises(AssertionError):
        TxTask("a").conflicts_with(TxTask("b"))

    block = wide_utxo_block(300)
    result = replay_chain(
        [block], data_model="utxo", engines=ENGINES, backend="serial"
    )
    assert len(result.records) == len(ENGINES)
    assert {record.num_tasks for record in result.records} == {300}
    assert len({record.state_root for record in result.records}) == 1
    grouped = {r.engine: r for r in result.records}["static-grouped"]
    assert grouped.aborts == 0 and grouped.wall_time < 300
