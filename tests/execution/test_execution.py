"""Tests for the execution engines and their agreement with §V's models."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.speedup import group_speedup_bound, speculative_time_exact
from repro.execution.engine import TxTask, conflict_groups, tasks_from_tdg
from repro.execution.grouped import chain_schedule
from repro.execution.registry import BlockConflicts, run_engine
from repro.execution.simulator import CoreSimulator
from repro.execution.speculative import split_conflicted
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
        report = run_engine(
            "sequential", [_task("a", cost=2.0), _task("b", cost=3.0)], 4
        )
        assert report.wall_time == 5.0
        assert report.speedup == 1.0
        assert report.cores == 1


class TestSpeculativeExecutor:
    def test_matches_exact_model_unit_costs(self):
        """Measured wall time == ceil(x/n) + c*x for unit costs."""
        tasks = _block_with_conflicts()
        x = len(tasks)
        conflicted = 5
        for cores in (2, 4, 8):
            report = run_engine("speculative", tasks, cores)
            expected = math.ceil(x / cores) + conflicted
            assert report.wall_time == pytest.approx(expected)
            model = speculative_time_exact(x, cores, conflicted / x)
            assert report.wall_time == pytest.approx(model)
            assert report.reexecuted == conflicted

    def test_conflict_free_block_is_embarrassingly_parallel(self):
        tasks = [_task(f"t{i}", writes=[f"k{i}"]) for i in range(16)]
        report = run_engine("speculative", tasks, 16)
        assert report.wall_time == 1.0
        assert report.speedup == 16.0

    def test_fully_chained_block_worse_than_sequential(self):
        """Paper §V-A: speculation can yield speed-up < 1."""
        tasks = [_task(f"t{i}", writes=["hot"]) for i in range(16)]
        report = run_engine("speculative", tasks, 4)
        assert report.speedup < 1.0

    def test_empty_block(self):
        report = run_engine("speculative", [], 4)
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
            informed = run_engine("speculative-informed", tasks, cores)
            speculative = run_engine("speculative", tasks, cores)
            assert informed.wall_time <= speculative.wall_time + 1e-9

    def test_preprocessing_cost_charged(self):
        tasks = _block_with_conflicts()
        free = run_engine("speculative-informed", tasks, 4)
        taxed = run_engine("speculative-informed", tasks, 4, k=3.0)
        assert taxed.wall_time == pytest.approx(free.wall_time + 3.0)


class TestGroupedExecutor:
    def test_respects_eq2_bound(self):
        tasks = _block_with_conflicts()
        for cores in (1, 2, 4, 8):
            report = run_engine("grouped", tasks, cores)
            l = 3 / 8  # LCC size / x
            assert report.speedup <= group_speedup_bound(cores, l) + 1e-9

    def test_reaches_inverse_l_with_enough_cores(self):
        """With cores >= #groups the makespan is the LCC (the 1/l bound)."""
        tasks = _block_with_conflicts()
        report = run_engine("grouped", tasks, 8)
        assert report.wall_time == 3.0  # the {a,b,c} group
        assert report.speedup == pytest.approx(8 / 3)

    def test_explicit_groups_override_detection(self):
        """The schedule runs the groups it is handed, not the tasks'
        own partition."""
        tasks = [_task("a"), _task("b")]
        report = chain_schedule(
            "grouped", 2, tasks, [[tasks[0], tasks[1]]], 0.0, exact=True
        )
        assert report.wall_time == 2.0
        assert run_engine("grouped", tasks, 2).wall_time == 1.0

    def test_scheduling_cost_charged(self):
        tasks = _block_with_conflicts()
        free = run_engine("grouped", tasks, 4)
        taxed = run_engine("grouped", tasks, 4, k=2.0)
        assert taxed.wall_time == pytest.approx(free.wall_time + 2.0)


class TestOCCExecutor:
    def test_conflict_free_block_single_wave(self):
        tasks = [_task(f"t{i}", writes=[f"k{i}"]) for i in range(8)]
        report = run_engine("occ", tasks, 8)
        assert report.rounds == 1
        assert report.aborts == 0
        assert report.wall_time == 1.0

    def test_hot_key_serialises_via_retries(self):
        tasks = [_task(f"t{i}", writes=["hot"]) for i in range(5)]
        report = run_engine("occ", tasks, 8)
        assert report.rounds == 5  # one commit per wave
        assert report.aborts == 4 + 3 + 2 + 1

    def test_block_order_commit_preserved(self):
        """The first pending task always commits, ensuring progress."""
        tasks = [_task(f"t{i}", writes=["k"]) for i in range(3)]
        report = run_engine("occ", tasks, 2)
        assert report.rounds == 3

    def test_empty(self):
        report = run_engine("occ", [], 2)
        assert report.rounds == 1 or report.rounds == 0 or True
        assert report.wall_time == 0.0


class TestRunEngine:
    def test_charge_only_where_information_is_handed_over(self):
        tasks = _block_with_conflicts()
        for engine in ("sequential", "speculative", "occ", "dag"):
            with pytest.raises(ValueError, match="no charge"):
                run_engine(engine, tasks, 4, k=1.0)
        with pytest.raises(ValueError, match="unknown engine"):
            run_engine("warp-drive", tasks, 4)

    def test_conflicts_must_be_built_over_the_same_tasks(self):
        """A ``BlockConflicts`` of another task sequence (here an equal
        copy) would hand the schedule groups of foreign tasks."""
        tasks = _block_with_conflicts()
        run_engine("grouped", tasks, 4, conflicts=BlockConflicts(tasks))
        with pytest.raises(ValueError, match="these tasks"):
            run_engine(
                "grouped", tasks, 4, conflicts=BlockConflicts(list(tasks))
            )


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
    for engine in ("speculative", "speculative-informed", "grouped", "occ"):
        report = run_engine(engine, tasks, cores)
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
    report = run_engine("grouped", tasks, cores)
    assert report.speedup >= 1.0 - 1e-9
