"""Critical-path profiler: recomputed makespans must equal reported
wall times, and strict executors must respect the Eq. 2 bound."""

from __future__ import annotations

import random

import pytest

from repro.execution.engine import TxTask
from repro.execution.registry import BlockConflicts, run_engine
from repro.execution.schedule import timeline_rows
from repro.obs.critical_path import (
    EQ2_STRICT_EXECUTORS,
    Execution,
    compare_to_bounds,
    extract_executions,
    longest_handoff_chain,
    profile_events,
    task_conflict_profile,
)
from repro.obs.timeline import as_events
from tests.obs.test_timeline import row
from repro.staticcheck.predict import PredictedAccess
from repro.workload.account_workload import build_account_chain
from repro.workload.profiles import ETHEREUM


def _conflicting_tasks():
    """Five unit-cost tasks: a 3-chain on one location, two solo."""
    return [
        TxTask(tx_hash="a", writes=frozenset({"k"})),
        TxTask(tx_hash="b", writes=frozenset({"k"})),
        TxTask(tx_hash="c", writes=frozenset({"k"})),
        TxTask(tx_hash="d", writes=frozenset({"x"})),
        TxTask(tx_hash="e", writes=frozenset({"y"})),
    ]


@pytest.fixture(scope="module")
def eth_blocks():
    builder = build_account_chain(ETHEREUM, num_blocks=6, seed=11, scale=0.5)
    from repro.execution.engine import tasks_from_account_block

    blocks = []
    for block, executed in builder.executed_blocks:
        tasks = tasks_from_account_block(executed)
        if tasks:
            blocks.append((block.header.height, tasks, executed))
    return blocks


class TestExtractExecutions:
    def test_pairs_by_task_round_lane(self):
        rows = [
            row("start", "a", executor="e", lane=0, clock=0.0, cost=1.0),
            row("abort", "a", executor="e", lane=0, clock=1.0, cost=1.0),
            row("start", "a", executor="e", lane=0, clock=1.0, cost=1.0,
                round_index=1),
            row("commit", "a", executor="e", lane=0, clock=2.0, cost=1.0,
                round_index=1),
        ]
        executions = extract_executions(as_events(rows))
        assert len(executions) == 2
        assert [e.committed for e in executions] == [False, True]
        assert executions[1].round == 1

    def test_finish_without_start_raises(self):
        rows = [
            row("commit", "ghost", executor="e", lane=0, clock=1.0),
        ]
        with pytest.raises(ValueError, match="without start"):
            extract_executions(as_events(rows))

    def test_unfinished_start_dropped(self):
        rows = [
            row("start", "a", executor="e", lane=0, clock=0.0),
        ]
        assert extract_executions(as_events(rows)) == []


class TestHandoffChain:
    def test_back_walks_finish_start_links(self):
        rows = []
        # Lane 0: a(0-2) -> b(2-3); lane 1: c(0-1), unlinked.
        for task, start, finish in (("a", 0.0, 2.0), ("b", 2.0, 3.0)):
            rows.append(row("start", task, executor="e", lane=0,
                            clock=start, cost=finish - start))
            rows.append(row("commit", task, executor="e", lane=0,
                            clock=finish, cost=finish - start))
        rows.append(row("start", "c", executor="e", lane=1, clock=0.0,
                        cost=1.0))
        rows.append(row("commit", "c", executor="e", lane=1, clock=1.0,
                        cost=1.0))
        chain, cost = longest_handoff_chain(
            extract_executions(as_events(rows))
        )
        assert chain == ("a", "b")
        assert cost == 3.0

    def test_empty(self):
        assert longest_handoff_chain([]) == ((), 0.0)

    @staticmethod
    def _reference(executions, eps=1e-9):
        """The full-scan walk the indexed one replaced."""
        current = max(executions, key=lambda e: (e.finish, e.cost))
        chain = [current]
        used = {id(current)}
        while True:
            candidates = [
                e for e in executions
                if id(e) not in used
                and abs(e.finish - current.start) <= eps
            ]
            if not candidates:
                break
            current = max(candidates, key=lambda e: (e.cost, -e.start))
            chain.append(current)
            used.add(id(current))
        chain.reverse()
        return tuple(e.task for e in chain), sum(e.cost for e in chain)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_full_scan_on_random_streams_with_ties(self, seed):
        """Clocks on a coarse grid (many equal finishes, equal costs and
        equal starts), some nudged by less than eps, in shuffled order:
        the chain, its tie-breaks included, is the full scan's."""
        rng = random.Random(seed)
        executions = []
        for index in range(rng.randrange(1, 120)):
            start = float(rng.randrange(0, 12))
            cost = float(rng.choice((0, 1, 1, 2, 3)))
            nudge = rng.choice((0.0, 0.0, 4e-10, -4e-10, 9e-10))
            executions.append(Execution(
                task=f"t{index}", lane=rng.randrange(4),
                round=rng.randrange(3), start=start,
                finish=start + cost + nudge, cost=cost,
                committed=rng.random() < 0.7,
            ))
        assert longest_handoff_chain(executions) == self._reference(
            executions
        )

    def test_matches_full_scan_at_clocks_coarser_than_eps(self):
        """Beyond 2**24 a float's neighbours are further apart than
        eps; equal clocks must still link."""
        base = float(2 ** 40)
        executions = [
            Execution("a", 0, 0, base, base + 2.0, 2.0, True),
            Execution("b", 1, 0, base, base + 2.0, 2.0, True),
            Execution("c", 0, 0, base + 2.0, base + 3.0, 1.0, True),
        ]
        assert longest_handoff_chain(executions) == self._reference(
            executions
        ) == (("a", "c"), 3.0)


class TestProfileEvents:
    def test_sequential_profile_is_exact(self):
        report = run_engine("sequential", _conflicting_tasks(), 1)
        profile = profile_events(as_events(timeline_rows(report, None)))
        assert profile.executor == "sequential"
        assert profile.makespan == report.wall_time == 5.0
        assert profile.executions == profile.committed == 5
        assert profile.aborted == 0
        assert len(profile.lanes) == 1
        assert profile.lanes[0].utilization == pytest.approx(1.0)
        # Back-to-back on one lane: the chain is the whole block.
        assert profile.critical_chain_cost == 5.0
        assert profile.rounds == 1

    def test_mixed_executor_slice_rejected(self):
        rows = [
            row("start", "a", executor="x", lane=0, clock=0.0),
            row("start", "b", executor="y", lane=0, clock=0.0),
        ]
        with pytest.raises(ValueError, match="one at a time"):
            profile_events(as_events(rows))

    @pytest.mark.parametrize(
        ("engine", "k"),
        [
            ("speculative", 0.0),
            ("speculative-informed", 1.0),
            ("occ", 0.0),
            ("grouped", 0.0),
        ],
        ids=["speculative", "speculative-informed", "occ", "grouped"],
    )
    def test_makespan_matches_reported_wall_time(self, engine, k, eth_blocks):
        for height, tasks, _executed in eth_blocks:
            report = run_engine(engine, tasks, 4, k=k)
            profile = profile_events(
                as_events(timeline_rows(report, height))
            )
            assert profile.blocks == (height,)
            assert profile.makespan == pytest.approx(
                report.wall_time, abs=1e-9
            )
            assert all(s.utilization <= 1.0 + 1e-9
                       for s in profile.lanes)


class TestBounds:
    def test_conflict_profile_counts(self):
        profile = task_conflict_profile(_conflicting_tasks())
        assert (profile.x, profile.conflicted, profile.lcc) == (5, 3, 3)
        assert profile.c == pytest.approx(0.6)
        assert profile.l == pytest.approx(0.6)

    def test_empty_block(self):
        profile = task_conflict_profile([])
        assert profile.c == profile.l == 0.0

    def test_strict_executors_stay_within_eq2(self, eth_blocks):
        def exact(tasks):
            return [
                PredictedAccess(
                    tx_hash=t.tx_hash, reads=t.reads, writes=t.writes
                )
                for t in tasks
            ]

        for name in (
            "speculative", "speculative-informed", "grouped",
            "static-informed", "static-grouped",
        ):
            assert name in EQ2_STRICT_EXECUTORS
            for _height, tasks, _executed in eth_blocks:
                report = run_engine(
                    name, tasks, 8,
                    conflicts=BlockConflicts(tasks, exact(tasks)),
                )
                comparison = compare_to_bounds(
                    report, task_conflict_profile(tasks)
                )
                assert comparison.strict
                assert comparison.within_eq2, (
                    f"{name}: {comparison.measured} > {comparison.eq2}"
                )

    def test_dag_may_exceed_but_never_violates(self, eth_blocks):
        for _height, tasks, _executed in eth_blocks:
            report = run_engine("dag", tasks, 8)
            comparison = compare_to_bounds(
                report, task_conflict_profile(tasks)
            )
            # DAG is non-strict: exceeding Eq. 2 is flagged, not failed.
            assert not comparison.strict
