"""Replay records come from engine values; the rows must agree.

The replay builds every :class:`BlockReplay` from what an engine's run
hands back — its :class:`ExecutionReport`, commit stream included — and
reads no flight-recorder row.  Two things keep that honest:

* a property over random blocks and every engine of ``ENGINE_SPECS``:
  the record built from the values equals the reduction of that same
  run's own expanded rows (the loop ``_block_records`` used to run, kept
  here as the oracle);
* counts, not times, over an uninstrumented replay of the golden
  chains: no row is expanded, no ``TimelineEvent`` built, no metric-only
  pass runs, a block costs at most three conflict partitions and one
  ``state-root`` hash per distinct class of commit order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.execution import engine as engine_module
from repro.execution import parallel_replay
from repro.execution.dag import DependencyDAG
from repro.execution.engine import TxTask
from repro.execution.grouped import GroupedExecutor, StaticGroupedExecutor
from repro.execution.parallel_replay import (
    ReplayBlock,
    replay_block_inputs,
    replay_chain,
)
from repro.execution.registry import ENGINE_SPECS, BlockConflicts, run_engine
from repro.execution.speculative import (
    InformedSpeculativeExecutor,
    StaticInformedExecutor,
)
from repro.obs import ObservabilityState, timeline
from repro.obs.lifecycle import NOOP_LIFECYCLE
from repro.obs.metrics import NOOP_REGISTRY
from repro.obs.timeline import FlightRecorder
from repro.obs.tracer import NOOP_TRACER
from repro.staticcheck.predict import PredictedAccess
from repro.workload.profiles import PROFILES_BY_NAME
from tests.core.test_golden_regression import GOLDEN_CHAINS

ENGINES = tuple(ENGINE_SPECS)
HEIGHT = 3


@dataclass(frozen=True)
class Touching:
    """What ``account_dag`` reads of an executed transaction."""

    tx_hash: str
    touched: tuple[str, ...]
    is_coinbase = False

    @property
    def tx(self):
        return SimpleNamespace(
            sender=self.touched[0], receiver=self.touched[-1]
        )

    def edges(self):
        return list(zip(self.touched, self.touched[1:]))


LOCATIONS = st.frozensets(st.sampled_from("abcd"), max_size=2)


@st.composite
def blocks(draw):
    """Few locations, reads and writes, zero-cost tasks (so commits tie
    on the clock), and per task a prediction that is exact, widened,
    missing a location it should have, or absent."""
    count = draw(st.integers(min_value=0, max_value=9))
    tasks = tuple(
        TxTask(
            tx_hash=f"tx{index}",
            cost=draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])),
            reads=draw(LOCATIONS),
            writes=draw(LOCATIONS),
        )
        for index in range(count)
    )
    predictions = []
    for task in tasks:
        kind = draw(st.sampled_from(["exact", "wider", "unsound", "none"]))
        if kind == "none":
            continue
        reads, writes = task.reads, task.writes
        if kind == "wider":
            writes = writes | draw(LOCATIONS)
        elif kind == "unsound":
            reads, writes = frozenset(), frozenset(sorted(writes)[:1])
        predictions.append(PredictedAccess(
            tx_hash=task.tx_hash, reads=reads, writes=writes,
        ))
    payload = tuple(
        Touching(
            task.tx_hash,
            tuple(sorted(task.reads | task.writes)) or (task.tx_hash,),
        )
        for task in tasks
    )
    return ReplayBlock(
        height=HEIGHT, tasks=tasks, payload=payload,
        predictions=tuple(predictions),
    )


def reduce_rows(rows, engine, tasks):
    """What ``_block_records`` used to read off an engine's rows."""
    position = {task.tx_hash: index for index, task in enumerate(tasks)}
    counts = {"schedule": 0, "abort": 0, "retry": 0}
    commits = []
    for executor, block, _round, kind, task, _lane, clock, _cost in rows:
        if executor != engine:
            continue
        assert block == HEIGHT
        if kind == "commit":
            commits.append((clock, position[task], task))
        elif kind in counts:
            counts[kind] += 1
    commits.sort()
    return (
        tuple(task for _clock, _index, task in commits),
        counts["schedule"], counts["abort"], counts["retry"], len(commits),
    )


def recorded(height, runs):
    """Call each of *runs* under one private recorder; reports + rows."""
    recorder = FlightRecorder()
    scope = ObservabilityState(
        registry=NOOP_REGISTRY, tracer=NOOP_TRACER, recorder=recorder,
        lifecycle=NOOP_LIFECYCLE,
    )
    with obs.scoped(scope), recorder.block(height):
        reports = [run() for run in runs]
    return reports, recorder.dump_rows()


def run_recorded(block, cores, conflicts):
    return recorded(block.height, [
        lambda engine=engine: run_engine(
            engine, "account", block, cores, conflicts
        )
        for engine in ENGINES
    ])


@settings(max_examples=250, deadline=None)
@given(block=blocks(), cores=st.integers(min_value=1, max_value=4))
def test_values_equal_the_reduction_of_the_rows(block, cores):
    reports, rows = run_recorded(block, cores, BlockConflicts(block))
    # The payload only feeds the receipt digest, which wants real
    # transactions; the fields under test do not read it.
    records = parallel_replay._block_records(
        replace(block, payload=()), ENGINES, reports
    )
    for engine, record in zip(ENGINES, records):
        assert (
            record.commit_order, record.scheduled, record.aborted,
            record.retried, record.committed,
        ) == reduce_rows(rows, engine, block.tasks), engine
        assert record.committed == record.num_tasks == len(block.tasks)
    # Sharing the block's partitions changes nothing an engine returns
    # or records.
    assert run_recorded(block, cores, None) == (reports, rows)


@settings(max_examples=60, deadline=None)
@given(block=blocks(), cores=st.integers(min_value=1, max_value=3))
def test_commit_clocks_are_the_rows_clocks_behind_a_charge(block, cores):
    """``run_engine`` charges no K; the schedules' own K shifts every
    commit, retries included, exactly as it shifts the rows."""
    predictions = {p.tx_hash: p for p in block.predictions}
    executors = [
        InformedSpeculativeExecutor(cores, preprocessing_cost=0.75),
        StaticInformedExecutor(cores, predictions, preprocessing_cost=0.75),
        GroupedExecutor(cores, scheduling_cost=0.75),
        StaticGroupedExecutor(cores, predictions, scheduling_cost=0.75),
    ]
    reports, rows = recorded(HEIGHT, [
        lambda executor=executor: executor.run(block.tasks)
        for executor in executors
    ])
    for executor, report in zip(executors, reports):
        assert sorted(report.commits) == sorted(
            (clock, task)
            for name, _b, _r, kind, task, _lane, clock, _cost in rows
            if name == executor.name and kind == "commit"
        ), executor.name


@pytest.fixture(scope="module")
def golden_inputs():
    return {
        name: replay_block_inputs(
            PROFILES_BY_NAME[name], blocks=args["num_blocks"],
            seed=args["seed"], scale=args["scale"],
        )
        for name, args in GOLDEN_CHAINS
    }


@pytest.mark.parametrize("chain", [name for name, _args in GOLDEN_CHAINS])
def test_uninstrumented_replay_pays_for_nothing_it_does_not_read(
    golden_inputs, chain, monkeypatch
):
    counts = {
        "expansions": 0, "events": 0, "partitions": 0, "critical_paths": 0,
        "state_roots": 0,
    }

    def counting(key, real):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(
        FlightRecorder, "_materialised",
        counting("expansions", FlightRecorder._materialised),
    )
    monkeypatch.setattr(
        timeline, "TimelineEvent",
        counting("events", timeline.TimelineEvent),
    )
    monkeypatch.setattr(
        engine_module, "conflict_partition",
        counting("partitions", engine_module.conflict_partition),
    )
    monkeypatch.setattr(
        DependencyDAG, "critical_path",
        counting("critical_paths", DependencyDAG.critical_path),
    )
    real_hash = parallel_replay.hash_parts

    def hashed(*parts):
        counts["state_roots"] += parts[0] == "state-root"
        return real_hash(*parts)

    monkeypatch.setattr(parallel_replay, "hash_parts", hashed)

    inputs = golden_inputs[chain]
    result = replay_chain(
        inputs, data_model=PROFILES_BY_NAME[chain].data_model,
        engines=ENGINES, backend="serial",
    )
    assert not obs.enabled()
    assert result.summary("occ").aborted > 0
    assert counts["expansions"] == counts["events"] == 0
    assert counts["critical_paths"] == 0
    assert 0 < counts["partitions"] <= 3 * len(inputs)
    roots_by_height: dict[int, set[str]] = {}
    for record in result.records:
        roots_by_height.setdefault(record.height, set()).add(
            record.state_root
        )
    assert counts["state_roots"] <= sum(
        len(roots) for roots in roots_by_height.values()
    )
    assert counts["state_roots"] == len(inputs)
