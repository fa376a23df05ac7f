"""Replay records come from engine values; the rows must agree.

The replay builds every :class:`BlockReplay` from what an engine's run
hands back — its :class:`ExecutionReport`, whose schedule yields the
commit stream — and reads no flight-recorder row.  Two things keep that
honest:

* a property over random blocks and every engine of ``ENGINE_SPECS``:
  the record built from the values equals the reduction of the rows
  the same report's schedule expands to (:func:`timeline_rows`; the
  loop ``_block_records`` used to run, kept here as the oracle);
* counts, not times, over an uninstrumented replay of the golden
  chains: no row is built, no ``TimelineEvent`` either, no metric-only
  pass runs, a block costs one conflict partition (its predictions are
  exact, so the static engines share the oracle's) and one
  ``state-root`` hash per distinct class of commit order.

A second property holds the shared path of the two static engines —
the oracle partition and no safety net when every prediction is exact,
their own partition and both nets otherwise — to the standalone
executors.
"""

from __future__ import annotations

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
from repro.execution.schedule import timeline_rows
from repro.execution.speculative import (
    InformedSpeculativeExecutor,
    StaticInformedExecutor,
)
from repro.obs import timeline
from repro.staticcheck.predict import PredictedAccess
from repro.workload.profiles import PROFILES_BY_NAME
from tests.core.test_golden_regression import GOLDEN_CHAINS

ENGINES = tuple(ENGINE_SPECS)
HEIGHT = 3


LOCATIONS = st.frozensets(st.sampled_from("abcd"), max_size=2)


def is_exact(prediction, task):
    return (
        prediction is not None and not prediction.is_widened
        and (prediction.reads, prediction.writes)
        == (task.reads, task.writes)
    )


STORAGE = st.frozensets(
    st.sampled_from(
        ["storage:x:0", "storage:x:1", "storage:y:0", "balance:z"]
    ),
    max_size=2,
)
MODES = ("exact", "mixed", "wider", "unsound", "missing", "widened")


def addresses(locations):
    return frozenset(
        location.split(":", 2)[1] for location in locations
        if location.startswith("storage:")
    )


@st.composite
def predicted_blocks(draw):
    """A block whose predictions follow one block-wide mode: all exact,
    mixed per task, all wider, all unsound (missing a location), some
    absent, or some widened (``global_top`` or a ``write_wild`` on the
    address of a location the task touches)."""
    mode = draw(st.sampled_from(MODES))
    count = draw(st.integers(min_value=1, max_value=8))
    tasks = tuple(
        TxTask(
            tx_hash=f"tx{index}",
            cost=draw(st.sampled_from([0.0, 1.0, 1.0, 2.0])),
            reads=draw(STORAGE),
            writes=draw(STORAGE),
        )
        for index in range(count)
    )
    predictions = []
    for task in tasks:
        kind = mode
        if mode == "mixed":
            kind = draw(st.sampled_from(
                ["exact", "wider", "unsound", "missing", "widened"]
            ))
        elif mode in ("missing", "widened"):
            kind = draw(st.sampled_from(["exact", mode]))
        if kind == "missing":
            continue
        reads, writes = task.reads, task.writes
        write_wild: frozenset[str] = frozenset()
        global_top = False
        if kind == "wider":
            writes = writes | draw(STORAGE)
        elif kind == "unsound":
            reads, writes = frozenset(), frozenset(sorted(writes)[1:])
        elif kind == "widened":
            global_top = draw(st.booleans())
            write_wild = addresses(reads | writes) or frozenset({"x"})
        predictions.append(PredictedAccess(
            tx_hash=task.tx_hash, reads=reads, writes=writes,
            write_wild=write_wild, global_top=global_top,
            read_addrs=addresses(reads),
            write_addrs=addresses(writes) | write_wild,
        ))
    return ReplayBlock(
        height=HEIGHT, tasks=tasks, payload=(),
        predictions=tuple(predictions),
    )


STATIC_EXECUTORS = {
    "static-informed": StaticInformedExecutor,
    "static-grouped": StaticGroupedExecutor,
}


@settings(max_examples=300, deadline=None)
@given(block=predicted_blocks(), cores=st.integers(min_value=1, max_value=4))
def test_static_engines_on_the_shared_path_equal_the_standalone_executors(
    block, cores
):
    """Exact predictions hand the static engines the oracle partition
    itself and skip the nets; any other block keeps its own partition
    and both nets.  Either way ``run_engine`` with a shared
    :class:`BlockConflicts` reports and schedules what the standalone
    executor does."""
    predictions = {p.tx_hash: p for p in block.predictions}
    conflicts = BlockConflicts(block)
    for engine, executor in STATIC_EXECUTORS.items():
        shared = recorded(block.height, [
            lambda engine=engine: run_engine(
                engine, block, cores, conflicts
            ),
        ])
        alone = recorded(block.height, [
            lambda executor=executor: executor(cores, predictions).run(
                block.tasks
            ),
        ])
        assert shared == alone, engine
    exact = all(
        is_exact(predictions.get(task.tx_hash), task) for task in block.tasks
    )
    assert (conflicts.predicted is conflicts.oracle) == exact


@pytest.mark.parametrize("engine", sorted(STATIC_EXECUTORS))
def test_an_unsound_block_still_fires_the_net_through_run_engine(engine):
    """The prediction of tx1 misses the location it shares with tx0:
    the predicted groups split a true conflict, which the net catches
    on the shared path as it does standalone."""
    tasks = (
        TxTask("tx0", writes=frozenset({"balance:a"})),
        TxTask("tx1", writes=frozenset({"balance:a", "balance:b"})),
    )
    block = ReplayBlock(
        height=HEIGHT, tasks=tasks, payload=(),
        predictions=(
            PredictedAccess("tx0", writes=frozenset({"balance:a"})),
            PredictedAccess("tx1", writes=frozenset({"balance:b"})),
        ),
    )
    conflicts = BlockConflicts(block)
    report = run_engine(engine, block, 2, conflicts)
    assert conflicts.predicted is not conflicts.oracle
    assert report.aborts == report.reexecuted == 2
    alone = STATIC_EXECUTORS[engine](
        2, {p.tx_hash: p for p in block.predictions}
    ).run(tasks)
    assert report == alone
    assert timeline_rows(report, HEIGHT) == timeline_rows(alone, HEIGHT)


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
    return ReplayBlock(
        height=HEIGHT, tasks=tasks, payload=(),
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
    """Call each of *runs*; reports + their schedules' rows."""
    reports = [run() for run in runs]
    return reports, [
        row for report in reports for row in timeline_rows(report, height)
    ]


def run_recorded(block, cores, conflicts):
    return recorded(block.height, [
        lambda engine=engine: run_engine(
            engine, block, cores, conflicts
        )
        for engine in ENGINES
    ])


@settings(max_examples=250, deadline=None)
@given(block=blocks(), cores=st.integers(min_value=1, max_value=4))
def test_values_equal_the_reduction_of_the_rows(block, cores):
    reports, rows = run_recorded(block, cores, BlockConflicts(block))
    records = parallel_replay._block_records(block, ENGINES, reports)
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
        "rows": 0, "events": 0, "partitions": 0, "critical_paths": 0,
        "state_roots": 0,
    }

    def counting(key, real):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(
        parallel_replay, "timeline_rows",
        counting("rows", parallel_replay.timeline_rows),
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
    assert counts["rows"] == counts["events"] == 0
    assert counts["critical_paths"] == 0
    assert counts["partitions"] == sum(1 for block in inputs if block.tasks)
    roots_by_height: dict[int, set[str]] = {}
    for record in result.records:
        roots_by_height.setdefault(record.height, set()).add(
            record.state_root
        )
    assert counts["state_roots"] <= sum(
        len(roots) for roots in roots_by_height.values()
    )
    assert counts["state_roots"] == len(inputs)
