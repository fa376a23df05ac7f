"""The ``static-grouped`` engine: prediction-driven group scheduling."""

from __future__ import annotations

import pytest

from repro import obs
from repro.execution.engine import TxTask, predicted_groups
from repro.execution.grouped import chain_schedule
from repro.execution.registry import BlockConflicts, run_engine
from repro.execution.schedule import timeline_rows
from repro.obs.timeline import as_events
from repro.staticcheck.predict import PredictedAccess, unknown_access


def task(name: str, *, reads=(), writes=(), cost=1.0) -> TxTask:
    return TxTask(
        tx_hash=name,
        cost=cost,
        reads=frozenset(reads),
        writes=frozenset(writes),
    )


def exact_prediction(item: TxTask) -> PredictedAccess:
    return PredictedAccess(
        tx_hash=item.tx_hash, reads=item.reads, writes=item.writes
    )


def static_grouped(tasks, cores, predictions=(), k=0.0):
    return run_engine(
        "static-grouped", tasks, cores, k=k,
        conflicts=BlockConflicts(tasks, predictions),
    )


def test_validates_constructor_args():
    with pytest.raises(ValueError):
        static_grouped([], 0)
    with pytest.raises(ValueError):
        static_grouped([], 2, k=-1.0)


def test_empty_block_is_free():
    report = static_grouped([], 4)
    assert report.wall_time == 0.0
    assert report.num_tasks == 0


def test_exact_predictions_match_oracle_scheduler():
    """With perfect predictions the schedule equals the runtime-set
    oracle (``grouped``), and the safety net ``run_engine`` skips would
    not have fired: the chains over the predicted partition, net on,
    report the same."""
    tasks = [
        task("a", writes={"x"}),
        task("b", writes={"x"}),
        task("c", writes={"y"}, cost=2.0),
        task("d", writes={"z"}),
    ]
    predictions = [exact_prediction(t) for t in tasks]
    static = static_grouped(tasks, 2, predictions, k=0.5)
    oracle = run_engine("grouped", tasks, 2, k=0.5)
    assert static.wall_time == oracle.wall_time
    assert static.aborts == 0
    assert static.reexecuted == 0
    assert static.rounds == 1
    netted = chain_schedule(
        "static-grouped", 2, tasks,
        predicted_groups({p.tx_hash: p for p in predictions}, tasks),
        0.5, exact=False,
    )
    assert netted == static


def test_overapproximation_merges_groups_but_stays_safe():
    """A false-positive overlap serializes two independent tasks —
    slower, never wrong, and no aborts."""
    tasks = [task("a", writes={"x"}), task("b", writes={"y"})]
    predictions = [
        PredictedAccess(tx_hash="a", writes=frozenset({"x", "shared"})),
        PredictedAccess(tx_hash="b", writes=frozenset({"y", "shared"})),
    ]
    report = static_grouped(tasks, 2, predictions)
    assert report.wall_time == 2.0  # one group, sequential chain
    assert report.aborts == 0


def test_missing_predictions_degrade_to_sequential():
    """No predictions → every task is ⊤ → one group in block order."""
    tasks = [task("a", writes={"x"}), task("b", writes={"y"})]
    report = static_grouped(tasks, 4)
    assert report.wall_time == 2.0
    assert report.aborts == 0
    explicit_top = [unknown_access(t.tx_hash) for t in tasks]
    explicit = static_grouped(tasks, 4, explicit_top)
    assert explicit.wall_time == report.wall_time


def test_unsound_predictions_trigger_safety_net():
    tasks = [task("a", writes={"x"}), task("b", writes={"x"})]
    # Deliberately wrong: claims the tasks are independent.
    predictions = [
        PredictedAccess(tx_hash="a", writes=frozenset({"p"})),
        PredictedAccess(tx_hash="b", writes=frozenset({"q"})),
    ]
    report = static_grouped(tasks, 2, predictions)
    assert report.aborts == 2
    assert report.reexecuted == 2
    assert report.rounds == 2
    # wall = parallel wave (1.0) + sequential retry of both (2.0)
    assert report.wall_time == 3.0


def test_reports_obs_counters():
    tasks = [
        task("a", writes={"x"}),
        task("b", writes={"x"}),
        task("c", writes={"y"}),
    ]
    predictions = [exact_prediction(t) for t in tasks]
    with obs.instrumented() as state:
        static_grouped(tasks, 2, predictions)
    snapshot = state.registry.snapshot()
    counters = snapshot["counters"]
    assert counters["exec.static-grouped.groups"] == 2
    assert (
        counters["exec.aborts{cores=2,executor=static-grouped}"] == 0
    )
    assert (
        counters["exec.runs{cores=2,executor=static-grouped}"] == 1
    )
    sizes = snapshot["histograms"]["exec.static-grouped.group_size"]
    assert sizes["count"] == 2


def test_recorder_rows_cover_all_tasks():
    tasks = [task("a", writes={"x"}), task("b", writes={"x"})]
    predictions = [
        PredictedAccess(tx_hash="a", writes=frozenset({"p"})),
        PredictedAccess(tx_hash="b", writes=frozenset({"q"})),
    ]
    report = static_grouped(tasks, 2, predictions)
    events = as_events(timeline_rows(report, None))
    assert {e.executor for e in events} == {"static-grouped"}
    committed = [e.task for e in events if e.kind == "commit"]
    aborted = [e.task for e in events if e.kind == "abort"]
    # Both aborted in the wave, then both committed in the retry round.
    assert sorted(aborted) == ["a", "b"]
    assert sorted(committed) == ["a", "b"]
