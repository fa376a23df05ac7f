"""StaticGroupedExecutor: prediction-driven group scheduling."""

from __future__ import annotations

import pytest

from repro import obs
from repro.execution.engine import TxTask
from repro.execution.grouped import GroupedExecutor, StaticGroupedExecutor
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


def test_validates_constructor_args():
    with pytest.raises(ValueError):
        StaticGroupedExecutor(0)
    with pytest.raises(ValueError):
        StaticGroupedExecutor(2, scheduling_cost=-1.0)


def test_empty_block_is_free():
    report = StaticGroupedExecutor(4).run([])
    assert report.wall_time == 0.0
    assert report.num_tasks == 0


def test_exact_predictions_match_oracle_scheduler():
    """With perfect predictions the schedule equals the runtime-set
    oracle (GroupedExecutor) and the safety net never fires."""
    tasks = [
        task("a", writes={"x"}),
        task("b", writes={"x"}),
        task("c", writes={"y"}, cost=2.0),
        task("d", writes={"z"}),
    ]
    predictions = {t.tx_hash: exact_prediction(t) for t in tasks}
    static = StaticGroupedExecutor(
        2, predictions=predictions, scheduling_cost=0.5
    ).run(tasks)
    oracle = GroupedExecutor(2, scheduling_cost=0.5).run(tasks)
    assert static.wall_time == oracle.wall_time
    assert static.aborts == 0
    assert static.reexecuted == 0
    assert static.rounds == 1


def test_overapproximation_merges_groups_but_stays_safe():
    """A false-positive overlap serializes two independent tasks —
    slower, never wrong, and no aborts."""
    tasks = [task("a", writes={"x"}), task("b", writes={"y"})]
    predictions = {
        "a": PredictedAccess(
            tx_hash="a", writes=frozenset({"x", "shared"})
        ),
        "b": PredictedAccess(
            tx_hash="b", writes=frozenset({"y", "shared"})
        ),
    }
    report = StaticGroupedExecutor(2, predictions=predictions).run(tasks)
    assert report.wall_time == 2.0  # one group, sequential chain
    assert report.aborts == 0


def test_missing_predictions_degrade_to_sequential():
    """No predictions → every task is ⊤ → one group in block order."""
    tasks = [task("a", writes={"x"}), task("b", writes={"y"})]
    report = StaticGroupedExecutor(4).run(tasks)
    assert report.wall_time == 2.0
    assert report.aborts == 0
    explicit_top = {t.tx_hash: unknown_access(t.tx_hash) for t in tasks}
    explicit = StaticGroupedExecutor(
        4, predictions=explicit_top
    ).run(tasks)
    assert explicit.wall_time == report.wall_time


def test_unsound_predictions_trigger_safety_net():
    tasks = [task("a", writes={"x"}), task("b", writes={"x"})]
    # Deliberately wrong: claims the tasks are independent.
    predictions = {
        "a": PredictedAccess(tx_hash="a", writes=frozenset({"p"})),
        "b": PredictedAccess(tx_hash="b", writes=frozenset({"q"})),
    }
    report = StaticGroupedExecutor(2, predictions=predictions).run(tasks)
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
    predictions = {t.tx_hash: exact_prediction(t) for t in tasks}
    with obs.instrumented() as state:
        StaticGroupedExecutor(2, predictions=predictions).run(tasks)
    snapshot = state.registry.snapshot()
    counters = snapshot["counters"]
    assert counters["exec.static_grouped.groups"] == 2
    assert counters["exec.static_grouped.aborts"] == 0
    assert (
        counters["exec.runs{cores=2,executor=static-grouped}"] == 1
    )
    sizes = snapshot["histograms"]["exec.static_grouped.group_size"]
    assert sizes["count"] == 2


def test_recorder_rows_cover_all_tasks():
    tasks = [task("a", writes={"x"}), task("b", writes={"x"})]
    predictions = {
        "a": PredictedAccess(tx_hash="a", writes=frozenset({"p"})),
        "b": PredictedAccess(tx_hash="b", writes=frozenset({"q"})),
    }
    with obs.instrumented() as state:
        StaticGroupedExecutor(2, predictions=predictions).run(tasks)
    events = state.recorder.events(executor="static-grouped")
    committed = [e.task for e in events if e.kind == "commit"]
    aborted = [e.task for e in events if e.kind == "abort"]
    # Both aborted in the wave, then both committed in the retry round.
    assert sorted(aborted) == ["a", "b"]
    assert sorted(committed) == ["a", "b"]
