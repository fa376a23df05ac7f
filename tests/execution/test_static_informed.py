"""The ``static-informed`` engine: prediction-binned two-phase execution."""

from __future__ import annotations

import pytest

from repro import obs
from repro.execution.engine import TxTask, predicted_groups
from repro.execution.parallel_replay import ReplayBlock, replay_chain
from repro.execution.registry import BlockConflicts, run_engine
from repro.execution.speculative import two_phase
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


def static_informed(tasks, cores, predictions=(), k=0.0):
    return run_engine(
        "static-informed", tasks, cores, k=k,
        conflicts=BlockConflicts(tasks, predictions),
    )


def test_validates_constructor_args():
    with pytest.raises(ValueError):
        static_informed([], 0)
    with pytest.raises(ValueError):
        static_informed([], 2, k=-1.0)


def test_empty_block_is_free():
    report = static_informed([], 4)
    assert report.wall_time == 0.0
    assert report.num_tasks == 0


def test_exact_predictions_match_oracle_executor():
    """With perfect predictions the two phases equal the runtime-set
    oracle (``speculative-informed``), and the safety net ``run_engine``
    skips would not have fired: the two phases over the predicted
    partition, net on, report the same."""
    tasks = [
        task("a", writes={"x"}),
        task("b", writes={"x"}),
        task("c", writes={"y"}),
        task("d", writes={"z"}),
    ]
    predictions = [exact_prediction(t) for t in tasks]
    static = static_informed(tasks, 2, predictions, k=1.5)
    oracle = run_engine("speculative-informed", tasks, 2, k=1.5)
    assert static.wall_time == oracle.wall_time
    assert static.aborts == 0
    netted = two_phase(
        "static-informed", 2, tasks,
        predicted_groups({p.tx_hash: p for p in predictions}, tasks),
        1.5, exact=False,
    )
    assert netted == static


def test_false_positives_shrink_parallel_phase():
    tasks = [task("a", writes={"x"}), task("b", writes={"y"})]
    # Over-approximated predictions force both into the bin.
    predictions = [unknown_access(t.tx_hash) for t in tasks]
    report = static_informed(tasks, 2, predictions)
    # No parallel phase at all: both run sequentially.
    assert report.wall_time == 2.0
    assert report.aborts == 0


def test_missing_prediction_is_treated_as_top():
    tasks = [task("a", writes={"x"}), task("b", writes={"y"})]
    report = static_informed(tasks, 2, [exact_prediction(tasks[0])])
    # "b" defaults to global-⊤, conflicting with "a": both binned.
    assert report.wall_time == 2.0


def test_unsound_predictions_trigger_safety_net():
    tasks = [task("a", writes={"x"}), task("b", writes={"x"})]
    # Deliberately wrong predictions claim the tasks are independent.
    predictions = [
        PredictedAccess(tx_hash="a", writes=frozenset({"p"})),
        PredictedAccess(tx_hash="b", writes=frozenset({"q"})),
    ]
    report = static_informed(tasks, 2, predictions)
    # Both ran in parallel, truly conflicted, and were re-executed.
    assert report.aborts == 2
    assert report.reexecuted == 2
    # wall = parallel wave (1.0) + re-execution of both (2.0)
    assert report.wall_time == 3.0


def test_reports_obs_counters():
    tasks = [task("a", writes={"x"}), task("b", writes={"x"})]
    predictions = [exact_prediction(t) for t in tasks]
    with obs.instrumented() as state:
        static_informed(tasks, 2, predictions)
    counters = state.registry.snapshot()["counters"]
    assert counters["exec.static-informed.binned"] == 2
    assert (
        counters["exec.runs{cores=2,executor=static-informed}"] == 1
    )


def test_safety_net_retries_commit_in_block_order():
    """Two hot locations, predictions that miss both: the safety net's
    aborts re-run in block order (a b c d), as speculative's bin does
    — not conflict group by conflict group (a c b d)."""
    tasks = (
        task("a", writes={"x"}),
        task("b", writes={"y"}),
        task("c", writes={"x"}),
        task("d", writes={"y"}),
    )
    unsound = tuple(
        PredictedAccess(
            tx_hash=t.tx_hash, writes=frozenset({f"own:{t.tx_hash}"})
        )
        for t in tasks
    )
    block = ReplayBlock(
        height=1, tasks=tasks, payload=(), predictions=unsound
    )
    result = replay_chain(
        [block], data_model="account", backend="serial",
        engines=("sequential", "speculative", "static-informed"),
    )
    sequential, speculative, static = result.records
    assert static.aborted == static.retried == 4
    assert static.commit_order == speculative.commit_order
    assert static.commit_order == ("a", "b", "c", "d")
    assert static.state_root == sequential.state_root
