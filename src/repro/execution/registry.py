"""The engine registry: one table of engines, and the one way to run one.

Eight engines replay a block.  Each is a *source of conflict
information* crossed with a *schedule*, and :data:`ENGINE_SPECS` says
which: every per-engine list — :data:`ENGINES`, the engines that want
the block's static predictions next to its task list
(:data:`PREDICTION_ENGINES`), the engines Eq. 2 binds
(:data:`EQ2_STRICT_EXECUTORS`) — is derived from it, so a new engine is
one new row.  Every engine runs the block's task list, and every
conflict it knows of is a location those tasks share; the two
schedules that take groups take them from the source their row names
(:class:`BlockConflicts`).  :func:`run_engine` is the one way to run an
engine over a block — the replay fan-out, the node's validation path,
the regress snapshot, the lifecycle pipeline and the CLI all hand it a
block and an engine name.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from repro.execution.dag import DAGExecutor
from repro.execution.engine import (
    ExecutionReport,
    SequentialExecutor,
    TxTask,
    conflict_groups,
    predicted_groups,
)
from repro.execution.grouped import GroupedExecutor, StaticGroupedExecutor
from repro.execution.occ import OCCExecutor
from repro.execution.speculative import (
    InformedSpeculativeExecutor,
    SpeculativeExecutor,
    StaticInformedExecutor,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.execution.parallel_replay import ReplayBlock
    from repro.staticcheck.predict import PredictedAccess


class EngineSpec(NamedTuple):
    """One engine: what it knows beforehand, and how it schedules.

    ``information`` is ``"none"``, ``"oracle"`` (the runtime conflict
    structure, which only exists after execution) or ``"predicted"``
    (static access sets); ``schedule`` is ``"sequential"``,
    ``"two-phase"`` (§V-A), ``"chain"`` (§V-B), ``"occ"`` or ``"dag"``.
    ``build`` takes a core count (and ``predictions=`` when predicted).
    """

    information: str
    schedule: str
    build: Callable[..., object]


ENGINE_SPECS: dict[str, EngineSpec] = {
    "sequential": EngineSpec(
        "none", "sequential", lambda cores: SequentialExecutor()
    ),
    "speculative": EngineSpec("none", "two-phase", SpeculativeExecutor),
    "speculative-informed": EngineSpec(
        "oracle", "two-phase", InformedSpeculativeExecutor
    ),
    "occ": EngineSpec("none", "occ", OCCExecutor),
    "grouped": EngineSpec("oracle", "chain", GroupedExecutor),
    "static-informed": EngineSpec(
        "predicted", "two-phase", StaticInformedExecutor
    ),
    "static-grouped": EngineSpec(
        "predicted", "chain", StaticGroupedExecutor
    ),
    "dag": EngineSpec("oracle", "dag", DAGExecutor),
}

ENGINES = tuple(ENGINE_SPECS)

# Engines whose input includes the block's static access predictions.
PREDICTION_ENGINES = frozenset(
    name for name, spec in ENGINE_SPECS.items()
    if spec.information == "predicted"
)

# Engines whose schedule serializes whole conflict components; for
# these the measured speed-up is provably <= Eq. 2's min(n, 1/l) under
# unit costs.  OCC and DAG schedule inside components and may exceed it.
EQ2_STRICT_EXECUTORS = frozenset(
    name for name, spec in ENGINE_SPECS.items()
    if spec.schedule in ("sequential", "two-phase", "chain")
)


def validate_engines(engines: Sequence[str]) -> tuple[str, ...]:
    """Normalise *engines* (order-preserving) or raise ValueError."""
    chosen = tuple(engines)
    if not chosen:
        raise ValueError("engines must name at least one engine")
    known = ", ".join(ENGINES)
    for name in chosen:
        if name not in ENGINES:
            raise ValueError(
                f"unknown engine {name!r}; expected one of: {known}"
            )
    if len(set(chosen)) != len(chosen):
        raise ValueError("engines must not repeat")
    return chosen


def make_executor(name: str, cores: int, predictions: Mapping | None = None):
    """Instantiate one of the task executors by registry name.

    Unknown names raise :class:`ValueError` listing the choices.
    *predictions* (``tx_hash`` →
    :class:`~repro.staticcheck.predict.PredictedAccess`) feeds the two
    :data:`PREDICTION_ENGINES`; other executors ignore it, and with no
    predictions those two degrade soundly to sequential block order.
    """
    spec = ENGINE_SPECS.get(name)
    if spec is None:
        known = ", ".join(ENGINES)
        raise ValueError(
            f"unknown executor {name!r}; expected one of: {known}"
        )
    if spec.information == "predicted":
        return spec.build(cores, predictions=predictions or {})
    return spec.build(cores)


class BlockConflicts:
    """One block's conflict information, each partition built at most
    once: the two sources of :data:`ENGINE_SPECS`' ``information``
    column, as groups of tasks.

    An instance serves the engines of ONE replay of one block and goes
    with it.  Engines that share it share the partitions; the groups
    are read, never mutated, by the schedules.
    """

    def __init__(self, block: "ReplayBlock") -> None:
        self._block = block

    @cached_property
    def oracle(self) -> list[list[TxTask]]:
        """The runtime partition (:func:`conflict_groups`)."""
        return conflict_groups(self._block.tasks)

    @cached_property
    def predicted(self) -> list[list[TxTask]]:
        """The partition of the block's static predictions.

        When every task's prediction is exact — present, not widened,
        and naming the task's own read and write sets — that partition
        is the oracle's, and :attr:`oracle` itself is returned: checked
        per task, on every block.
        """
        predictions = _prediction_map(self._block)
        if all(
            _exact(predictions.get(task.tx_hash), task)
            for task in self._block.tasks
        ):
            return self.oracle
        return predicted_groups(predictions, self._block.tasks)


def _prediction_map(block: "ReplayBlock") -> dict[str, "PredictedAccess"]:
    """``tx_hash`` → prediction, what the static executors look up."""
    return {prediction.tx_hash: prediction for prediction in block.predictions}


def _exact(prediction: "PredictedAccess | None", task: TxTask) -> bool:
    """Does *prediction* name exactly *task*'s runtime access sets?"""
    return (
        prediction is not None
        and not prediction.is_widened
        and prediction.reads == task.reads
        and prediction.writes == task.writes
    )


def run_engine(
    engine: str,
    block: "ReplayBlock",
    cores: int,
    conflicts: BlockConflicts | None = None,
) -> ExecutionReport:
    """Run *block* through *engine* on *cores* simulated cores.

    ``exec.*`` metrics land wherever the caller's observability scope
    points; the run's schedule comes back on the report.  A caller
    running several engines over the block passes them one
    :class:`BlockConflicts`, so the oracle partition is built once for
    ``speculative`` (whose wave, the whole block, is validated against
    it), ``speculative-informed`` and ``grouped``, and the predicted one
    once for the two static engines — or not at all, when the
    predictions are exact and the static engines' groups are the
    oracle's; they then run ``exact``, without the safety net that
    equal sets leave nothing to find.
    Without *conflicts* the engine runs as its standalone executor
    does, building what it needs itself.
    """
    predicted = engine in PREDICTION_ENGINES
    if (
        conflicts is None or not block.tasks
        or ENGINE_SPECS[engine].schedule not in ("two-phase", "chain")
    ):
        # Nothing to share: the engine's standalone run.
        predictions = _prediction_map(block) if predicted else None
        return make_executor(engine, cores, predictions).run(block.tasks)
    executor = make_executor(engine, cores)
    if not predicted:
        return executor.run(block.tasks, groups=conflicts.oracle)
    groups = conflicts.predicted
    return executor.run(
        block.tasks, groups=groups, exact=groups is conflicts.oracle
    )


__all__ = [
    "BlockConflicts",
    "ENGINES",
    "ENGINE_SPECS",
    "EQ2_STRICT_EXECUTORS",
    "PREDICTION_ENGINES",
    "EngineSpec",
    "make_executor",
    "run_engine",
    "validate_engines",
]
