"""The engine registry: one table of engines, and the one way to run one.

Eight engines replay a block.  Each is a *source of conflict
information* crossed with a *schedule*, and :data:`ENGINE_SPECS` says
which: a row is the engine.  Every per-engine list — :data:`ENGINES`,
the engines that want the block's static predictions next to its task
list (:data:`PREDICTION_ENGINES`), the engines Eq. 2 binds
(:data:`EQ2_STRICT_EXECUTORS`) — is derived from it, so a new engine is
one new row, and a new source of information one new partition of
:class:`BlockConflicts`.  Every engine runs the block's task list, and
every conflict it knows of is a location those tasks share.

:func:`run_engine` is the one way to run an engine — the replay
fan-out, the node's validation path, the regress snapshot, the
lifecycle pipeline, the CLI, the benches and the examples all hand it
an engine name and a block's tasks.  It takes the row's groups from a
:class:`BlockConflicts` and calls the row's schedule: the sequential
baseline, the two-phase schedule of §V-A
(:func:`~repro.execution.speculative.two_phase`), the chains of §V-B
(:func:`~repro.execution.grouped.chain_schedule`), optimistic waves
(:func:`~repro.execution.occ.occ`) or the dependency DAG
(:func:`~repro.execution.dag.run_dag`).  Its ``exec.*`` metrics carry
the row's name.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.execution.dag import run_dag, task_dag
from repro.execution.engine import (
    ExecutionReport,
    TxTask,
    conflict_groups,
    finish_run,
    predicted_groups,
    require,
    sequential,
)
from repro.execution.grouped import chain_schedule
from repro.execution.occ import occ
from repro.execution.speculative import two_phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.staticcheck.predict import PredictedAccess


class EngineSpec(NamedTuple):
    """One engine: what it knows beforehand, and how it schedules.

    ``information`` is ``"none"``, ``"oracle"`` (the runtime conflict
    structure, which only exists after execution) or ``"predicted"``
    (static access sets); ``schedule`` is ``"sequential"``,
    ``"two-phase"`` (§V-A), ``"chain"`` (§V-B), ``"occ"`` or ``"dag"``.
    """

    information: str
    schedule: str


ENGINE_SPECS: dict[str, EngineSpec] = {
    "sequential": EngineSpec("none", "sequential"),
    "speculative": EngineSpec("none", "two-phase"),
    "speculative-informed": EngineSpec("oracle", "two-phase"),
    "occ": EngineSpec("none", "occ"),
    "grouped": EngineSpec("oracle", "chain"),
    "static-informed": EngineSpec("predicted", "two-phase"),
    "static-grouped": EngineSpec("predicted", "chain"),
    "dag": EngineSpec("oracle", "dag"),
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
    for name in chosen:
        _spec(name)
    if len(set(chosen)) != len(chosen):
        raise ValueError("engines must not repeat")
    return chosen


def _spec(name: str) -> EngineSpec:
    spec = ENGINE_SPECS.get(name)
    if spec is None:
        known = ", ".join(ENGINES)
        raise ValueError(
            f"unknown engine {name!r}; expected one of: {known}"
        )
    return spec


class BlockConflicts:
    """One block's conflict information, each partition built at most
    once: the two sources of :data:`ENGINE_SPECS`' ``information``
    column, as groups of *tasks*.

    *predictions* are the block's
    :class:`~repro.staticcheck.predict.PredictedAccess` records; a task
    with none is "may touch anything".  An instance serves the engines
    of ONE run over one block and goes with it.  Engines that share it
    share the partitions; the groups are read, never mutated, by the
    schedules.
    """

    def __init__(
        self,
        tasks: Sequence[TxTask],
        predictions: Iterable["PredictedAccess"] = (),
    ) -> None:
        self._tasks = tasks
        self._predictions = predictions

    @cached_property
    def oracle(self) -> list[list[TxTask]]:
        """The runtime partition (:func:`conflict_groups`)."""
        return conflict_groups(self._tasks)

    @cached_property
    def predicted(self) -> list[list[TxTask]]:
        """The partition of the block's static predictions.

        When every task's prediction is exact — present, not widened,
        and naming the task's own read and write sets — that partition
        is the oracle's, and :attr:`oracle` itself is returned: checked
        per task, on every block.
        """
        predictions = {
            prediction.tx_hash: prediction
            for prediction in self._predictions
        }
        if all(
            _exact(predictions.get(task.tx_hash), task)
            for task in self._tasks
        ):
            return self.oracle
        return predicted_groups(predictions, self._tasks)


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
    tasks: Sequence[TxTask],
    cores: int,
    *,
    k: float = 0.0,
    conflicts: BlockConflicts | None = None,
) -> ExecutionReport:
    """Run a block's *tasks* through *engine* on *cores* simulated cores.

    The row's ``information`` names its groups: none, or
    :attr:`BlockConflicts.oracle`, or :attr:`BlockConflicts.predicted`
    of *conflicts*, the :class:`BlockConflicts` built over this same
    *tasks* object and the block's predictions.  A caller running
    several engines over the block passes one, so each partition is
    built once: the oracle's for ``speculative`` (whose wave, the whole
    block, is validated against it), ``speculative-informed`` and
    ``grouped``, and the predicted one for the two static engines — or
    not at all, when the predictions are exact and the static engines'
    groups are the oracle's; they then run ``exact``, without the
    safety net that equal sets leave nothing to find.  Without
    *conflicts* the run builds its own, with no predictions: every
    task "may touch anything".

    *k* is the charge K of §V, paid before the schedule starts: the
    price of the information, so only the engines that are handed
    groups take one.  ``exec.*`` metrics land wherever the caller's
    observability scope points; the run's schedule comes back on the
    report.  On an empty block every engine records nothing and
    returns the all-zero report.

    Raises:
        ValueError: an unknown engine, fewer than one core, a negative
            *k*, a *k* for an engine that takes none, or *conflicts*
            built over another task sequence.
    """
    spec = _spec(engine)
    schedule = spec.schedule
    require(cores, k=k)
    if conflicts is None:
        conflicts = BlockConflicts(tasks)
    elif conflicts._tasks is not tasks:
        raise ValueError("conflicts must be built over these tasks")
    if k and (
        spec.information == "none" or schedule not in ("two-phase", "chain")
    ):
        raise ValueError(f"engine {engine!r} takes no charge k")
    cores = 1 if schedule == "sequential" else cores
    if not tasks:
        # Nothing to run: the all-zero report, unrecorded.
        return finish_run(engine, cores)
    if schedule == "sequential":
        report = sequential(tasks)
    elif schedule == "dag":
        report = run_dag(task_dag(tasks), cores)
    elif schedule == "occ":
        report = occ(cores, tasks)
    else:
        if spec.information == "none":
            # Nothing binned: the wave is the whole block, and its own
            # runtime partition is the block's.
            report = two_phase(
                engine, cores, tasks, (), k, exact=False,
                wave_groups=conflicts.oracle,
            )
        else:
            groups = (
                conflicts.oracle if spec.information == "oracle"
                else conflicts.predicted
            )
            run = two_phase if schedule == "two-phase" else chain_schedule
            report = run(
                engine, cores, tasks, groups, k,
                exact=groups is conflicts.oracle,
            )
    return finish_run(engine, cores, report)


__all__ = [
    "BlockConflicts",
    "ENGINES",
    "ENGINE_SPECS",
    "EQ2_STRICT_EXECUTORS",
    "PREDICTION_ENGINES",
    "EngineSpec",
    "run_engine",
    "validate_engines",
]
