"""Speculative execution informed by *static* conflict predictions.

:class:`~repro.execution.speculative.InformedSpeculativeExecutor` is
the paper's perfect-information model: it assumes an oracle hands over
the exact runtime conflict set at pre-processing cost ``K``.  This
module replaces the oracle with the static analyzer's predictions
(:mod:`repro.staticcheck.predict`): transactions whose *predicted*
sets conflict are binned up front, the rest run in the parallel phase.

Because predictions over-approximate the runtime sets, every true
conflict is predicted (soundness), so the parallel phase is abort-free
in the model — but false positives shrink it, which is exactly the
precision/recall trade the static-conflict bench measures.  As a
safety net against unsound predictions the executor still validates
the parallel wave with the runtime conflict relation and charges
re-execution for any abort it finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import obs
from repro.execution.conflict_partition import conflict_partition
from repro.execution.engine import (
    ExecutionReport,
    TxTask,
    conflict_groups,
    record_report,
)
from repro.execution.simulator import CoreSimulator
from repro.obs.timeline import sequential_rows, wave_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.staticcheck.predict import PredictedAccess


@dataclass
class StaticInformedExecutor:
    """Two-phase execution binned by statically predicted conflicts.

    Args:
        cores: parallel-phase width.
        predictions: ``tx_hash`` → :class:`PredictedAccess`.  Tasks
            with no prediction are treated as "may touch anything"
            (sound, maximally pessimistic).
        preprocessing_cost: the analysis cost K, charged up front.
    """

    cores: int
    predictions: Mapping[str, "PredictedAccess"] = field(
        default_factory=dict
    )
    preprocessing_cost: float = 0.0
    name = "static-informed"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if self.preprocessing_cost < 0:
            raise ValueError("preprocessing_cost must be non-negative")

    def _prediction(self, tx_hash: str) -> "PredictedAccess":
        from repro.staticcheck.predict import unknown_access

        found = self.predictions.get(tx_hash)
        return found if found is not None else unknown_access(tx_hash)

    def _predicted_conflicted(self, tasks: Sequence[TxTask]) -> set[str]:
        """Hashes whose predicted sets conflict with another task's:
        the members of every predicted group larger than one."""
        items = [self._prediction(task.tx_hash) for task in tasks]
        return {
            tasks[index].tx_hash
            for group in conflict_partition(items)
            if len(group) > 1
            for index in group
        }

    def run(self, tasks: Sequence[TxTask]) -> ExecutionReport:
        """Parallel phase over predicted-clean txs; bin runs in order."""
        total = sum(task.cost for task in tasks)
        if not tasks:
            return ExecutionReport(
                executor=self.name,
                cores=self.cores,
                wall_time=0.0,
                total_work=0.0,
                num_tasks=0,
            )
        with obs.trace_span(
            "exec.static-informed.run", cores=self.cores
        ) as span:
            conflicted = self._predicted_conflicted(tasks)
            clean = [t for t in tasks if t.tx_hash not in conflicted]
            binned = [t for t in tasks if t.tx_hash in conflicted]
            simulator = CoreSimulator(self.cores)
            clean_run = simulator.run_wave(clean) if clean else None
            phase_one = clean_run.makespan if clean_run else 0.0
            # Safety net: validate the parallel wave against the
            # *runtime* conflict relation.  Sound predictions make this
            # a no-op; it only charges work if a true conflict slipped
            # through the static bin.
            aborted: list[TxTask] = []
            for group in conflict_groups(clean):
                if len(group) > 1:
                    aborted.extend(group)
            phase_two = sum(task.cost for task in binned) + sum(
                task.cost for task in aborted
            )
            recorder = obs.get_recorder()
            if recorder.enabled:
                # Clean wave after the analysis charge K; tasks the
                # safety net catches abort there and re-run in phase
                # two together with the statically binned ones.
                if clean_run is not None:
                    wave_rows(
                        recorder, self.name, clean, clean_run,
                        offset=self.preprocessing_cost,
                        aborted=aborted,
                    )
                bin_offset = self.preprocessing_cost + phase_one
                sequential_rows(
                    recorder, self.name, binned,
                    offset=bin_offset, round_index=1,
                )
                sequential_rows(
                    recorder, self.name, aborted,
                    offset=bin_offset + sum(t.cost for t in binned),
                    round_index=1, retry=True,
                )
            if obs.enabled():
                span.set(
                    tasks=len(tasks),
                    binned=len(binned),
                    aborts=len(aborted),
                )
                obs.counter("exec.static-informed.binned").inc(len(binned))
                obs.counter("exec.static-informed.aborts").inc(len(aborted))
            report = ExecutionReport(
                executor=self.name,
                cores=self.cores,
                wall_time=(
                    self.preprocessing_cost + phase_one + phase_two
                ),
                total_work=total,
                num_tasks=len(tasks),
                reexecuted=len(aborted),
                aborts=len(aborted),
                rounds=2,
            )
        record_report(report)
        return report
