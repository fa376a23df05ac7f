"""The two-phase speculative schedule (Saraph–Herlihy, paper §V-A).

Phase one runs transactions concurrently on ``n`` cores with no
concurrency control; any transaction found to conflict with another is
rolled back into a sequential "bin".  Phase two executes the bin in
block order on one core.  Conflicted transactions therefore execute
twice — the cost Eq. 1 charges as ``c·x``.

:func:`two_phase` is that schedule, written once.  What is known about
the block's conflicts beforehand is handed to it as *groups of tasks*,
and the three engines of :data:`~repro.execution.registry.ENGINE_SPECS`
that run it differ only in where the groups come from:

* ``speculative`` knows nothing (no groups): the whole block runs in
  the parallel phase and every conflicted transaction aborts there.
* ``speculative-informed`` is the perfect-information model of §V-A:
  an oracle hands over the exact runtime conflict groups at a
  pre-processing charge ``K``, so the conflicted transactions are
  binned up front and execute once.
* ``static-informed`` replaces the oracle with the static analyzer's
  predictions (:mod:`repro.staticcheck.predict`).  They
  over-approximate the runtime sets, so every true conflict is
  predicted (soundness) and the parallel phase is abort-free in the
  model — but false positives shrink it, which is exactly the
  precision/recall trade the static-conflict bench measures.  As a
  safety net against unsound predictions the parallel wave is still
  validated against the runtime conflict relation, and any abort it
  finds is charged a re-execution — unless every prediction equals its
  task's runtime sets, when the groups are the oracle's and there is
  nothing to find (``exact``).
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.execution.engine import ExecutionReport, TxTask, conflict_groups
from repro.execution.schedule import Segment, Wave
from repro.execution.simulator import CoreSimulator


def split_conflicted(
    tasks: Sequence[TxTask],
    groups: Sequence[Sequence[TxTask]] | None = None,
) -> tuple[list[TxTask], list[TxTask]]:
    """Partition into (unconflicted, conflicted-bin), preserving order.

    Conflicted means a member of a group larger than one; *groups*
    defaults to the runtime conflict groups of *tasks*.
    """
    if groups is None:
        groups = conflict_groups(tasks)
    conflicted_hashes: set[str] = set()
    for group in groups:
        if len(group) > 1:
            conflicted_hashes.update(task.tx_hash for task in group)
    clean = [t for t in tasks if t.tx_hash not in conflicted_hashes]
    binned = [t for t in tasks if t.tx_hash in conflicted_hashes]
    return clean, binned


def two_phase(
    name: str, cores: int, tasks: Sequence[TxTask],
    groups: Sequence[Sequence[TxTask]], k: float, *, exact: bool,
    wave_groups: Sequence[Sequence[TxTask]] | None = None,
) -> ExecutionReport:
    """Run *tasks* through the two phases as engine *name*.

    Members of a group larger than one are binned up front.  After the
    charge *k* the rest run as one parallel wave.  Unless the groups
    are the runtime partition itself (*exact*), the wave is validated
    against the runtime conflict relation — its own partition, or
    *wave_groups* when the caller already has it: sound groups make
    that a no-op, it only charges work for a true conflict that
    slipped through the bin.  The bin, and behind it the wave's aborts,
    then run once each on lane 0 in block order.  Wall time is
    ``K + wave + (bin + retries)``.

    Records ``exec.<name>.binned`` when groups were handed over, and
    the share of the block aborted in the wave
    (``exec.<name>.bin_fraction``) when none were.
    """
    wave, binned = split_conflicted(tasks, groups)
    run = CoreSimulator(cores).run_wave(wave)
    aborted = [] if exact else split_conflicted(wave, wave_groups)[1]
    bin_time = sum(task.cost for task in binned)
    retry_time = sum(task.cost for task in aborted)
    if obs.measuring():
        if groups:
            obs.counter(f"exec.{name}.binned").inc(len(binned))
        else:
            obs.histogram(f"exec.{name}.bin_fraction").observe(
                len(aborted) / len(tasks)
            )
    # The wave after K, its aborts stamped at their finish; then lane 0:
    # the bin's tasks schedule fresh, the aborts re-execute as retries.
    bin_offset = k + run.makespan
    return ExecutionReport(
        executor=name,
        cores=cores,
        wall_time=k + run.makespan + (bin_time + retry_time),
        total_work=sum(task.cost for task in tasks),
        num_tasks=len(tasks),
        reexecuted=len(aborted),
        aborts=len(aborted),
        rounds=2,
        schedule=(
            Wave(wave, run, k, aborted=aborted),
            Segment(binned, bin_offset, 1),
            Segment(aborted, bin_offset + bin_time, 1, retry=True),
        ),
    )
