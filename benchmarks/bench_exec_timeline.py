"""Flight-recorder timeline bench: measured vs analytical speed-ups.

Replays a seeded Ethereum-profile chain through the execution engines
with the flight recorder on, then answers three questions and writes
the results to ``BENCH_exec_timeline.json`` at the repo root (plus a
human-readable summary under ``benchmarks/output/``):

1. **Measured vs analytical** — per executor, the per-block speed-up
   recomputed from the recorded timeline against the paper's Eq. 1
   ``R = x/(⌊x/n⌋ + 1 + c·x)`` and Eq. 2 ``R = min(n, 1/l)``.  For the
   component-serializing engines (speculative family, grouped) the
   measured value must stay under the Eq. 2 bound on *every* block —
   that is the hard gate; OCC/DAG may exceed it (the LCC-sequential
   assumption is pessimistic for them) and are recorded, not gated.
2. **Empirical critical path** — the longest finish->start hand-off
   chain recovered from the events, next to the block's LCC size.
3. **Recorder overhead** — wall-clock of the identical replay with the
   real :class:`~repro.obs.timeline.FlightRecorder` vs the no-op
   recorder (same recording registry both sides, min of
   several repeats).  The batch tuple-emission design must keep the
   overhead under 10%.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from _common import write_output

from repro import obs
from repro.execution import make_executor, replay_block_inputs
from repro.obs.critical_path import (
    EQ2_STRICT_EXECUTORS,
    compare_to_bounds,
    profile_events,
    task_conflict_profile,
)
from repro.obs.timeline import NOOP_RECORDER, FlightRecorder
from repro.workload.profiles import ETHEREUM

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_exec_timeline.json"
)

NUM_BLOCKS = 24
SEED = 2020
CORES = 8
EXECUTORS = ("speculative", "speculative-informed", "occ", "grouped")
OVERHEAD_BUDGET = 0.10
OVERHEAD_REPEATS = 5


def _blocks():
    return [
        (block.height, list(block.tasks))
        for block in replay_block_inputs(
            ETHEREUM, blocks=NUM_BLOCKS, seed=SEED, predict=False
        )
        if block.tasks
    ]


def _replay(blocks, recorder_cls):
    """One full multi-executor replay; returns elapsed wall seconds."""
    executors = [
        (name, make_executor(name, CORES)) for name in EXECUTORS
    ]
    recorder = (
        FlightRecorder() if recorder_cls is FlightRecorder
        else NOOP_RECORDER
    )
    with obs.instrumented(recorder=recorder):
        active = obs.get_recorder()
        started = time.perf_counter()
        for height, tasks in blocks:
            with active.block(height):
                for _name, executor in executors:
                    executor.run(tasks)
        return time.perf_counter() - started


def test_exec_timeline_bounds_and_overhead():
    blocks = _blocks()
    assert len(blocks) >= 3

    # -- measured vs analytical, executor by executor ------------------
    per_executor: dict[str, dict[str, object]] = {}
    with obs.instrumented() as state:
        recorder = state.recorder
        conflicts = {h: task_conflict_profile(t) for h, t in blocks}
        for name in EXECUTORS:
            executor = make_executor(name, CORES)
            rows = []
            for height, tasks in blocks:
                with recorder.block(height):
                    report = executor.run(tasks)
                comparison = compare_to_bounds(report, conflicts[height])
                profile = profile_events(
                    recorder.events(executor=name, block=height)
                )
                # The events are the schedule: the makespan recomputed
                # from them must equal the reported wall time exactly.
                assert abs(profile.makespan - report.wall_time) < 1e-9
                if name in EQ2_STRICT_EXECUTORS:
                    assert comparison.within_eq2, (
                        f"{name} block {height}: measured "
                        f"{comparison.measured:.3f} exceeds Eq. 2 "
                        f"bound {comparison.eq2:.3f}"
                    )
                rows.append({
                    "block": height,
                    "txs": conflicts[height].x,
                    "lcc": conflicts[height].lcc,
                    "measured": comparison.measured,
                    "eq1": comparison.eq1,
                    "eq2": comparison.eq2,
                    "within_eq2": comparison.within_eq2,
                    "critical_path": profile.critical_chain_cost,
                    "mean_utilization": profile.mean_utilization,
                })
            n = len(rows)
            per_executor[name] = {
                "strict_eq2": name in EQ2_STRICT_EXECUTORS,
                "blocks": rows,
                "measured_mean": sum(r["measured"] for r in rows) / n,
                "eq1_mean": sum(r["eq1"] for r in rows) / n,
                "eq2_mean": sum(r["eq2"] for r in rows) / n,
                "eq2_exceeded_blocks": sum(
                    1 for r in rows if not r["within_eq2"]
                ),
            }

    # -- recorder overhead: enabled vs no-op recorder ------------------
    recorded = min(
        _replay(blocks, FlightRecorder)
        for _ in range(OVERHEAD_REPEATS)
    )
    noop = min(
        _replay(blocks, type(NOOP_RECORDER))
        for _ in range(OVERHEAD_REPEATS)
    )
    overhead = (recorded - noop) / noop if noop > 0 else 0.0
    assert overhead <= OVERHEAD_BUDGET, (
        f"flight-recorder overhead {overhead:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget "
        f"(recorded {recorded:.4f}s vs no-op {noop:.4f}s)"
    )

    result = {
        "bench": "exec_timeline",
        "workload": {
            "chain": "ethereum",
            "blocks": NUM_BLOCKS,
            "cores": CORES,
            "seed": SEED,
            "executors": list(EXECUTORS),
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "executors": per_executor,
        "recorder_overhead": {
            "recorded_seconds": recorded,
            "noop_seconds": noop,
            "overhead_fraction": overhead,
            "budget": OVERHEAD_BUDGET,
            "repeats": OVERHEAD_REPEATS,
        },
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        f"exec timeline bench: ethereum, {NUM_BLOCKS} blocks, "
        f"{CORES} cores",
        "",
        f"{'executor':22s} {'measured':>9s} {'Eq.1':>7s} {'Eq.2':>7s} "
        f"{'>Eq.2':>6s}  strict",
    ]
    for name, stats in per_executor.items():
        lines.append(
            f"{name:22s} {stats['measured_mean']:9.3f} "
            f"{stats['eq1_mean']:7.3f} {stats['eq2_mean']:7.3f} "
            f"{stats['eq2_exceeded_blocks']:6d}  "
            f"{'yes' if stats['strict_eq2'] else 'no'}"
        )
    lines += [
        "",
        f"recorder overhead: {overhead:.2%} "
        f"(recorded {recorded:.4f}s, no-op {noop:.4f}s, "
        f"budget {OVERHEAD_BUDGET:.0%})",
    ]
    write_output("exec_timeline", "\n".join(lines))
