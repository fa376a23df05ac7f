"""Flight-recorder timeline bench: measured vs analytical speed-ups.

Replays a seeded Ethereum-profile chain through the execution engines,
reads each block's events off the engine's report
(:func:`repro.execution.schedule.timeline_rows`), then answers two
questions and writes the results to ``BENCH_exec_timeline.json`` at the
repo root (plus a human-readable summary under ``benchmarks/output/``):

1. **Measured vs analytical** — per executor, the per-block speed-up
   recomputed from the recorded timeline against the paper's Eq. 1
   ``R = x/(⌊x/n⌋ + 1 + c·x)`` and Eq. 2 ``R = min(n, 1/l)``.  For the
   component-serializing engines (speculative family, grouped) the
   measured value must stay under the Eq. 2 bound on *every* block —
   that is the hard gate; OCC/DAG may exceed it (the LCC-sequential
   assumption is pessimistic for them) and are recorded, not gated.
2. **Empirical critical path** — the longest finish->start hand-off
   chain recovered from the events, next to the block's LCC size.

Engines record nothing while they run — a run's schedule is a value on
its report — so there is no recorder overhead left to measure here.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

from _common import write_output

from repro.execution import make_executor, replay_block_inputs
from repro.execution.schedule import timeline_rows
from repro.obs.critical_path import (
    EQ2_STRICT_EXECUTORS,
    compare_to_bounds,
    profile_events,
    task_conflict_profile,
)
from repro.obs.timeline import as_events
from repro.workload.profiles import ETHEREUM

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_exec_timeline.json"
)

NUM_BLOCKS = 24
SEED = 2020
CORES = 8
EXECUTORS = ("speculative", "speculative-informed", "occ", "grouped")


def _blocks():
    return [
        (block.height, list(block.tasks))
        for block in replay_block_inputs(
            ETHEREUM, blocks=NUM_BLOCKS, seed=SEED, predict=False
        )
        if block.tasks
    ]


def test_exec_timeline_bounds():
    blocks = _blocks()
    assert len(blocks) >= 3

    # -- measured vs analytical, executor by executor ------------------
    per_executor: dict[str, dict[str, object]] = {}
    conflicts = {h: task_conflict_profile(t) for h, t in blocks}
    for name in EXECUTORS:
        executor = make_executor(name, CORES)
        rows = []
        for height, tasks in blocks:
            report = executor.run(tasks)
            comparison = compare_to_bounds(report, conflicts[height])
            profile = profile_events(
                as_events(timeline_rows(report, height))
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
    write_output("exec_timeline", "\n".join(lines))
