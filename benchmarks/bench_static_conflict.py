"""Predicted-TDG precision and analyzer-informed execution (staticcheck).

Builds an Ethereum-profile chain whose contract population includes
dynamic-operand bodies (stack-popped storage keys and transfer targets),
then compares the static analyzer's *predicted* per-block conflict
structure against the runtime-traced one:

* pairwise conflict precision/recall (recall must be exactly 1.0 — the
  analyzer is sound, so no runtime conflict may go unpredicted);
* per-block conflict-rate (c) and LCC-fraction (l) deltas between the
  predicted and runtime task-level TDGs;
* the measured analysis cost, converted into the paper's ``K`` (§V-A):
  analyzer seconds divided by mean per-transaction execution seconds.
  A block is charged its share of the one interprocedural closure, its
  own ``predict_block`` time and the time of the conflict partition an
  executor runs over those predictions — and nothing of this bench's
  own bookkeeping (coverage gates, confusion counts, TDG deltas).
  ``analysis_cost.k_units_total`` is the sum of what the executors were
  charged;
* executor wall-clock: the speculative baseline and OCC (which abort
  and re-execute) against the informed executor fed *runtime* sets (the
  paper's oracle) and the same executor fed *static predictions* at
  cost K — plus OCC validating against expanded predicted sets.

Writes ``BENCH_static_conflict.json`` at the repo root and a summary
under ``benchmarks/output/``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import time
from pathlib import Path

from _common import write_output

from repro import obs
from repro.core.tdg import TDGResult
from repro.execution.conflict_partition import conflict_partition
from repro.execution.engine import tasks_from_account_block
from repro.execution.grouped import StaticGroupedExecutor
from repro.execution.occ import OCCExecutor
from repro.execution.speculative import (
    InformedSpeculativeExecutor,
    SpeculativeExecutor,
    StaticInformedExecutor,
)
from repro.staticcheck import (
    ContractAnalyzer,
    code_bindings,
    expanded_tasks,
    predict_block,
    predicted_conflicts,
    predicted_tdg,
)
from repro.workload.account_workload import AccountWorkloadBuilder
from repro.workload.profiles import ETHEREUM

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_static_conflict.json"
)

NUM_BLOCKS = 48
SEED = 2020
SCALE = 0.6
CORES = 8
NUM_DYNAMIC = 200


def _runtime_tdg(tasks) -> TDGResult:
    """Task-level TDG from runtime access sets (same rule as predicted)."""
    return TDGResult.from_groups(
        [tasks[index].tx_hash for index in group]
        for group in conflict_partition(tasks)
    )


def test_static_conflict_prediction():
    profile = dataclasses.replace(
        ETHEREUM, num_dynamic_contracts=NUM_DYNAMIC
    )
    builder = AccountWorkloadBuilder(profile=profile, seed=SEED, scale=SCALE)

    # Wrap the VM entry point so chain building measures the mean
    # per-transaction execution time — the unit K is expressed in.
    exec_state = {"seconds": 0.0, "count": 0}
    inner_execute = builder.vm.execute_transaction

    def timed_execute(*args, **kwargs):
        started = time.perf_counter()
        result = inner_execute(*args, **kwargs)
        exec_state["seconds"] += time.perf_counter() - started
        exec_state["count"] += 1
        return result

    builder.vm.execute_transaction = timed_execute  # type: ignore[method-assign]
    builder.build_chain(NUM_BLOCKS)
    seconds_per_task = exec_state["seconds"] / max(1, exec_state["count"])

    # One interprocedural closure serves the whole chain; its cost is
    # amortized across blocks when charging K to the executors.
    analyzer = ContractAnalyzer(builder.registry, code_bindings(builder.state))
    closure_started = time.perf_counter()
    analyzer.analyze_all()
    closure_seconds = time.perf_counter() - closure_started

    tp = fp = fn = widened = 0
    uncovered = 0
    total_tasks = 0
    c_deltas: list[float] = []
    l_deltas: list[float] = []
    group_sizes: list[int] = []
    predict_seconds = 0.0
    partition_seconds = 0.0
    charged_k_units = 0.0
    per_block: list[dict] = []
    wall = {key: 0.0 for key in (
        "speculative", "informed-oracle", "static-informed",
        "static-grouped", "occ-runtime", "occ-predicted",
    )}
    aborts = {key: 0 for key in wall}
    total_cost = 0.0

    with obs.instrumented() as state:
        for block, executed in builder.executed_blocks:
            tasks = tasks_from_account_block(executed)
            if not tasks:
                continue
            started = time.perf_counter()
            predictions = predict_block(block.transactions, analyzer)
            block_predict_seconds = time.perf_counter() - started
            predict_seconds += block_predict_seconds
            by_hash = {task.tx_hash: task for task in tasks}
            assert sorted(by_hash) == sorted(
                p.tx_hash for p in predictions
            ), "predictions and runtime tasks must cover the same txs"

            # Soundness gate 1: every runtime access set is covered.
            for prediction in predictions:
                total_tasks += 1
                widened += prediction.is_widened
                if not prediction.covers_task(by_hash[prediction.tx_hash]):
                    uncovered += 1

            # Pairwise conflict confusion counts.
            block_fn = 0
            for i, a in enumerate(predictions):
                for b in predictions[i + 1:]:
                    pred = predicted_conflicts(a, b)
                    real = by_hash[a.tx_hash].conflicts_with(
                        by_hash[b.tx_hash]
                    )
                    tp += pred and real
                    fp += pred and not real
                    block_fn += real and not pred
            fn += block_fn

            # Predicted vs runtime task-level TDG: c and l deltas.
            # predicted_tdg is the location-indexed partition the static
            # executors run over the same predictions: its time is the
            # per-block part of K that is not prediction.
            runtime = _runtime_tdg(tasks)
            started = time.perf_counter()
            predicted = predicted_tdg(predictions)
            block_partition_seconds = time.perf_counter() - started
            partition_seconds += block_partition_seconds
            group_sizes.extend(len(group) for group in predicted.groups)
            n = runtime.num_transactions
            c_runtime = runtime.num_conflicted / n
            c_predicted = predicted.num_conflicted / n
            l_runtime = runtime.lcc_size / n
            l_predicted = predicted.lcc_size / n
            c_deltas.append(c_predicted - c_runtime)
            l_deltas.append(l_predicted - l_runtime)

            # Executor comparison.  K (in task units) charges this
            # block's share of the closure, its prediction time and its
            # partition time — what an engine pays before it can start.
            block_k_seconds = (
                closure_seconds / len(builder.executed_blocks)
                + block_predict_seconds
                + block_partition_seconds
            )
            k_units = block_k_seconds / max(seconds_per_task, 1e-12)
            charged_k_units += k_units
            prediction_map = {p.tx_hash: p for p in predictions}
            reports = {
                "speculative": SpeculativeExecutor(CORES).run(tasks),
                "informed-oracle": InformedSpeculativeExecutor(
                    CORES, preprocessing_cost=k_units
                ).run(tasks),
                "static-informed": StaticInformedExecutor(
                    CORES,
                    predictions=prediction_map,
                    preprocessing_cost=k_units,
                ).run(tasks),
                "static-grouped": StaticGroupedExecutor(
                    CORES,
                    predictions=prediction_map,
                    scheduling_cost=k_units,
                ).run(tasks),
                "occ-runtime": OCCExecutor(CORES).run(tasks),
                "occ-predicted": OCCExecutor(CORES).run(
                    expanded_tasks(predictions)
                ),
            }
            total_cost += sum(task.cost for task in tasks)
            for key, report in reports.items():
                wall[key] += report.wall_time
                aborts[key] += report.aborts
            per_block.append({
                "height": block.height,
                "transactions": n,
                "c_runtime": round(c_runtime, 4),
                "c_predicted": round(c_predicted, 4),
                "l_runtime": round(l_runtime, 4),
                "l_predicted": round(l_predicted, 4),
                "false_negatives": block_fn,
            })
        snapshot = state.registry.snapshot()

    # Hard gates: soundness (recall exactly 1.0, full coverage) and a
    # non-degenerate precision.
    assert uncovered == 0, f"{uncovered} runtime task sets not covered"
    assert fn == 0, f"{fn} runtime conflicts unpredicted"
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    assert precision >= 0.5, f"pairwise precision degenerate: {precision}"

    # The predicted sets over-approximate, so the static-informed
    # parallel phase and the static-grouped safety net are abort-free.
    assert aborts["static-informed"] == 0
    assert aborts["static-grouped"] == 0

    # Reported K is charged K: the total handed to the executors must
    # be what the reported component times add up to, so widening a
    # timed window (or reporting another sum) fails here.
    charged_seconds = (
        closure_seconds * len(per_block) / len(builder.executed_blocks)
        + predict_seconds
        + partition_seconds
    )
    assert math.isclose(
        charged_k_units,
        charged_seconds / max(seconds_per_task, 1e-12),
        rel_tol=1e-9,
    ), "charged K drifted from the reported analysis cost"

    spec_rate = aborts["speculative"] / max(1, total_tasks)
    static_rate = aborts["static-informed"] / max(1, total_tasks)
    occ_runtime_rate = aborts["occ-runtime"] / max(1, total_tasks)
    occ_predicted_rate = aborts["occ-predicted"] / max(1, total_tasks)

    result = {
        "bench": "static_conflict",
        "chain": "ethereum",
        "blocks": len(per_block),
        "transactions": total_tasks,
        "seed": SEED,
        "scale": SCALE,
        "cores": CORES,
        "num_dynamic_contracts": NUM_DYNAMIC,
        "platform": platform.platform(),
        "widened_predictions": widened,
        "pairwise": {
            "true_positives": tp,
            "false_positives": fp,
            "false_negatives": fn,
            "precision": round(precision, 4),
            "recall": round(recall, 4),
        },
        "predicted_groups": {
            "count": len(group_sizes),
            "mean_size": round(
                sum(group_sizes) / max(1, len(group_sizes)), 4
            ),
            "max_size": max(group_sizes, default=0),
            "singleton_fraction": round(
                sum(1 for s in group_sizes if s == 1)
                / max(1, len(group_sizes)),
                4,
            ),
        },
        "tdg_deltas": {
            "mean_c_delta": round(sum(c_deltas) / len(c_deltas), 4),
            "max_c_delta": round(max(c_deltas), 4),
            "mean_l_delta": round(sum(l_deltas) / len(l_deltas), 4),
            "max_l_delta": round(max(l_deltas), 4),
        },
        "analysis_cost": {
            "closure_seconds": round(closure_seconds, 6),
            "prediction_seconds": round(predict_seconds, 6),
            "partition_seconds": round(partition_seconds, 6),
            "mean_execution_seconds_per_tx": round(seconds_per_task, 9),
            "k_units_total": round(charged_k_units, 2),
        },
        "executors": {
            key: {
                "wall_time": round(wall[key], 2),
                "aborts": aborts[key],
                "abort_rate": round(
                    aborts[key] / max(1, total_tasks), 4
                ),
                "measured_speedup": round(
                    total_cost / wall[key], 4
                ) if wall[key] else None,
            }
            for key in wall
        },
        "abort_rate_change_vs_speculative": {
            "static-informed": round(static_rate - spec_rate, 4),
            "occ-predicted_vs_occ-runtime": round(
                occ_predicted_rate - occ_runtime_rate, 4
            ),
        },
        "obs_counters": {
            key: value
            for key, value in snapshot["counters"].items()
            if key.startswith((
                "staticcheck.", "exec.static-informed",
                "exec.static_grouped",
            ))
        },
        "per_block": per_block,
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        "static conflict prediction vs runtime traces "
        f"({len(per_block)} blocks, {total_tasks} txs, "
        f"{NUM_DYNAMIC} dynamic contracts)",
        f"  pairwise precision   : {precision:8.4f}",
        f"  pairwise recall      : {recall:8.4f}  (soundness gate: 1.0)",
        f"  widened predictions  : {widened} / {total_tasks}",
        "  predicted group size : "
        f"mean {result['predicted_groups']['mean_size']} "
        f"max {result['predicted_groups']['max_size']}",
        f"  mean c delta         : {result['tdg_deltas']['mean_c_delta']:+.4f}",
        f"  mean l delta         : {result['tdg_deltas']['mean_l_delta']:+.4f}",
        f"  analysis cost K      : "
        f"{result['analysis_cost']['k_units_total']} task units "
        f"({charged_seconds:.4f} s charged: closure share + prediction"
        " + partition)",
        "  executor wall-clock (sum over blocks):",
    ]
    for key in wall:
        lines.append(
            f"    {key:<16s}: {wall[key]:10.1f}  "
            f"aborts {aborts[key]:5d} "
            f"(rate {aborts[key] / max(1, total_tasks):.4f})"
        )
    lines.append(
        "  abort-rate change vs speculative (static-informed): "
        f"{static_rate - spec_rate:+.4f}"
    )
    write_output("static_conflict", "\n".join(lines))
