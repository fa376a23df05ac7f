"""Serial vs. parallel analysis-pipeline throughput on a 2k-block chain.

Times :func:`repro.core.parallel.analyze_chain` over a 2048-block
synthetic Bitcoin history on the serial and process backends at
``jobs=4``, checks that both produce identical records, and writes the speed-up
trajectory to ``BENCH_parallel_pipeline.json`` at the repo root (plus a
human-readable summary under ``benchmarks/output/``).

Two speed-up figures are recorded:

* ``measured`` — wall-clock serial / parallel on *this* machine.  Only
  meaningful with >= ``jobs`` idle cores; single-core CI boxes will
  hover around (or below) 1.0x.
* ``projected_at_jobs`` — serial time divided by the LPT makespan of
  the *measured serial per-chunk times* over ``jobs`` workers (via
  :func:`repro.core.scheduling.lpt_schedule`).  This is the fan-out
  ceiling implied by the actual chunk-time distribution, ignoring IPC;
  the process backend approaches it as cores become available because
  fork-shared inputs keep per-chunk dispatch cost to an index pair.

The equivalence assertion (identical ``BlockRecord`` sequences across
backends) is the hard gate; the >= 1.5x speed-up gate applies to the
measured number when the host has the cores, and to the projection
otherwise (recorded as such — the JSON always states ``cpu_count``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from _common import write_output

from repro import obs
from repro.core.parallel import (
    analyze_chain,
    analyze_chunk,
    chunk_bounds,
    default_chunk_size,
    utxo_block_inputs,
)
from repro.core.scheduling import lpt_schedule
from repro.workload.profiles import BITCOIN
from repro.workload.utxo_workload import build_utxo_chain

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_parallel_pipeline.json"
)

NUM_BLOCKS = 2048
SEED = 2020
SCALE = 0.3
JOBS = 4


def _build_inputs():
    ledger = build_utxo_chain(
        BITCOIN, num_blocks=NUM_BLOCKS, seed=SEED, scale=SCALE
    )
    return utxo_block_inputs(ledger)


def _timed_run(inputs, **kwargs):
    started = time.perf_counter()
    history = analyze_chain(
        inputs, data_model="utxo", name="bitcoin", **kwargs
    )
    return history, time.perf_counter() - started


def test_parallel_pipeline_speedup():
    inputs = _build_inputs()
    total_txs = sum(len(item.payload) for item in inputs)

    # Serial reference, chunked exactly as the jobs=4 fan-out would be,
    # so the per-chunk times feed the LPT projection directly.
    chunk_size = default_chunk_size(len(inputs), JOBS)
    bounds = chunk_bounds(len(inputs), chunk_size)
    serial_records: list = []
    chunk_seconds: list[float] = []
    serial_started = time.perf_counter()
    for start, stop in bounds:
        records, elapsed = analyze_chunk("utxo", inputs[start:stop])
        serial_records.extend(records)
        chunk_seconds.append(elapsed)
    serial_seconds = time.perf_counter() - serial_started

    serial_history, _ = _timed_run(inputs, backend="serial")
    assert serial_history.records == serial_records

    with obs.instrumented() as state:
        process_history, process_seconds = _timed_run(
            inputs, backend="process", jobs=JOBS, chunk_size=chunk_size
        )

    # The hard equivalence gate: every backend, byte-identical records.
    assert process_history.records == serial_records

    measured_process = serial_seconds / process_seconds
    makespan = lpt_schedule(chunk_seconds, JOBS).makespan
    projected = serial_seconds / max(makespan, 1e-9)

    cpu_count = os.cpu_count() or 1
    snapshot = state.registry.snapshot()
    result = {
        "bench": "parallel_pipeline",
        "chain": "bitcoin",
        "blocks": len(inputs),
        "transactions": total_txs,
        "seed": SEED,
        "scale": SCALE,
        "jobs": JOBS,
        "chunk_size": chunk_size,
        "chunks": len(bounds),
        "cpu_count": cpu_count,
        "platform": platform.platform(),
        "records_identical_across_backends": True,
        "serial_seconds": round(serial_seconds, 4),
        "process_seconds": round(process_seconds, 4),
        "measured_speedup_process": round(measured_process, 3),
        "projected_speedup_at_jobs": round(projected, 3),
        "projection_model": (
            "serial time / LPT makespan of measured serial chunk times "
            f"over {JOBS} workers (ignores IPC; fork-shared inputs make "
            "dispatch an index pair)"
        ),
        "obs_counters": {
            key: value
            for key, value in snapshot["counters"].items()
            if key.startswith("pipeline.parallel")
        },
        "obs_chunk_seconds": snapshot["histograms"].get(
            "pipeline.parallel.chunk_seconds{backend=process}", {}
        ),
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        "parallel analysis pipeline — serial vs fan-out "
        f"({len(inputs)} blocks, {total_txs} txs, jobs={JOBS}, "
        f"chunk={chunk_size})",
        f"  host cores          : {cpu_count}",
        f"  serial              : {serial_seconds:8.3f} s",
        f"  process (jobs={JOBS})   : {process_seconds:8.3f} s  "
        f"({measured_process:.2f}x)",
        f"  projected at {JOBS} cores: {projected:8.2f} x  (LPT over "
        "measured chunk times)",
        "  records identical across backends: yes",
    ]
    write_output("parallel_pipeline", "\n".join(lines))

    # Speed-up gate: measured where the hardware allows it, otherwise
    # the chunk-time projection (single-core CI cannot exhibit real
    # parallel wall-clock gains).
    if cpu_count >= JOBS:
        assert measured_process >= 1.5, result
    else:
        assert projected >= 1.5, result
