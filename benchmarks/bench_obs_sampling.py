"""Sampled-tracing overhead and sketch-accuracy bench for large sweeps.

Drives the full transaction pipeline (mempool → gossip → consensus →
execution) on a seeded Ethereum-profile chain scaled past 100k
admitted transactions — a virtual node network,
:func:`repro.node.lifecycle_config` — under
head-based sampling (rate 1/100) with the bounded-memory sketch
metrics policy, and gates the observability-at-scale budgets from the
sampling issue, writing ``BENCH_obs_sampling.json`` at the repo root
(plus a summary under ``benchmarks/output/``):

1. **Enabled overhead ≤ 10%** — the sampled tracer + sketch registry
   vs the identical pipeline with the no-op lifecycle tracer (registry
   live on both sides, min of several repeats), the same methodology
   and budget as ``bench_lifecycle_trace.py``.  The exactness contract
   is asserted before timing is trusted: stage counters count *every*
   transaction even though only ~1% carry stitched traces.
2. **Disabled overhead ≤ 1%** — with observability uninstalled, the
   per-call guard cost is measured directly and charged once per
   recorded stage event against the disabled run — still a deliberate
   overestimate, because the drivers hoist the tracer and perform far
   fewer dispatches than stage events (same model as
   ``bench_lifecycle_trace.py``, minus its 2x factor, which at 900k
   events would compound an already ~2-4x over-count).
3. **Memory sublinearity** — tracemalloc peaks of the obs layer for a
   dense synthetic sweep (mempool admission, fee-greedy packing,
   speculative execution, lifecycle hops — all observability calls,
   minimal pipeline padding) of N and 2N transactions under
   sampling + sketch must grow far slower than 2x (bounded sketches +
   1/100 traces), and sit well below the full exact tracer's peak at
   N.  Peak process RSS rides along in the JSON for CI trend lines.
4. **Sketch accuracy** — p50/p95/p99 of every ``lifecycle.stage.*``
   histogram from the golden seeded pipeline, re-observed into a
   sketch, must match the exact percentiles within the documented
   tolerance (2·alpha relative error).
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc
from pathlib import Path

from _common import peak_rss_bytes, write_output

from repro import obs
from repro.execution import SpeculativeExecutor
from repro.execution.engine import TxTask
from repro.mempool.pool import Mempool, PoolEntry
from repro.node import NodeNetwork, lifecycle_config
from repro.obs.lifecycle import (
    CONSENSUS,
    NOOP_LIFECYCLE,
    SCHEDULED,
    LifecycleTracer,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import SampledLifecycleTracer, SampleRate
from repro.obs.sketch import DEFAULT_ALPHA, SketchHistogram

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_obs_sampling.json"
)

# Pipeline shape for the overhead sweep: ethereum profile scaled until
# a run admits > 100k transactions (blocks=66, scale=16 admits ~100.2k
# with the 2020 seed).
PIPELINE_BLOCKS = 66
PIPELINE_SCALE = 16.0
SEED = 2020
CORES = 4
MIN_SWEEP_TX = 100_000
RATE = SampleRate(1, 100)
# Each pipeline run takes tens of seconds at this scale; the enabled
# and no-op runs are interleaved (S N S N ...) so slow host-level
# drift hits both sides equally, and min-of-repeats sheds one-off
# scheduling noise (expected overhead is ~2%, far inside the 10%
# budget, so the margin absorbs the rest).
REPEATS = 3
ENABLED_BUDGET = 0.10
DISABLED_BUDGET = 0.01
# Charge one guard dispatch per recorded stage event.  That is itself
# a deliberate overestimate at this scale: the drivers hoist the
# tracer (one ``obs.lifecycle()`` dispatch covers a whole block's
# gossip relays, and the pipeline loop dispatches once per run), so
# the disabled pipeline performs far fewer than one dispatch per
# stage event — PR 5's additional 2x factor would compound an already
# ~2-4x over-count.
GUARD_CALL_FACTOR = 1

# Memory sweep shape: the synthetic admission/pack/execute/close loop
# below, which is nearly all observability calls per transaction, so
# tracemalloc peaks isolate the obs layer's growth.
BLOCK_TX = 1_000
MEMORY_BASE_TX = 50_000
# Peak obs memory may grow at most this factor when the sweep doubles;
# a linear structure would grow ~2x.
SUBLINEAR_FACTOR = 1.5
# Documented sketch tolerance: relative rank error alpha compounds to
# at most 2*alpha relative value error after merge (see
# docs/observability.md).
SKETCH_TOLERANCE = 2 * DEFAULT_ALPHA

GOLDEN_BLOCKS = 8
GOLDEN_SEED = 2020
GOLDEN_CORES = 4


def _network(blocks: int, seed: int, cores: int, scale: float = 1.0):
    result = NodeNetwork(lifecycle_config(
        "ethereum", blocks=blocks, seed=seed, cores=cores, scale=scale,
        engine="dag",
    )).run()
    assert result.converged, result.reason
    return result


def _pipeline():
    return _network(PIPELINE_BLOCKS, SEED, CORES, PIPELINE_SCALE)


def _run_sampled():
    """Sampled tracer + sketch registry over the full pipeline."""
    registry = MetricsRegistry(policy="sketch")
    life = SampledLifecycleTracer(RATE, registry=registry)
    with obs.instrumented(registry=registry, lifecycle=life):
        started = time.perf_counter()
        result = _pipeline()
        life.flush_counts()  # part of the tracer's cost
        elapsed = time.perf_counter() - started
    return elapsed, registry, life, result


def _run_noop_lifecycle() -> float:
    """Identical pipeline, lifecycle layer swapped for the no-op."""
    registry = MetricsRegistry(policy="sketch")
    with obs.instrumented(registry=registry, lifecycle=NOOP_LIFECYCLE):
        started = time.perf_counter()
        _pipeline()
        return time.perf_counter() - started


def _run_disabled() -> float:
    """Observability fully uninstalled — the shipped default."""
    obs.uninstall()
    started = time.perf_counter()
    _pipeline()
    elapsed = time.perf_counter() - started
    assert obs.lifecycle().traces() == []  # nothing recorded when disabled
    return elapsed


def _guard_cost_per_call() -> float:
    """Wall cost of one disabled call-site guard (median of 5)."""
    calls = 200_000
    obs.uninstall()
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(calls):
            life = obs.lifecycle()
            if life.enabled:  # pragma: no cover - disabled by design
                raise AssertionError("lifecycle unexpectedly enabled")
        samples.append((time.perf_counter() - started) / calls)
    samples.sort()
    return samples[2]


def _sweep(num_tx: int) -> int:
    """Admit, pack, execute and trace *num_tx* transactions.

    A dense loop of exactly the instrumented operations — mempool
    submit (fee floor, RBF, eviction bookkeeping), fee-greedy packing
    each :data:`BLOCK_TX` admissions, a speculative-executor run over
    the packed block, then consensus/scheduled/commit lifecycle hops —
    used for the tracemalloc memory comparison where the obs layer
    should dominate allocations.
    """
    pool: Mempool[None] = Mempool(max_weight=10**9, min_fee_rate=0.0)
    executor = SpeculativeExecutor(4)
    life = obs.lifecycle()
    clock = 0.0
    committed = 0
    for index in range(num_tx):
        pool.submit(PoolEntry(
            tx_hash=f"tx{index:08x}",
            fee=(index % 97) + 1,
            weight=1,
        ))
        if (index + 1) % BLOCK_TX == 0:
            clock += 1.0
            life.set_clock(clock)
            block = pool.pack_block(BLOCK_TX)
            tasks = [
                TxTask(
                    tx_hash=entry.tx_hash,
                    reads=frozenset((
                        f"acct{j % 1021}", f"acct{j * 31 % 1021}",
                        f"slot{j * 7 % 4093}", f"slot{j * 13 % 4093}",
                    )),
                    writes=frozenset((
                        f"acct{j % 1021}", f"slot{j * 7 % 4093}",
                    )),
                )
                for j, entry in enumerate(block)
            ]
            executor.run(tasks)
            for entry in block:
                life.record(entry.tx_hash, CONSENSUS, at=clock + 0.5)
                life.record(entry.tx_hash, SCHEDULED, at=clock + 0.6)
                life.close(entry.tx_hash, at=clock + 1.0)
            committed += len(block)
    return committed


def _obs_peak(num_tx: int, *, sampled: bool) -> int:
    """tracemalloc peak (bytes) of one traced sweep.

    Isolates the lifecycle + histogram layers: the flight recorder and
    span tracer stay no-op on BOTH sides, because they are post-hoc
    debugging tools with their own O(events) storage — the
    million-transaction configuration this bench gates replaces them
    with the bounded streaming monitor (``repro.obs.monitor``).
    """
    from repro.obs.timeline import NOOP_RECORDER
    from repro.obs.tracer import NOOP_TRACER

    if sampled:
        registry = MetricsRegistry(policy="sketch")
        life: LifecycleTracer = SampledLifecycleTracer(
            RATE, registry=registry
        )
    else:
        registry = MetricsRegistry()
        life = LifecycleTracer(registry=registry)
    with obs.instrumented(registry=registry, lifecycle=life,
                          recorder=NOOP_RECORDER, tracer=NOOP_TRACER):
        tracemalloc.start()
        try:
            _sweep(num_tx)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def _stage_count_total(registry: MetricsRegistry) -> float:
    return sum(
        metric.value for metric in registry.iter_metrics()
        if metric.name.startswith("lifecycle.stage_count.")
    )


def test_sampling_overhead_and_memory_budgets():
    # -- exactness first: counters cover every transaction ------------
    elapsed, registry, life, result = _run_sampled()
    admitted = registry.counter("lifecycle.stage_count.admitted").value
    kept = registry.counter("lifecycle.sampled.kept").value
    dropped = registry.counter("lifecycle.sampled.dropped").value
    outcomes = [trace.outcome for trace in life.traces()]
    assert result.injected >= MIN_SWEEP_TX
    assert admitted == result.injected
    assert kept + dropped == admitted
    assert life.closed_count == kept  # every sampled trace sealed
    assert len(outcomes) == kept
    assert None not in outcomes
    # The deterministic hash keeps ~1/100; allow generous slack.
    assert 0.5 * admitted / 100 <= kept <= 2.0 * admitted / 100
    # Stage counters are exact over ALL transactions even though only
    # ~1% carry traces: every admitted tx commits in this workload, and
    # the traces see only the sampled subset.
    committed = registry.counter(
        "lifecycle.stage_count.committed"
    ).value
    assert committed == admitted
    assert outcomes.count("committed") == kept

    # -- enabled overhead: sampled tracer vs no-op lifecycle ----------
    # Interleaved so gradual host drift cannot systematically favour
    # whichever side happens to run later.
    enabled_samples = [elapsed]
    noop_samples = []
    for _ in range(REPEATS - 1):
        noop_samples.append(_run_noop_lifecycle())
        enabled_samples.append(_run_sampled()[0])
    noop_samples.append(_run_noop_lifecycle())
    enabled = min(enabled_samples)
    noop = min(noop_samples)
    enabled_overhead = (enabled - noop) / noop if noop > 0 else 0.0
    assert enabled_overhead <= ENABLED_BUDGET, (
        f"sampled tracing enabled overhead {enabled_overhead:.1%} "
        f"exceeds {ENABLED_BUDGET:.0%} budget "
        f"(enabled {enabled:.4f}s vs no-op {noop:.4f}s)"
    )

    # -- disabled overhead: guard cost charged to the disabled run ----
    disabled = min(_run_disabled() for _ in range(REPEATS))
    guard_cost = _guard_cost_per_call()
    lifecycle_calls = _stage_count_total(registry)
    charged_calls = GUARD_CALL_FACTOR * lifecycle_calls
    disabled_overhead = (
        charged_calls * guard_cost / disabled if disabled > 0 else 0.0
    )
    assert disabled_overhead <= DISABLED_BUDGET, (
        f"disabled overhead {disabled_overhead:.2%} exceeds "
        f"{DISABLED_BUDGET:.0%} budget ({charged_calls:.0f} guard "
        f"calls at {guard_cost * 1e9:.0f} ns against {disabled:.4f}s)"
    )

    # -- memory: sampled+sketch peaks must be sublinear in tx count --
    sampled_base = _obs_peak(MEMORY_BASE_TX, sampled=True)
    sampled_double = _obs_peak(2 * MEMORY_BASE_TX, sampled=True)
    full_base = _obs_peak(MEMORY_BASE_TX, sampled=False)
    growth = sampled_double / sampled_base if sampled_base else 0.0
    assert growth <= SUBLINEAR_FACTOR, (
        f"sampled+sketch peak grew {growth:.2f}x when the sweep "
        f"doubled ({sampled_base} -> {sampled_double} bytes); "
        f"expected <= {SUBLINEAR_FACTOR}x"
    )
    assert sampled_base < full_base / 4, (
        f"sampled+sketch peak {sampled_base} bytes is not clearly "
        f"below the full exact tracer's {full_base} bytes"
    )

    payload = {
        "bench": "obs_sampling",
        "workload": {
            "chain": "ethereum",
            "blocks": PIPELINE_BLOCKS,
            "scale": PIPELINE_SCALE,
            "cores": CORES,
            "seed": SEED,
            "transactions": admitted,
            "rate": str(RATE),
            "policy": "sketch",
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "sampling": {
            "admitted": admitted,
            "kept": kept,
            "dropped": dropped,
            "committed_counter": committed,
            "stage_events": lifecycle_calls,
        },
        "enabled_overhead": {
            "enabled_seconds": enabled,
            "noop_lifecycle_seconds": noop,
            "overhead_fraction": enabled_overhead,
            "budget": ENABLED_BUDGET,
            "repeats": REPEATS,
        },
        "disabled_overhead": {
            "disabled_seconds": disabled,
            "guard_seconds_per_call": guard_cost,
            "charged_calls": charged_calls,
            "overhead_fraction": disabled_overhead,
            "budget": DISABLED_BUDGET,
        },
        "memory": {
            "base_tx": MEMORY_BASE_TX,
            "sampled_sketch_peak_bytes": sampled_base,
            "sampled_sketch_peak_bytes_2x": sampled_double,
            "full_exact_peak_bytes": full_base,
            "growth_factor": growth,
            "sublinear_budget": SUBLINEAR_FACTOR,
            "process_peak_rss_bytes": peak_rss_bytes(),
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    write_output("obs_sampling", "\n".join([
        f"obs sampling bench: ethereum, {PIPELINE_BLOCKS} blocks at "
        f"{PIPELINE_SCALE:g}x scale ({admitted:.0f} transactions), "
        f"rate {RATE}, sketch policy",
        "",
        f"sampling: {kept:.0f} kept / {dropped:.0f} dropped "
        f"(counters exact: {admitted:.0f} admitted, "
        f"{committed:.0f} committed)",
        f"enabled overhead:  {enabled_overhead:.2%} "
        f"(enabled {enabled:.4f}s, no-op lifecycle {noop:.4f}s, "
        f"budget {ENABLED_BUDGET:.0%})",
        f"disabled overhead: {disabled_overhead:.3%} "
        f"({charged_calls:.0f} guard calls at "
        f"{guard_cost * 1e9:.0f} ns, disabled run {disabled:.4f}s, "
        f"budget {DISABLED_BUDGET:.0%})",
        f"memory: sampled+sketch {sampled_base} B at "
        f"{MEMORY_BASE_TX} tx -> {sampled_double} B at "
        f"{2 * MEMORY_BASE_TX} tx ({growth:.2f}x, budget "
        f"{SUBLINEAR_FACTOR}x); full exact tracer {full_base} B",
    ]))


def test_sketch_accuracy_on_golden_pipeline():
    """Sketch percentiles track exact ones on the golden seeded chain."""
    registry = MetricsRegistry()
    life = LifecycleTracer(registry=registry)
    with obs.instrumented(registry=registry, lifecycle=life):
        _network(GOLDEN_BLOCKS, GOLDEN_SEED, GOLDEN_CORES)
    checked = 0
    accuracy: dict[str, dict[str, float]] = {}
    for metric in registry.iter_metrics():
        if not metric.name.startswith("lifecycle.stage."):
            continue
        values = list(metric._values)
        if len(values) < 10:
            continue
        sketch = SketchHistogram(metric.name)
        for index, value in enumerate(values):
            sketch.observe(value, key=f"tx{index}")
        ordered = sorted(values)
        entry: dict[str, float] = {}
        for quantile in (0.50, 0.95, 0.99):
            # Same-rank order statistic, the reference the DDSketch
            # relative-error bound is stated against.  The exact
            # histogram's public percentile() additionally interpolates
            # between adjacent order statistics — at sparse tails that
            # interpolation gap is a rank-method difference, not sketch
            # error, and can exceed the bound on its own.
            exact_q = ordered[int(quantile * (len(ordered) - 1))]
            sketch_q = sketch.percentile(quantile)
            scale = max(abs(exact_q), 1e-9)
            error = abs(sketch_q - exact_q) / scale
            assert error <= SKETCH_TOLERANCE, (
                f"{metric.name} p{quantile * 100:.0f}: sketch "
                f"{sketch_q} vs exact {exact_q} "
                f"(relative error {error:.4f} > {SKETCH_TOLERANCE})"
            )
            entry[f"p{quantile * 100:.0f}_rel_error"] = error
        accuracy[metric.name] = entry
        checked += 1
    assert checked >= 3  # several stages must actually be exercised

    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
        payload["sketch_accuracy"] = {
            "tolerance": SKETCH_TOLERANCE,
            "stages": accuracy,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
