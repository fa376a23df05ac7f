"""Lifecycle tracing overhead bench: the end-to-end pipeline with the
causal trace layer on, off, and absent.

Drives the full transaction pipeline (mempool → gossip → consensus →
execution) on a seeded Ethereum-profile chain — a virtual node network,
:func:`repro.node.lifecycle_config` — and gates the two overhead budgets from the
lifecycle-tracing issue, writing ``BENCH_lifecycle_trace.json`` at the
repo root (plus a summary under ``benchmarks/output/``):

1. **Enabled overhead ≤ 10%** — the same fully-instrumented replay
   with the real :class:`~repro.obs.lifecycle.LifecycleTracer` vs the
   no-op lifecycle tracer (registry and flight recorder live on
   both sides, min of several repeats).  This isolates the cost of the
   lifecycle layer itself: causal event construction, monotonic
   clamping, and the per-stage histogram observations (metric handles
   are cached per stage, which is what keeps this inside the budget).
2. **Disabled overhead ≤ 1%** — with observability uninstalled the
   call sites reduce to no-op guard checks.  The guard cost is
   measured directly (per-call wall time of the exact disabled
   call-site pattern) and charged against the disabled pipeline run at
   twice the enabled run's event count — a deliberate overestimate;
   even so it must stay under 1% of the disabled run.

The stitched-trace invariants (one closed monotonic trace per injected
transaction) are asserted on the instrumented run before timing is
trusted, so the bench cannot pass by silently tracing nothing.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from _common import write_output

from repro import obs
from repro.node import NodeNetwork, lifecycle_config
from repro.obs.lifecycle import NOOP_LIFECYCLE, LifecycleTracer
from repro.obs.metrics import MetricsRegistry

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_lifecycle_trace.json"
)

NUM_BLOCKS = 8
SEED = 2020
CORES = 4
REPEATS = 5
ENABLED_BUDGET = 0.10
DISABLED_BUDGET = 0.01
GUARD_CALL_FACTOR = 2  # charge twice the observed event count


def _pipeline():
    result = NodeNetwork(lifecycle_config(
        "ethereum", blocks=NUM_BLOCKS, seed=SEED, cores=CORES, engine="dag",
    )).run()
    assert result.converged, result.reason
    return result


def _run_instrumented():
    """Full instrumentation with the real lifecycle tracer."""
    registry = MetricsRegistry()
    life = LifecycleTracer(registry=registry)
    with obs.instrumented(registry=registry, lifecycle=life):
        started = time.perf_counter()
        result = _pipeline()
        elapsed = time.perf_counter() - started
        events = registry.counter("lifecycle.events").value
    return elapsed, result, life.traces(), events


def _run_noop_lifecycle():
    """Identical instrumentation, lifecycle layer swapped for the no-op."""
    with obs.instrumented(lifecycle=NOOP_LIFECYCLE):
        started = time.perf_counter()
        _pipeline()
        return time.perf_counter() - started


def _run_disabled():
    """Observability fully uninstalled — the shipped default."""
    obs.uninstall()
    started = time.perf_counter()
    _pipeline()
    elapsed = time.perf_counter() - started
    assert obs.lifecycle().traces() == []  # nothing recorded when disabled
    return elapsed


def _guard_cost_per_call():
    """Wall cost of one disabled call-site guard (median of 3)."""
    calls = 200_000
    obs.uninstall()
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(calls):
            life = obs.lifecycle()
            if life.enabled:  # pragma: no cover - disabled by design
                raise AssertionError("lifecycle unexpectedly enabled")
        samples.append((time.perf_counter() - started) / calls)
    samples.sort()
    return samples[1]


def test_lifecycle_trace_overhead_budgets():
    # -- correctness first: the instrumented run must actually trace --
    elapsed, result, traces, events = _run_instrumented()
    outcomes = [trace.outcome for trace in traces]
    assert result.injected > 0
    assert len(traces) == result.injected
    assert None not in outcomes  # every trace closed
    assert all(t.is_monotonic() for t in traces)
    assert events > result.injected  # several stages per transaction

    # -- enabled overhead: real vs no-op lifecycle tracer -------------
    enabled = min(
        [elapsed] + [_run_instrumented()[0] for _ in range(REPEATS - 1)]
    )
    noop = min(_run_noop_lifecycle() for _ in range(REPEATS))
    enabled_overhead = (enabled - noop) / noop if noop > 0 else 0.0
    assert enabled_overhead <= ENABLED_BUDGET, (
        f"lifecycle enabled overhead {enabled_overhead:.1%} exceeds "
        f"{ENABLED_BUDGET:.0%} budget "
        f"(enabled {enabled:.4f}s vs no-op {noop:.4f}s)"
    )

    # -- disabled overhead: guard cost charged to the disabled run ----
    disabled = min(_run_disabled() for _ in range(REPEATS))
    guard_cost = _guard_cost_per_call()
    charged_calls = GUARD_CALL_FACTOR * events
    disabled_overhead = (
        charged_calls * guard_cost / disabled if disabled > 0 else 0.0
    )
    assert disabled_overhead <= DISABLED_BUDGET, (
        f"lifecycle disabled overhead {disabled_overhead:.2%} exceeds "
        f"{DISABLED_BUDGET:.0%} budget ({charged_calls:.0f} guard "
        f"calls at {guard_cost * 1e9:.0f} ns against "
        f"{disabled:.4f}s)"
    )

    payload = {
        "bench": "lifecycle_trace",
        "workload": {
            "chain": "ethereum",
            "blocks": NUM_BLOCKS,
            "cores": CORES,
            "seed": SEED,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "traces": {
            "admitted": result.injected,
            "committed": outcomes.count("committed"),
            "dropped": outcomes.count("dropped"),
            "stage_events": events,
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
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    write_output("lifecycle_trace", "\n".join([
        f"lifecycle trace bench: ethereum, {NUM_BLOCKS} blocks, "
        f"{CORES} cores",
        "",
        f"traces: {result.injected} admitted, "
        f"{outcomes.count('committed')} committed, "
        f"{outcomes.count('dropped')} dropped, "
        f"{events:.0f} stage events",
        f"enabled overhead:  {enabled_overhead:.2%} "
        f"(enabled {enabled:.4f}s, no-op lifecycle {noop:.4f}s, "
        f"budget {ENABLED_BUDGET:.0%})",
        f"disabled overhead: {disabled_overhead:.3%} "
        f"({charged_calls:.0f} guard calls at "
        f"{guard_cost * 1e9:.0f} ns, disabled run {disabled:.4f}s, "
        f"budget {DISABLED_BUDGET:.0%})",
    ]))
