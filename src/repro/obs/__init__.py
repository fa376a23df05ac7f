"""Instrumentation layer: metrics, span tracer, flight recorder, exporters.

The rest of the codebase talks to this package through four module
functions that dispatch to a process-global observability state::

    from repro import obs

    with obs.trace_span("tdg.build", model="utxo") as span:
        ...
        span.set(edges=n)
    obs.counter("mempool.admitted").inc()
    if obs.enabled():                     # guard anything non-trivial
        obs.histogram("exec.occ.queue_depth").observe(len(pending))

By default the state holds :data:`NOOP_REGISTRY` and
:data:`NOOP_TRACER`, so every call above is a near-free no-op and the
tier-1 timings are unaffected.  Recording is switched on either for a
scope::

    with obs.instrumented() as state:
        run_pipeline()
    state.registry.snapshot(); state.tracer.spans()

or process-wide with :func:`install` / :func:`uninstall` (the CLI
``profile`` subcommand and the bench harness use the scoped form).
Tests swap in private registries the same way, so they never observe
each other's counts.

Naming scheme (full catalogue in ``docs/observability.md``):

* ``tdg.*`` — dependency-graph construction,
* ``pipeline.*`` — per-chain / per-block analysis spans,
* ``exec.<engine>.*`` — executor runs, aborts, retries, utilization,
* ``mempool.*`` — admission, eviction, packing,
* ``gossip.*`` — propagation message counts and hop depths,
* ``lifecycle.*`` — per-transaction stage transitions and latencies
  (see :mod:`repro.obs.lifecycle`),
* ``consensus.*`` / ``sharding.*`` — round latencies, dispatch counts.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.lifecycle import (
    NOOP_LIFECYCLE,
    LifecycleTracer,
    NoopLifecycleTracer,
    StitchedTrace,
    TraceContext,
)
from repro.obs.metrics import (
    NOOP_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopMetricsRegistry,
)
from repro.obs.sampling import (
    SampledLifecycleTracer,
    SampleRate,
    parse_rate,
    sample_decision,
)
from repro.obs.sketch import SketchHistogram
from repro.obs.timeline import (
    NOOP_RECORDER,
    FlightRecorder,
    NoopFlightRecorder,
    TimelineEvent,
)
from repro.obs.tracer import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LifecycleTracer",
    "MetricsRegistry",
    "NoopFlightRecorder",
    "NoopLifecycleTracer",
    "NoopMetricsRegistry",
    "NoopTracer",
    "ObservabilityState",
    "SampleRate",
    "SampledLifecycleTracer",
    "SketchHistogram",
    "Span",
    "StitchedTrace",
    "TimelineEvent",
    "TraceContext",
    "Tracer",
    "counter",
    "parse_rate",
    "sample_decision",
    "enabled",
    "gauge",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "histogram",
    "install",
    "instrumented",
    "lifecycle",
    "measuring",
    "scoped",
    "trace_span",
    "uninstall",
]


@dataclass(frozen=True)
class ObservabilityState:
    """One (registry, tracer, recorder, lifecycle) set — ``instrumented``
    yields it.

    ``enabled`` (anything records) and ``measuring`` (a registry or a
    tracer records) are plain fields, computed once here: every
    component's ``enabled`` is fixed by its class, and the guards are
    read on every hop of the hot paths.
    """

    registry: MetricsRegistry
    tracer: Tracer
    recorder: FlightRecorder = NOOP_RECORDER
    lifecycle: LifecycleTracer = NOOP_LIFECYCLE
    enabled: bool = field(init=False, compare=False, repr=False)
    measuring: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        measuring = self.registry.enabled or self.tracer.enabled
        object.__setattr__(self, "measuring", measuring)
        object.__setattr__(self, "enabled", measuring or (
            self.recorder.enabled or self.lifecycle.enabled
        ))


_NOOP_STATE = ObservabilityState(
    registry=NOOP_REGISTRY, tracer=NOOP_TRACER, recorder=NOOP_RECORDER,
    lifecycle=NOOP_LIFECYCLE,
)
_state: ObservabilityState = _NOOP_STATE

# Thread-local override: lets concurrent chunks (thread-backend parallel
# replay) each record into a private state without touching the process
# global.  ``_current()`` is the single resolution point every dispatch
# helper goes through; the common case (no override) is one attribute
# probe on a thread-local, so the no-op fast path stays flat.
class _LocalOverride(threading.local):
    # Class-level default: threads that never set an override resolve
    # ``state`` through the class attribute instead of raising (and
    # catching) AttributeError inside getattr — that hidden exception
    # costs several hundred nanoseconds per dispatch, which is the
    # difference between a free and a measurable disabled guard.
    state: "ObservabilityState | None" = None


_local = _LocalOverride()

# Number of scoped() overrides currently active across all threads.
# While zero (the overwhelmingly common case — overrides only exist
# inside thread-backend replay chunks) dispatch skips the thread-local
# probe entirely: reading one module global is ~3x cheaper, and the
# disabled-pipeline guard budget (benchmarks/bench_obs_sampling.py) is
# priced in tens of nanoseconds.  Reads are deliberately lock-free: a
# thread inside scoped() always observes its own increment, so it can
# never miss its override; other threads at worst probe needlessly.
_override_count = 0
_override_lock = threading.Lock()


def _current() -> ObservabilityState:
    if _override_count:
        override = _local.state
        if override is not None:
            return override
    return _state


def enabled() -> bool:
    """True when anything records: registry, tracer, flight recorder or
    lifecycle tracer.

    Hot paths use this to guard instrumentation that would otherwise
    compute something (an extra pass, a division) even when disabled;
    see :func:`measuring` for work only a metric or a span reads.
    """
    return _current().enabled


def measuring() -> bool:
    """True when a recording registry or tracer is installed.

    The guard for work that only feeds a metric or a span attribute.
    :func:`enabled` is also true for a flight recorder or a lifecycle
    tracer alone — the state a node's per-block replay runs under —
    where such work would be computed for the no-op registry; recorder
    work is guarded on ``get_recorder().enabled`` instead.
    """
    return _current().measuring


def get_registry() -> MetricsRegistry:
    return _current().registry


def get_tracer() -> Tracer:
    return _current().tracer


def get_recorder() -> FlightRecorder:
    return _current().recorder


def lifecycle() -> LifecycleTracer:
    """The current lifecycle tracer (:data:`NOOP_LIFECYCLE` when off)."""
    # Inlined _current(): this is the guard every lifecycle call site
    # runs per transaction hop, so one avoided function call matters at
    # the disabled-overhead budget's scale.
    if _override_count:
        override = _local.state
        if override is not None:
            return override.lifecycle
    return _state.lifecycle


@contextmanager
def scoped(state: ObservabilityState) -> Iterator[ObservabilityState]:
    """Route this thread's obs dispatch into *state* for the scope.

    Unlike :func:`instrumented`, which swaps the process-global state,
    ``scoped`` binds the override to the calling thread only — two
    threads can each replay a chunk under their own private recorder
    without interleaving events.  Scopes nest; the previous override
    (or none) is restored on exit.
    """
    global _override_count
    previous = _local.state
    with _override_lock:
        _override_count += 1
    _local.state = state
    try:
        yield state
    finally:
        _local.state = previous
        with _override_lock:
            _override_count -= 1


def install(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    recorder: FlightRecorder | None = None,
    lifecycle: LifecycleTracer | None = None,
) -> ObservabilityState:
    """Install a recording state process-wide; returns it.

    Any component left ``None`` gets a fresh recording instance; pass
    the explicit no-op singleton (e.g. ``NOOP_RECORDER``) to keep one
    component disabled while the others record.  A fresh lifecycle
    tracer observes its stage metrics into the installed registry.
    """
    global _state
    resolved_registry = registry if registry is not None else MetricsRegistry()
    _state = ObservabilityState(
        registry=resolved_registry,
        tracer=tracer if tracer is not None else Tracer(),
        recorder=recorder if recorder is not None else FlightRecorder(),
        lifecycle=lifecycle if lifecycle is not None
        else LifecycleTracer(registry=resolved_registry),
    )
    return _state


def uninstall() -> None:
    """Restore the zero-cost no-op state."""
    global _state
    _state = _NOOP_STATE


@contextmanager
def instrumented(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    recorder: FlightRecorder | None = None,
    lifecycle: LifecycleTracer | None = None,
) -> Iterator[ObservabilityState]:
    """Scoped recording: install on entry, restore the prior state after."""
    global _state
    previous = _state
    state = install(registry=registry, tracer=tracer, recorder=recorder,
                    lifecycle=lifecycle)
    try:
        yield state
    finally:
        _state = previous


# -- dispatching helpers (the only API instrumented modules call) ------------


def trace_span(name: str, **attrs: object):
    """Open a span on the current tracer (no-op context when disabled)."""
    return _current().tracer.span(name, **attrs)


def counter(name: str, **labels: object) -> Counter:
    return _current().registry.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    return _current().registry.gauge(name, **labels)


def histogram(name: str, **labels: object) -> Histogram:
    return _current().registry.histogram(name, **labels)
