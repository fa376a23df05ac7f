"""Instrumentation layer: metrics, flight-recorder rows, lifecycle
tracer, exporters.

The rest of the codebase talks to this package through module
functions that dispatch to a process-global observability state::

    from repro import obs

    obs.counter("mempool.admitted").inc()
    if obs.measuring():                   # guard anything non-trivial
        obs.histogram("exec.occ.queue_depth").observe(len(pending))

By default the state holds :data:`NOOP_REGISTRY`, so every call above
is a near-free no-op and the tier-1 timings are unaffected.  Recording
is switched on either for a scope::

    with obs.instrumented() as state:
        run_pipeline()
    state.registry.snapshot()
    timeline.as_events(state.rows)   # repro.obs.timeline

or process-wide with :func:`install` / :func:`uninstall`.  Tests swap
in private registries the same way, so they never observe each other's
counts.

Naming scheme (full catalogue in ``docs/observability.md``):

* ``tdg.*`` — dependency-graph construction,
* ``pipeline.*`` — per-chain / per-block analysis counts,
* ``exec.<engine>.*`` — executor runs, aborts, retries, utilization,
* ``mempool.*`` — admission, eviction, packing,
* ``gossip.*`` — propagation message counts and hop depths,
* ``lifecycle.*`` — per-transaction stage transitions and latencies
  (see :mod:`repro.obs.lifecycle`),
* ``consensus.*`` / ``sharding.*`` — round latencies, dispatch counts.
"""

from __future__ import annotations

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
from repro.obs.timeline import EventRow, TimelineEvent

__all__ = [
    "Counter",
    "EventRow",
    "Gauge",
    "Histogram",
    "LifecycleTracer",
    "MetricsRegistry",
    "NoopLifecycleTracer",
    "NoopMetricsRegistry",
    "ObservabilityState",
    "StitchedTrace",
    "TimelineEvent",
    "TraceContext",
    "counter",
    "enabled",
    "event_rows",
    "gauge",
    "get_registry",
    "histogram",
    "install",
    "instrumented",
    "lifecycle",
    "measuring",
    "scoped",
    "uninstall",
]


@dataclass(frozen=True)
class ObservabilityState:
    """One (registry, lifecycle) set and its event rows —
    ``instrumented`` yields it.

    ``rows`` is the plain list of flight-recorder rows
    (:mod:`repro.obs.timeline`) that the writers with no report to hand
    back fill while anything records.  ``enabled`` (anything records)
    and ``measuring`` (the registry records) are plain fields, computed
    once here: every component's ``enabled`` is fixed by its class, and
    the guards are read on every hop of the hot paths.
    """

    registry: MetricsRegistry
    lifecycle: LifecycleTracer = NOOP_LIFECYCLE
    rows: list[EventRow] = field(
        default_factory=list, compare=False, repr=False
    )
    enabled: bool = field(init=False, compare=False, repr=False)
    measuring: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        measuring = self.registry.enabled
        object.__setattr__(self, "measuring", measuring)
        object.__setattr__(
            self, "enabled", measuring or self.lifecycle.enabled
        )


_NOOP_STATE = ObservabilityState(registry=NOOP_REGISTRY)
_state: ObservabilityState = _NOOP_STATE


def enabled() -> bool:
    """True when anything records: registry or lifecycle tracer.

    Hot paths use this to guard instrumentation that would otherwise
    compute something (an extra pass, a division) even when disabled;
    see :func:`measuring` for work only a metric reads.
    """
    return _state.enabled


def measuring() -> bool:
    """True when a recording registry is installed.

    The guard for work that only feeds a metric.  :func:`enabled` is
    also true for a lifecycle tracer alone, where such work would be
    computed for the no-op registry.
    """
    return _state.measuring


def get_registry() -> MetricsRegistry:
    return _state.registry


def event_rows() -> list[EventRow]:
    """The current state's flight-recorder rows; write only while
    :func:`enabled`."""
    return _state.rows


def lifecycle() -> LifecycleTracer:
    """The current lifecycle tracer (:data:`NOOP_LIFECYCLE` when off)."""
    return _state.lifecycle


@contextmanager
def scoped(state: ObservabilityState) -> Iterator[ObservabilityState]:
    """Route obs dispatch into *state* for the scope.

    Swaps the process state and restores the previous one on exit, so
    scopes nest.  A block replay runs under a private state this way:
    its own registry, no-op lifecycle.
    """
    global _state
    previous = _state
    _state = state
    try:
        yield state
    finally:
        _state = previous


def install(
    registry: MetricsRegistry | None = None,
    lifecycle: LifecycleTracer | None = None,
) -> ObservabilityState:
    """Install a recording state process-wide; returns it.

    Any component left ``None`` gets a fresh recording instance; pass
    the explicit no-op singleton (e.g. ``NOOP_LIFECYCLE``) to keep one
    component disabled while the other records.  A fresh lifecycle
    tracer observes its stage metrics into the installed registry.
    """
    global _state
    resolved_registry = registry if registry is not None else MetricsRegistry()
    _state = ObservabilityState(
        registry=resolved_registry,
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
    lifecycle: LifecycleTracer | None = None,
) -> Iterator[ObservabilityState]:
    """Scoped recording: install on entry, restore the prior state after."""
    global _state
    previous = _state
    state = install(registry=registry, lifecycle=lifecycle)
    try:
        yield state
    finally:
        _state = previous


# -- dispatching helpers (the only API instrumented modules call) ------------


def counter(name: str, **labels: object) -> Counter:
    return _state.registry.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    return _state.registry.gauge(name, **labels)


def histogram(name: str, **labels: object) -> Histogram:
    return _state.registry.histogram(name, **labels)
