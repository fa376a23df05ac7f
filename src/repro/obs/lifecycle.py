"""End-to-end transaction lifecycle tracing: causal trace propagation.

The paper's speed-up model (Eq. 1 / Eq. 2) covers only the execution
phase, but the *system-level* win depends on where each transaction's
wall-clock actually goes across the whole pipeline: mempool admission,
gossip propagation, committee assignment, consensus, and execution.
This module is the OpenTelemetry-style causal layer that makes that
visible: a :class:`TraceContext` (trace_id / span_id / parent link) is
minted at mempool admission and propagated with the transaction through
every stage, so one transaction yields one *stitched trace*::

    admitted → assigned? → relayed* → included → consensus
             → scheduled → (aborted/retried)* → committed

(or a terminal ``dropped`` when the mempool evicts or replaces it).

Design points, mirroring the rest of :mod:`repro.obs`:

* **Simulated clock.** Stage timestamps are *simulated seconds* on a
  clock the driver advances (:meth:`LifecycleTracer.set_clock` /
  :meth:`advance`; a node sets it to its runtime's clock); instrumented
  modules (mempool, node) record at the current clock without knowing
  the driver.  Timestamps within a
  trace are clamped monotonic, so a stitched trace is always a valid
  timeline — the property the tests assert.
* **Causal chain.** Every event's ``parent_id`` is the previous event's
  ``span_id`` in the same trace (admission is the root), so the export
  reconstructs the per-transaction causal chain without a span stack.
* **Deterministic ids.** ``trace_id`` is the transaction hash; span ids
  come from a per-tracer counter — traces are diffable between runs.
* **Zero-cost when disabled.** :data:`NOOP_LIFECYCLE` drops everything;
  the instrumented call sites guard on ``tracer.enabled`` exactly like
  the metrics layer, keeping the disabled overhead within the 1%
  budget enforced by ``benchmarks/bench_lifecycle_trace.py``.
* **Stage metrics.** Each recorded transition observes the latency
  since the previous stage into ``lifecycle.stage.<stage>`` histograms
  (simulated seconds, so they are deterministic and regress-gateable)
  plus ``lifecycle.opened`` / ``lifecycle.closed`` counters.

:func:`stitch_execution_events` joins the pipeline-side trace with the
existing flight-recorder events (:mod:`repro.obs.timeline`): the
executor's ``schedule``/``abort``/``retry``/``commit`` events become
``scheduled``/``aborted``/``retried``/``committed`` lifecycle stages on
a caller-supplied cost-unit-to-seconds conversion, closing the trace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeline import TimelineEvent

# Stage vocabulary (docs/observability.md has the full stitching rules).
ADMITTED = "admitted"        # minted at Mempool.submit
RELAYED = "relayed"          # per-hop gossip relay (one per hop depth)
ASSIGNED = "assigned"        # sharding committee assignment
INCLUDED = "included"        # selected by block packing
CONSENSUS = "consensus"      # consensus round committed the block
SCHEDULED = "scheduled"      # executor queued the task
ABORTED = "aborted"          # execution attempt failed validation
RETRIED = "retried"          # re-queued after an abort
COMMITTED = "committed"      # terminal: executed for good
DROPPED = "dropped"          # terminal: evicted / replaced / expired

STAGES = (
    ADMITTED, RELAYED, ASSIGNED, INCLUDED, CONSENSUS,
    SCHEDULED, ABORTED, RETRIED, COMMITTED, DROPPED,
)
TERMINAL_STAGES = (COMMITTED, DROPPED)

# A transaction spanning several shard committees (a Zilliqa-style
# cross-shard state sync) yields per-shard sub-traces named
# ``<tx_hash>#shard=<k>``; join_shard_traces folds them back into one
# stitched trace per transaction.
SHARD_TRACE_SEPARATOR = "#"


@dataclass(frozen=True)
class TraceContext:
    """The causal coordinates carried with one transaction.

    Plain picklable data (no locks, no tracer reference), so it can ride
    through process-pool chunk workers and return intact — the
    cross-process test in ``tests/obs/test_lifecycle.py`` asserts this.
    """

    trace_id: str
    span_id: int
    parent_id: int | None = None

    def child(self, span_id: int) -> "TraceContext":
        """The context a follow-up stage records under."""
        return TraceContext(
            trace_id=self.trace_id, span_id=span_id,
            parent_id=self.span_id,
        )


@dataclass(frozen=True)
class LifecycleEvent:
    """One recorded stage transition of one transaction."""

    trace_id: str
    span_id: int
    parent_id: int | None
    stage: str
    at: float                # simulated seconds
    duration: float = 0.0    # >0 for stages modelling an extent
    attrs: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "stage": self.stage,
            "at": self.at,
            "duration": self.duration,
            "attrs": self.attrs,
        }


@dataclass(frozen=True)
class StitchedTrace:
    """One transaction's full lifecycle, admission to terminal stage."""

    trace_id: str
    events: tuple[LifecycleEvent, ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("a stitched trace needs at least one event")

    @property
    def outcome(self) -> str | None:
        """``committed`` / ``dropped`` when closed, else ``None``."""
        last = self.events[-1].stage
        return last if last in TERMINAL_STAGES else None

    @property
    def closed(self) -> bool:
        return self.outcome is not None

    @property
    def started_at(self) -> float:
        return self.events[0].at

    @property
    def ended_at(self) -> float:
        return self.events[-1].at

    @property
    def total_latency(self) -> float:
        """Admission-to-terminal simulated seconds."""
        return self.ended_at - self.started_at

    @property
    def stages(self) -> tuple[str, ...]:
        return tuple(event.stage for event in self.events)

    def is_monotonic(self) -> bool:
        """Timestamps never run backwards (clamped at record time)."""
        return all(
            later.at >= earlier.at
            for earlier, later in zip(self.events, self.events[1:])
        )

    def stage_latencies(self) -> list[tuple[str, float]]:
        """Per-transition waits: (stage, seconds since previous stage)."""
        out: list[tuple[str, float]] = []
        previous = self.events[0].at
        for event in self.events[1:]:
            out.append((event.stage, event.at - previous))
            previous = event.at
        return out

    def as_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "outcome": self.outcome,
            "total_latency": self.total_latency,
            "events": [event.as_dict() for event in self.events],
        }


class LifecycleTracer:
    """Collects per-transaction lifecycle traces; thread-safe.

    One open trace per transaction hash: :meth:`begin` mints the root
    (admission) span, :meth:`record` appends causal stage events, and a
    terminal stage (:data:`COMMITTED` / :data:`DROPPED`, via
    :meth:`close`) seals the trace.  Events recorded for unknown or
    already-closed transactions are counted (``lifecycle.unknown`` /
    ``lifecycle.late_events``) and otherwise ignored, so instrumented
    modules never need to know whether a transaction is being traced.
    """

    enabled = True

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self._registry = registry
        self._open: dict[str, list[LifecycleEvent]] = {}
        self._closed: dict[str, StitchedTrace] = {}
        self._clock = 0.0
        self._next_span = 1
        self._lock = threading.Lock()
        # Metric handles are resolved once per stage, not per event —
        # registry lookups (label hashing) would otherwise dominate the
        # per-record cost and blow the 10% enabled-overhead budget.
        # Histograms are cached lazily so only observed stages appear
        # in snapshots.
        if registry is not None and registry.enabled:
            self._events_counter = registry.counter("lifecycle.events")
        else:
            self._events_counter = None
        self._stage_histograms: dict[str, object] = {}

    # -- simulated clock ------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock

    def set_clock(self, at: float) -> None:
        """Move the simulated clock (drivers own the time base)."""
        self._clock = float(at)

    def advance(self, seconds: float) -> float:
        """Advance the clock by *seconds*; returns the new time."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._clock += seconds
        return self._clock

    # -- metrics --------------------------------------------------------------

    def _observe(self, stage: str, latency: float) -> None:
        counter = self._events_counter
        if counter is None:
            return
        counter.inc()
        histogram = self._stage_histograms.get(stage)
        if histogram is None:
            histogram = self._registry.histogram(
                f"lifecycle.stage.{stage}"
            )
            self._stage_histograms[stage] = histogram
        histogram.observe(latency)

    def _count(self, name: str, **labels: object) -> None:
        registry = self._registry
        if registry is None or not registry.enabled:
            return
        registry.counter(name, **labels).inc()

    # -- recording ------------------------------------------------------------

    def begin(self, tx_hash: str, *, at: float | None = None,
              **attrs: object) -> TraceContext:
        """Mint the root (admission) span for *tx_hash*.

        Raises:
            ValueError: a trace for *tx_hash* is already open or closed
                — every transaction gets exactly one lifecycle trace.
        """
        when = self._clock if at is None else float(at)
        with self._lock:
            if tx_hash in self._open or tx_hash in self._closed:
                raise ValueError(
                    f"lifecycle trace for {tx_hash!r} already exists"
                )
            span_id = self._next_span
            self._next_span += 1
            event = LifecycleEvent(
                trace_id=tx_hash, span_id=span_id, parent_id=None,
                stage=ADMITTED, at=when, attrs=dict(attrs),
            )
            self._open[tx_hash] = [event]
        self._count("lifecycle.opened")
        self._observe(ADMITTED, 0.0)
        return TraceContext(trace_id=tx_hash, span_id=span_id)

    def record(self, tx_hash: str, stage: str, *,
               at: float | None = None, duration: float = 0.0,
               **attrs: object) -> TraceContext | None:
        """Append a stage event to *tx_hash*'s open trace.

        The timestamp is clamped to the trace's last event, keeping
        every stitched trace monotonic.  Returns the new context, or
        ``None`` when the transaction has no open trace (unknown or
        already closed — counted, never raised).
        """
        if stage not in STAGES:
            raise ValueError(
                f"unknown lifecycle stage {stage!r}; expected one of "
                f"{', '.join(STAGES)}"
            )
        when = self._clock if at is None else float(at)
        with self._lock:
            events = self._open.get(tx_hash)
            if events is None:
                known = tx_hash in self._closed
                counter = "lifecycle.late_events" if known \
                    else "lifecycle.unknown"
                # Counted outside the lock via _count below.
            else:
                previous = events[-1]
                when = max(when, previous.at)
                span_id = self._next_span
                self._next_span += 1
                event = LifecycleEvent(
                    trace_id=tx_hash, span_id=span_id,
                    parent_id=previous.span_id, stage=stage, at=when,
                    duration=duration, attrs=dict(attrs),
                )
                events.append(event)
                latency = when - previous.at
                if stage in TERMINAL_STAGES:
                    self._closed[tx_hash] = StitchedTrace(
                        trace_id=tx_hash, events=tuple(events)
                    )
                    del self._open[tx_hash]
        if events is None:
            self._count(counter)
            return None
        self._observe(stage, latency)
        if stage in TERMINAL_STAGES:
            self._count("lifecycle.closed", outcome=stage)
        return TraceContext(
            trace_id=tx_hash, span_id=span_id, parent_id=previous.span_id
        )

    def close(self, tx_hash: str, stage: str = COMMITTED, *,
              at: float | None = None, **attrs: object) -> bool:
        """Seal *tx_hash* with a terminal stage; True when it was open."""
        if stage not in TERMINAL_STAGES:
            raise ValueError(
                f"{stage!r} is not terminal; expected one of "
                f"{', '.join(TERMINAL_STAGES)}"
            )
        return self.record(tx_hash, stage, at=at, **attrs) is not None

    # -- reading --------------------------------------------------------------

    def trace(self, tx_hash: str) -> StitchedTrace | None:
        """The stitched trace for *tx_hash* (open traces stitch as-is)."""
        with self._lock:
            closed = self._closed.get(tx_hash)
            if closed is not None:
                return closed
            events = self._open.get(tx_hash)
            if events is None:
                return None
            return StitchedTrace(trace_id=tx_hash, events=tuple(events))

    def traces(self) -> list[StitchedTrace]:
        """All traces, closed first (completion order), then open."""
        with self._lock:
            out = list(self._closed.values())
            out.extend(
                StitchedTrace(trace_id=tx_hash, events=tuple(events))
                for tx_hash, events in self._open.items()
            )
        return out

    @property
    def open_count(self) -> int:
        return len(self._open)

    @property
    def closed_count(self) -> int:
        return len(self._closed)

    def clear(self) -> None:
        with self._lock:
            self._open.clear()
            self._closed.clear()
            self._clock = 0.0
            self._next_span = 1


class NoopLifecycleTracer(LifecycleTracer):
    """The disabled tracer: every mutator is a near-free no-op."""

    enabled = False

    def begin(self, tx_hash: str, *, at: float | None = None,
              **attrs: object) -> TraceContext:
        return _NOOP_CONTEXT

    def record(self, tx_hash: str, stage: str, *,
               at: float | None = None, duration: float = 0.0,
               **attrs: object) -> TraceContext | None:
        return None

    def close(self, tx_hash: str, stage: str = COMMITTED, *,
              at: float | None = None, **attrs: object) -> bool:
        return False

    def set_clock(self, at: float) -> None:
        pass

    def advance(self, seconds: float) -> float:
        return 0.0

    def traces(self) -> list[StitchedTrace]:
        return []


_NOOP_CONTEXT = TraceContext(trace_id="noop", span_id=0)
NOOP_LIFECYCLE = NoopLifecycleTracer()


# -- stitching with the flight recorder ---------------------------------------


_KIND_TO_STAGE = {
    "schedule": SCHEDULED,
    "abort": ABORTED,
    "retry": RETRIED,
    "commit": COMMITTED,
}


def stitch_execution_events(
    tracer: LifecycleTracer,
    events: Sequence["TimelineEvent"],
    *,
    at: float,
    cost_unit_seconds: float = 1.0,
) -> int:
    """Fold flight-recorder events into lifecycle traces.

    Each ``schedule`` / ``abort`` / ``retry`` / ``commit`` event becomes
    the corresponding lifecycle stage at ``at + clock *
    cost_unit_seconds`` (the executor's logical clock converted to
    simulated seconds); ``start`` and ``edge`` events carry no lifecycle
    stage and are skipped.  ``commit`` closes the trace.  Returns the
    number of stitched stage events.
    """
    if not tracer.enabled:
        return 0
    if cost_unit_seconds <= 0:
        raise ValueError("cost_unit_seconds must be positive")
    stitched = 0
    for event in events:
        stage = _KIND_TO_STAGE.get(event.kind)
        if stage is None:
            continue
        context = tracer.record(
            event.task, stage,
            at=at + event.clock * cost_unit_seconds,
            executor=event.executor, lane=event.lane, round=event.round,
        )
        if context is not None:
            stitched += 1
    return stitched


# -- cross-shard stitching ----------------------------------------------------


def shard_subtrace_id(tx_hash: str, shard: int) -> str:
    """The trace id of *tx_hash*'s sub-trace on committee *shard*."""
    return f"{tx_hash}{SHARD_TRACE_SEPARATOR}shard={shard}"


def join_shard_traces(
    traces: Iterable[StitchedTrace],
) -> list[StitchedTrace]:
    """Fold per-shard sub-traces into one trace per transaction.

    Sub-traces are named ``<tx_hash>#shard=<k>`` (see
    :func:`shard_subtrace_id`).  All parts sharing a base id merge into
    a single stitched trace: events are interleaved by timestamp (span
    id breaks ties, so the ordering is total and deterministic) and
    re-labelled with the base trace id — each event keeps its ``shard``
    attribute, so the joined trace still shows *where* each hop ran.
    Traces without a separator pass through untouched, making this an
    identity (and near-free) transform for unsharded chains — the
    regress baseline never sees a difference.
    """
    groups: dict[str, list[StitchedTrace]] = {}
    for trace in traces:
        base = trace.trace_id.split(SHARD_TRACE_SEPARATOR, 1)[0]
        groups.setdefault(base, []).append(trace)
    out: list[StitchedTrace] = []
    for base, parts in groups.items():
        if len(parts) == 1 and parts[0].trace_id == base:
            out.append(parts[0])
            continue
        events = sorted(
            (event for part in parts for event in part.events),
            key=lambda event: (event.at, event.span_id),
        )
        out.append(StitchedTrace(
            trace_id=base,
            events=tuple(
                replace(event, trace_id=base) for event in events
            ),
        ))
    return out


# -- aggregation --------------------------------------------------------------


@dataclass(frozen=True)
class StageStats:
    """Latency distribution of one stage across a set of traces."""

    stage: str
    count: int
    total: float
    p50: float
    p95: float
    p99: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _percentile(ordered: Sequence[float], p: float) -> float:
    if not ordered:
        return 0.0
    rank = p * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def stage_breakdown(
    traces: Iterable[StitchedTrace],
) -> dict[str, StageStats]:
    """Per-stage latency stats (p50/p95/p99) across *traces*.

    The latency attributed to a stage is the wait since the trace's
    previous stage — summing a trace's stage latencies recovers its
    total admission-to-terminal latency, so the ``share`` column of the
    rendered table genuinely decomposes end-to-end time.
    """
    samples: dict[str, list[float]] = {}
    for trace in traces:
        for stage, latency in trace.stage_latencies():
            samples.setdefault(stage, []).append(latency)
    out: dict[str, StageStats] = {}
    for stage in STAGES:
        values = samples.get(stage)
        if not values:
            continue
        values.sort()
        out[stage] = StageStats(
            stage=stage,
            count=len(values),
            total=sum(values),
            p50=_percentile(values, 0.50),
            p95=_percentile(values, 0.95),
            p99=_percentile(values, 0.99),
            max=values[-1],
        )
    return out


def stage_shares(
    breakdown: Mapping[str, StageStats],
) -> dict[str, float]:
    """Each stage's fraction of total traced latency (sums to 1.0)."""
    total = sum(stats.total for stats in breakdown.values())
    if total <= 0:
        return {stage: 0.0 for stage in breakdown}
    return {
        stage: stats.total / total for stage, stats in breakdown.items()
    }


def slowest_traces(
    traces: Iterable[StitchedTrace], *, limit: int = 3
) -> list[StitchedTrace]:
    """The *limit* closed traces with the largest end-to-end latency."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    closed = [trace for trace in traces if trace.closed]
    closed.sort(key=lambda t: (-t.total_latency, t.trace_id))
    return closed[:limit]


__all__ = [
    "ABORTED",
    "ADMITTED",
    "ASSIGNED",
    "COMMITTED",
    "CONSENSUS",
    "DROPPED",
    "INCLUDED",
    "NOOP_LIFECYCLE",
    "RELAYED",
    "RETRIED",
    "SCHEDULED",
    "SHARD_TRACE_SEPARATOR",
    "STAGES",
    "TERMINAL_STAGES",
    "LifecycleEvent",
    "LifecycleTracer",
    "NoopLifecycleTracer",
    "StageStats",
    "StitchedTrace",
    "TraceContext",
    "join_shard_traces",
    "shard_subtrace_id",
    "slowest_traces",
    "stage_breakdown",
    "stage_shares",
    "stitch_execution_events",
]
