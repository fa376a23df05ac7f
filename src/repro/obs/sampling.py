"""Deterministic head-based trace sampling for large sweeps.

At a million transactions, minting a full causal trace per transaction
(:mod:`repro.obs.lifecycle`) costs O(tx) memory.  Head-based sampling
keeps the familiar shape — *every* hop of a sampled transaction is
traced (gossip, committee assignment, packing, consensus, execution) —
while unsampled transactions cost only a hash and a counter bump.

The sampling decision is a **pure function of the trace id**::

    keep  iff  crc32(trace_id) % out_of < keep

so it is reproducible everywhere the transaction travels: serial,
thread, and process executors, fork and spawn start methods, and
re-runs of the same workload all sample the same transactions.  (The
builtin ``hash`` is salted per interpreter and would break exactly
this property — ``tests/obs/test_sampling.py`` pins it across pools.)
Cross-shard sub-traces (``txhash#shard=K``, see
:func:`repro.obs.lifecycle.join_shard_traces`) inherit the parent's
decision: the decision hashes only the id up to the ``#`` separator,
so a sampled transaction is sampled on every shard it spans.

Exactness contract: *rates stay exact while latency detail is
sampled*.  :class:`SampledLifecycleTracer` bumps a per-stage counter
(``lifecycle.stage_count.<stage>``) for **all** transactions — sampled
or not — so abort/commit/drop rates computed from counters are exact;
only the per-stage latency histograms and stitched traces are limited
to the sampled subset.

Head sampling alone is blind to the tail: the 1-in-N lottery is
equally likely to keep a fast trace as the pathological one the
operator actually wants.  **Tail-based sampling** (``tail_seconds``)
closes that gap — head-dropped traces are buffered provisionally and
promoted to full traces at close if their simulated duration reaches
the threshold, with exact ``lifecycle.sampled.tail_kept`` /
``tail_evicted`` counters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence
from zlib import crc32

from repro.obs.lifecycle import (
    ADMITTED,
    SHARD_TRACE_SEPARATOR,
    STAGES,
    TERMINAL_STAGES,
    LifecycleTracer,
    TraceContext,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.obs.metrics import Counter, MetricsRegistry

_RATE_PATTERN = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$")

# Membership testing against the tuple is a linear scan; the sampled
# fast path validates the stage on every unsampled hop, so use a set.
_STAGE_SET = frozenset(STAGES)

# The tracer memoises per-trace-id decisions (a dict probe is ~10x
# cheaper than re-hashing the id on every hop).  The memo is bounded so
# unsampled transactions stay O(1) memory overall; the cap comfortably
# covers a block's worth of in-flight ids, which is the reuse window
# (admission → packing → consensus → execution happen blocks apart at
# most).  Evicted ids simply re-hash — the decision is pure, so the
# cache can never change an outcome.  The memo is also what tells a
# re-admission from an admission: on a node network every pool admits
# each transaction, and only the first may count (see ``begin``).  So
# it keeps two generations of half the cap each, and a full one retires
# whole instead of forgetting the ids in flight.
_DECISION_MEMO_CAP = 65_536

# The memo value of a head-dropped trace that reached a terminal stage.
# A later event for it (a relay that arrives after the commit, a block
# re-executed after a fork) is late, as on a closed kept trace: it
# counts nowhere.
_SEALED = "sealed"

# Tail sampling buffers provisional events for head-dropped traces
# until they close; the buffer is bounded so a flood of never-closing
# transactions cannot grow O(open traces) behind the operator's back.
# Evictions are counted (``lifecycle.sampled.tail_evicted``) — an
# evicted trace simply loses its tail chance, it is never corrupted.
DEFAULT_TAIL_BUFFER = 65_536


@dataclass(frozen=True)
class SampleRate:
    """Keep ``keep`` out of every ``out_of`` trace ids."""

    keep: int
    out_of: int

    def __post_init__(self) -> None:
        if self.out_of < 1:
            raise ValueError("sample rate denominator must be >= 1")
        if not 0 < self.keep <= self.out_of:
            raise ValueError(
                "sample rate numerator must be in [1, denominator]; "
                f"got {self.keep}/{self.out_of}"
            )

    @property
    def is_full(self) -> bool:
        """True when every trace is kept (sampling disabled)."""
        return self.keep == self.out_of

    @property
    def fraction(self) -> float:
        return self.keep / self.out_of

    def __str__(self) -> str:
        return f"{self.keep}/{self.out_of}"


FULL_RATE = SampleRate(1, 1)


def parse_rate(text: str) -> SampleRate:
    """Parse ``"k/n"`` (e.g. ``"1/100"``) into a :class:`SampleRate`.

    Raises ``ValueError`` with a usage-style message on anything else —
    the CLI maps that to exit code 2.
    """
    match = _RATE_PATTERN.match(text)
    if match is None:
        raise ValueError(
            f"invalid sample rate {text!r}; expected K/N, e.g. 1/100"
        )
    try:
        return SampleRate(int(match.group(1)), int(match.group(2)))
    except ValueError as exc:
        raise ValueError(f"invalid sample rate {text!r}: {exc}") from exc


def sample_decision(trace_id: str, rate: SampleRate) -> bool:
    """Keep *trace_id*?  Pure, deterministic, process-independent.

    ``crc32`` rather than a cryptographic hash: the decision needs
    determinism and uniformity modulo small denominators, not collision
    resistance, and at one hash per transaction hop the ~5x cost gap
    to ``blake2b`` is what keeps the unsampled fast path inside the
    enabled-overhead budget (``benchmarks/bench_obs_sampling.py``).
    """
    if rate.is_full:
        return True
    base = trace_id.split(SHARD_TRACE_SEPARATOR, 1)[0]
    return crc32(base.encode("utf-8")) % rate.out_of < rate.keep


def sample_decisions(
    trace_ids: Iterable[str], keep: int, out_of: int
) -> list[bool]:
    """Vector form with plain-int args — picklable by qualified name,
    so tests can ``Pool.map`` it under fork *and* spawn."""
    rate = SampleRate(keep, out_of)
    return [sample_decision(trace_id, rate) for trace_id in trace_ids]


# The context unsampled transactions receive from ``begin``: span id 0
# marks "not traced" (real spans start at 1), mirroring the noop
# tracer's shared ``_NOOP_CONTEXT``.  Sharing one instance keeps the
# unsampled admission path allocation-free — at a million transactions
# the frozen-dataclass construction alone would dominate the budget.
UNSAMPLED_CONTEXT = TraceContext(trace_id="", span_id=0)


class SampledLifecycleTracer(LifecycleTracer):
    """A :class:`LifecycleTracer` that traces a deterministic subset.

    Drop-in at every existing call site (mempool, gossip, sharding,
    consensus, execution stitching): sampled transactions follow the
    full begin/record/close path; unsampled ones bump
    ``lifecycle.stage_count.<stage>`` and ``lifecycle.sampled.dropped``
    and return immediately (``begin`` hands back the shared
    :data:`UNSAMPLED_CONTEXT` sentinel).  ``lifecycle.stage_count.*``
    is bumped for *sampled* transactions too, so those counters are
    exact totals over the whole workload.

    Stage/kept/dropped counts accumulate in plain-int batches and sync
    into the registry's counters at every flush point — clock movement
    (:meth:`set_clock` / :meth:`advance`), any trace read
    (:meth:`trace` / :meth:`traces` / :meth:`closed_traces`), and
    explicit :meth:`flush_counts`.  Pipeline drivers move the clock at
    least once per block, so registry counters are exact at every
    block boundary and after any read; a per-event locked
    ``Counter.inc`` would cost more than the rest of the unsampled
    path combined.

    Counts follow what the full tracer records: a head-dropped id's
    repeated ``begin`` (another pool admitting it) and its events
    after a terminal stage are not counted, as they are not on a kept
    trace.  The bounded decision memo is the only state this takes —
    an id that has left both of its generations counts afresh.

    **Tail-based sampling** (``tail_seconds``): traces whose simulated
    duration (first event → terminal event) reaches the threshold are
    kept *regardless* of the head decision.  Head-dropped traces
    buffer their events provisionally; when a terminal stage arrives,
    a slow trace is materialised through the parent tracer (original
    timestamps preserved, so head+tail merging is deterministic — the
    same workload always yields the same trace set) and counted under
    ``lifecycle.sampled.tail_kept``; a fast one is discarded.  The
    provisional buffer is LRU-bounded by ``tail_buffer`` with evictions
    counted under ``lifecycle.sampled.tail_evicted``.
    """

    def __init__(self, rate: SampleRate = FULL_RATE,
                 registry: "MetricsRegistry | None" = None,
                 *, tail_seconds: float | None = None,
                 tail_buffer: int = DEFAULT_TAIL_BUFFER) -> None:
        super().__init__(registry)
        if tail_seconds is not None and tail_seconds < 0:
            raise ValueError("tail_seconds must be non-negative")
        if tail_buffer < 1:
            raise ValueError("tail_buffer must be positive")
        self._rate = rate
        self._counting = registry is not None and registry.enabled
        self._stage_counters: dict[str, "Counter"] = {}
        # trace id -> True (kept), False (head-dropped) or _SEALED.
        self._decisions: dict[str, bool | str] = {}
        self._retired: dict[str, bool | str] = {}
        self._pending_counts: dict[str, int] = {}
        self._pending_kept = 0
        self._pending_dropped = 0
        self._tail_seconds = tail_seconds
        self._tail_buffer = tail_buffer
        # trace id -> [(stage, at, duration, attrs), ...] for
        # head-dropped traces still awaiting their terminal stage.
        self._provisional: dict[str, list] = {}
        self._pending_tail_kept = 0
        self._pending_tail_evicted = 0
        self.tail_kept_total = 0
        self.tail_evicted_total = 0

    @property
    def rate(self) -> SampleRate:
        return self._rate

    @property
    def tail_seconds(self) -> float | None:
        return self._tail_seconds

    @property
    def provisional_open(self) -> int:
        """Head-dropped traces currently buffered for a tail decision."""
        return len(self._provisional)

    def sampled(self, trace_id: str) -> bool:
        return self._decide(trace_id) is True

    def _known(self, trace_id: str) -> bool | str | None:
        """The memo value for *trace_id*, or None if unseen."""
        decision = self._decisions.get(trace_id)
        if decision is None:
            decision = self._retired.get(trace_id)
        return decision

    def _decide(self, trace_id: str) -> bool | str:
        decisions = self._decisions
        decision = decisions.get(trace_id)
        if decision is None:
            decision = self._retired.get(trace_id)
            if decision is None:
                decision = sample_decision(trace_id, self._rate)
            if len(decisions) >= _DECISION_MEMO_CAP // 2:
                # Retire the generation whole.  One-at-a-time FIFO
                # eviction (``del d[next(iter(d))]``) is quadratic on
                # CPython — iteration rescans the tombstones earlier
                # deletes left behind — and a halving rebuild still
                # costs ~0.6 µs amortised per miss.
                self._retired = decisions
                decisions = self._decisions = {}
            decisions[trace_id] = decision
        return decision

    def flush_counts(self) -> None:
        """Sync batched stage/kept/dropped counts into the registry."""
        if not self._counting:
            return
        pending = self._pending_counts
        if pending:
            counters = self._stage_counters
            registry = self._registry
            for stage, count in pending.items():
                counter = counters.get(stage)
                if counter is None:
                    counter = registry.counter(
                        f"lifecycle.stage_count.{stage}"
                    )
                    counters[stage] = counter
                counter.inc(count)
            pending.clear()
        if self._pending_kept:
            self._registry.counter("lifecycle.sampled.kept").inc(
                self._pending_kept
            )
            self._pending_kept = 0
        if self._pending_dropped:
            self._registry.counter("lifecycle.sampled.dropped").inc(
                self._pending_dropped
            )
            self._pending_dropped = 0
        if self._pending_tail_kept:
            self._registry.counter("lifecycle.sampled.tail_kept").inc(
                self._pending_tail_kept
            )
            self._pending_tail_kept = 0
        if self._pending_tail_evicted:
            self._registry.counter("lifecycle.sampled.tail_evicted").inc(
                self._pending_tail_evicted
            )
            self._pending_tail_evicted = 0

    # Every clock movement and trace read is a flush point, so drivers
    # and readers always see exact counters without extra calls.

    def set_clock(self, at: float) -> None:
        self.flush_counts()
        super().set_clock(at)

    def advance(self, seconds: float) -> float:
        self.flush_counts()
        return super().advance(seconds)

    def trace(self, tx_hash: str):
        self.flush_counts()
        return super().trace(tx_hash)

    def traces(self):
        self.flush_counts()
        return super().traces()

    def closed_traces(self):
        self.flush_counts()
        return super().closed_traces()

    def clear(self) -> None:
        super().clear()
        self._decisions.clear()
        self._retired.clear()
        self._pending_counts.clear()
        self._pending_kept = 0
        self._pending_dropped = 0
        self._provisional.clear()
        self._pending_tail_kept = 0
        self._pending_tail_evicted = 0
        self.tail_kept_total = 0
        self.tail_evicted_total = 0

    def begin(self, tx_hash: str, *, at: float | None = None,
              **attrs: object) -> TraceContext:
        if self._known(tx_hash) not in (None, True):
            # A head-dropped transaction a pool already admitted (on a
            # node network each pool admits it): one root per
            # transaction, as ``trace() is None`` gives a kept one.
            return UNSAMPLED_CONTEXT
        pending = self._pending_counts
        pending[ADMITTED] = pending.get(ADMITTED, 0) + 1
        if self._decide(tx_hash) is True:
            self._pending_kept += 1
            return super().begin(tx_hash, at=at, **attrs)
        self._pending_dropped += 1
        if self._tail_seconds is not None:
            when = self._clock if at is None else float(at)
            self._tail_begin(tx_hash, when, attrs)
        return UNSAMPLED_CONTEXT

    def record(self, tx_hash: str, stage: str, *,
               at: float | None = None, duration: float = 0.0,
               **attrs: object) -> TraceContext | None:
        if stage not in _STAGE_SET:
            raise ValueError(
                f"unknown lifecycle stage {stage!r}; expected one of "
                f"{', '.join(STAGES)}"
            )
        pending = self._pending_counts
        decision = self._decisions.get(tx_hash)
        if decision is None:
            decision = self._decide(tx_hash)
        if decision is True:
            if tx_hash in self._open:  # a late event counts nowhere
                pending[stage] = pending.get(stage, 0) + 1
            return super().record(
                tx_hash, stage, at=at, duration=duration, **attrs
            )
        if decision is _SEALED:
            return None
        pending[stage] = pending.get(stage, 0) + 1
        if stage in TERMINAL_STAGES:
            self._decisions[tx_hash] = _SEALED
        if self._tail_seconds is not None:
            when = self._clock if at is None else float(at)
            self._tail_record(tx_hash, stage, when, duration, attrs)
        return None

    # -- tail-based promotion --------------------------------------------------

    def _tail_begin(self, tx_hash: str, when: float,
                    attrs: dict[str, object]) -> None:
        provisional = self._provisional
        if tx_hash in provisional:
            # Head-dropped begins must stay idempotent: callers dedup
            # begins with ``trace() is None`` (see Mempool.submit),
            # which cannot see this buffer, so a transaction admitted
            # at several nodes legitimately re-begins here.  Keep the
            # originally buffered root span.
            return
        if len(provisional) >= self._tail_buffer:
            # FIFO eviction: the oldest open trace loses its tail
            # chance.  One pop per overflowing begin keeps this O(1);
            # the counter makes the loss visible to operators.
            del provisional[next(iter(provisional))]
            self._pending_tail_evicted += 1
            self.tail_evicted_total += 1
        provisional[tx_hash] = [(ADMITTED, when, 0.0, attrs)]

    def _tail_record(self, tx_hash: str, stage: str, when: float,
                     duration: float, attrs: dict[str, object]) -> None:
        events = self._provisional.get(tx_hash)
        if events is None:
            # Never began here (or evicted): no tail chance, mirroring
            # the unsampled fast path's statelessness.
            return
        events.append((stage, when, duration, attrs))
        if stage not in TERMINAL_STAGES:
            return
        del self._provisional[tx_hash]
        # Same monotonic clamp the parent applies on replay: the
        # trace's duration is first event -> latest (clamped) event.
        start = events[0][1]
        end = start
        for _stage, event_at, _duration, _attrs in events:
            end = max(end, event_at)
        if end - start < self._tail_seconds:  # type: ignore[operator]
            return
        # Slow trace: materialise it through the parent with the
        # original timestamps, bypassing the head decision.  Replaying
        # in event order through the parent's own begin/record keeps
        # clamping, sealing, and metrics identical to a head-kept
        # trace, so merged head+tail output is deterministic.
        _stage0, first_at, _d0, first_attrs = events[0]
        LifecycleTracer.begin(self, tx_hash, at=first_at, **first_attrs)
        for event_stage, event_at, event_duration, event_attrs in events[1:]:
            LifecycleTracer.record(
                self, tx_hash, event_stage, at=event_at,
                duration=event_duration, **event_attrs
            )
        self._pending_tail_kept += 1
        self.tail_kept_total += 1


__all__ = [
    "DEFAULT_TAIL_BUFFER",
    "FULL_RATE",
    "UNSAMPLED_CONTEXT",
    "SampleRate",
    "SampledLifecycleTracer",
    "parse_rate",
    "sample_decision",
    "sample_decisions",
]
