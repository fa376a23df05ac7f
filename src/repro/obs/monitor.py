"""Streaming monitor: sliding-window SLOs over the live pipeline.

A million-transaction sweep cannot be profiled post-hoc — the trace
would not fit — so this module watches the pipeline *as it runs*: the
node network (:class:`repro.node.NodeNetwork` via its ``on_block``
hook) hands the monitor one :class:`BlockSample` per block the
followed node makes its head, and the monitor keeps a fixed-size ring
buffer of the last ``window`` blocks.  Everything it reports — abort rate, stage
p50/p95/p99, lane utilization, mempool depth, block wall-clock — is
computed over that window, so monitor memory is O(window x block), not
O(tx).

SLO rules (:class:`SLORule`) are threshold checks against the window
aggregate.  Rules are either *hard* (a breach is a failure the CLI
turns into exit code 1) or *advisory* (reported, never failing) — the
wall-clock percentile gate ships advisory by default because CI hosts
are too noisy to gate on real time, exactly the caveat ROADMAP.md
recorded when it left that item open.

``repro.cli monitor`` renders the window live after every block, or
once at the end with ``--once`` (the CI snapshot mode);
:func:`monitor_snapshot` is the JSON artifact both modes can write.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.obs.lifecycle import STAGES
from repro.obs.metrics import percentile_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.obs.metrics import MetricsRegistry

DEFAULT_WINDOW = 8
MONITOR_PERCENTILES = (0.50, 0.95, 0.99)


class _PricedOnRead:
    """A dataclass field that may be given a zero-argument callable.

    The callable runs the first time the field is read, and its value
    replaces it (the callable, and whatever it holds, is dropped), so a
    sample that nobody reads never pays for the value.  A plain value
    is stored and read as is.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self._key = f"_{name}"

    def __get__(self, sample: object, owner: type | None = None):
        if sample is None:
            # Read on the class: tells the dataclass there is no default.
            raise AttributeError(self._key[1:])
        value = sample.__dict__[self._key]
        if callable(value):
            value = sample.__dict__[self._key] = value()
        return value

    def __set__(self, sample: object, value: object) -> None:
        sample.__dict__[self._key] = value


@dataclass(frozen=True)
class BlockSample:
    """One committed block's contribution to the sliding window.

    ``lane_utilization`` may be given as a float or as a zero-argument
    callable returning it, priced on first read (a node hands the
    profile of the block's execution report this way).
    """

    height: int
    txs: int                 # transactions packed into the block
    committed: int           # tasks committed by the executor
    aborted: int             # execution aborts (optimistic conflicts)
    retried: int             # re-executions after aborts
    wall_clock_s: float      # real seconds spent processing the block
    sim_seconds: float       # simulated seconds the block spanned
    mempool_depth: int       # pool size after packing
    # Mean busy fraction of execution lanes.
    lane_utilization: float = _PricedOnRead()  # type: ignore[assignment]
    # Per-stage latencies of traces *closed during this block* (sliced
    # from the tracer's closed traces).
    stage_latencies: Mapping[str, tuple[float, ...]] = \
        field(default_factory=dict)


@dataclass(frozen=True)
class SLORule:
    """``metric <= threshold`` over the window aggregate.

    ``metric`` names a numeric :class:`WindowAggregate` field, e.g.
    ``abort_rate``, ``wall_p95``, ``mempool_depth``.  ``advisory``
    rules report breaches but never fail a run.
    """

    name: str
    metric: str
    threshold: float
    advisory: bool = False

    def check(self, value: float) -> bool:
        return value <= self.threshold


@dataclass(frozen=True)
class RuleResult:
    rule: SLORule
    value: float
    ok: bool

    @property
    def severity(self) -> str:
        if self.ok:
            return "ok"
        return "advisory" if self.rule.advisory else "breach"

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.rule.name,
            "metric": self.rule.metric,
            "op": "<=",
            "threshold": self.rule.threshold,
            "value": self.value,
            "ok": self.ok,
            "advisory": self.rule.advisory,
        }


@dataclass(frozen=True)
class WindowAggregate:
    """The sliding window reduced to the monitored quantities."""

    window: int              # samples currently in the window
    blocks_seen: int         # samples observed over the whole run
    txs: int
    committed: int
    aborted: int
    retried: int
    abort_rate: float        # aborts / execution attempts, window-wide
    mempool_depth: int       # most recent reading
    mean_lane_utilization: float
    wall_p50: float
    wall_p95: float
    wall_p99: float
    sim_seconds: float       # simulated time the window spans
    stage_percentiles: Mapping[str, Mapping[str, float]]

    @property
    def throughput(self) -> float:
        """Committed tx per simulated second over the window."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.committed / self.sim_seconds

    def value(self, metric: str) -> float:
        """Resolve an :class:`SLORule` metric key."""
        try:
            value = getattr(self, metric)
        except AttributeError:
            raise ValueError(f"unknown monitor metric {metric!r}") \
                from None
        if not isinstance(value, (int, float)):
            raise ValueError(f"unknown monitor metric {metric!r}")
        return float(value)

    def as_dict(self) -> dict[str, object]:
        return {
            "window": self.window,
            "blocks_seen": self.blocks_seen,
            "txs": self.txs,
            "committed": self.committed,
            "aborted": self.aborted,
            "retried": self.retried,
            "abort_rate": self.abort_rate,
            "throughput": self.throughput,
            "mempool_depth": self.mempool_depth,
            "mean_lane_utilization": self.mean_lane_utilization,
            "wall_p50": self.wall_p50,
            "wall_p95": self.wall_p95,
            "wall_p99": self.wall_p99,
            "sim_seconds": self.sim_seconds,
            "stage_percentiles": {
                stage: dict(stats)
                for stage, stats in self.stage_percentiles.items()
            },
        }


def default_rules(
    *,
    max_abort_rate: float | None = None,
    wall_p95_budget: float | None = None,
) -> list[SLORule]:
    """The CLI's rule set.

    The abort-rate gate (when requested) is *hard*; the wall-clock
    percentile gate is always *advisory* — CI hosts jitter too much to
    fail runs on real time, so the gate reports without gating.
    """
    rules: list[SLORule] = []
    if max_abort_rate is not None:
        rules.append(SLORule(
            name="abort-rate",
            metric="abort_rate",
            threshold=max_abort_rate,
        ))
    if wall_p95_budget is not None:
        rules.append(SLORule(
            name="block-wall-p95",
            metric="wall_p95",
            threshold=wall_p95_budget,
            advisory=True,
        ))
    return rules


class StreamingMonitor:
    """Fixed-memory sliding-window aggregation of block samples.

    Not thread-safe — it lives on the driver loop, which is serial by
    construction (blocks commit one at a time).
    """

    def __init__(
        self,
        *,
        window: int = DEFAULT_WINDOW,
        rules: Sequence[SLORule] = (),
        registry: "MetricsRegistry | None" = None,
        on_sample: "Callable[[WindowAggregate], None] | None" = None,
    ) -> None:
        if window < 1:
            raise ValueError("monitor window must be at least 1")
        self._samples: deque[BlockSample] = deque(maxlen=window)
        self._rules = tuple(rules)
        self._registry = registry
        self._on_sample = on_sample
        self._blocks_seen = 0

    @property
    def blocks_seen(self) -> int:
        return self._blocks_seen

    @property
    def rules(self) -> tuple[SLORule, ...]:
        return self._rules

    def observe_block(self, sample: BlockSample) -> WindowAggregate:
        """Fold one block in; returns the refreshed window aggregate."""
        self._samples.append(sample)
        self._blocks_seen += 1
        aggregate = self.aggregate()
        registry = self._registry
        if registry is not None and registry.enabled:
            registry.gauge("monitor.abort_rate").set(
                aggregate.abort_rate
            )
            registry.gauge("monitor.mempool_depth").set(
                aggregate.mempool_depth
            )
            registry.gauge("monitor.lane_utilization").set(
                aggregate.mean_lane_utilization
            )
            registry.gauge("monitor.window_blocks").set(
                aggregate.window
            )
            registry.counter("monitor.blocks").inc()
        if self._on_sample is not None:
            self._on_sample(aggregate)
        return aggregate

    def aggregate(self) -> WindowAggregate:
        samples = list(self._samples)
        txs = sum(s.txs for s in samples)
        committed = sum(s.committed for s in samples)
        aborted = sum(s.aborted for s in samples)
        retried = sum(s.retried for s in samples)
        attempts = committed + aborted
        walls = sorted(s.wall_clock_s for s in samples)
        stage_values: dict[str, list[float]] = {}
        for sample in samples:
            for stage, latencies in sample.stage_latencies.items():
                stage_values.setdefault(stage, []).extend(latencies)
        stage_percentiles: dict[str, dict[str, float]] = {}
        for stage in STAGES:
            values = stage_values.get(stage)
            if not values:
                continue
            values.sort()
            stage_percentiles[stage] = {
                "count": float(len(values)),
                "p50": percentile_of(values, 0.50),
                "p95": percentile_of(values, 0.95),
                "p99": percentile_of(values, 0.99),
            }
        if samples:
            utilization = sum(
                s.lane_utilization for s in samples
            ) / len(samples)
            depth = samples[-1].mempool_depth
        else:
            utilization = 0.0
            depth = 0
        return WindowAggregate(
            window=len(samples),
            blocks_seen=self._blocks_seen,
            txs=txs,
            committed=committed,
            aborted=aborted,
            retried=retried,
            abort_rate=aborted / attempts if attempts else 0.0,
            mempool_depth=depth,
            mean_lane_utilization=utilization,
            wall_p50=percentile_of(walls, 0.50),
            wall_p95=percentile_of(walls, 0.95),
            wall_p99=percentile_of(walls, 0.99),
            sim_seconds=sum(s.sim_seconds for s in samples),
            stage_percentiles=stage_percentiles,
        )

    def evaluate(
        self, aggregate: WindowAggregate | None = None
    ) -> list[RuleResult]:
        if aggregate is None:
            aggregate = self.aggregate()
        return [
            RuleResult(
                rule=rule,
                value=aggregate.value(rule.metric),
                ok=rule.check(aggregate.value(rule.metric)),
            )
            for rule in self._rules
        ]

    def hard_breaches(
        self, results: Sequence[RuleResult] | None = None
    ) -> list[RuleResult]:
        """Non-advisory rule failures — the CLI's exit-1 condition."""
        if results is None:
            results = self.evaluate()
        return [
            result for result in results
            if not result.ok and not result.rule.advisory
        ]


# -- rendering / snapshots -----------------------------------------------------


def render_monitor(
    aggregate: WindowAggregate,
    results: Sequence[RuleResult] = (),
    *,
    title: str = "pipeline monitor",
) -> str:
    """ASCII dashboard of one window aggregate plus its SLO verdicts."""
    from repro.analysis.report import render_table

    lines = [
        f"{title} — window {aggregate.window} block(s), "
        f"{aggregate.blocks_seen} seen",
        f"  txs={aggregate.txs}  committed={aggregate.committed}  "
        f"aborted={aggregate.aborted}  retried={aggregate.retried}  "
        f"abort-rate={aggregate.abort_rate:.3f}",
        f"  throughput={aggregate.throughput:.1f} tx/s (simulated)  "
        f"mempool-depth={aggregate.mempool_depth}  "
        f"lane-util={aggregate.mean_lane_utilization:.2f}",
        f"  block wall-clock p50={aggregate.wall_p50 * 1e3:.1f}ms  "
        f"p95={aggregate.wall_p95 * 1e3:.1f}ms  "
        f"p99={aggregate.wall_p99 * 1e3:.1f}ms",
    ]
    if aggregate.stage_percentiles:
        rows = [
            (
                stage,
                int(stats["count"]),
                f"{stats['p50']:.3f}",
                f"{stats['p95']:.3f}",
                f"{stats['p99']:.3f}",
            )
            for stage, stats in aggregate.stage_percentiles.items()
        ]
        lines.append(render_table(
            ("stage", "closed", "p50 (s)", "p95 (s)", "p99 (s)"),
            rows,
            title="stage latency (window)",
        ))
    else:
        lines.append(
            "  (no traces closed in this window — stage detail "
            "needs more blocks)"
        )
    if results:
        rows = [
            (
                result.rule.name,
                f"{result.rule.metric} <= {result.rule.threshold:g}",
                f"{result.value:.4g}",
                result.severity.upper(),
            )
            for result in results
        ]
        lines.append(render_table(
            ("rule", "condition", "value", "status"),
            rows,
            title="SLO rules",
        ))
    return "\n".join(lines)


def monitor_snapshot(
    aggregate: WindowAggregate,
    results: Sequence[RuleResult] = (),
) -> dict[str, object]:
    """JSON document for ``repro.cli monitor --out`` (a CI artifact)."""
    return {
        "aggregate": aggregate.as_dict(),
        "rules": [result.as_dict() for result in results],
        "hard_breaches": [
            result.rule.name for result in results
            if not result.ok and not result.rule.advisory
        ],
    }


__all__ = [
    "DEFAULT_WINDOW",
    "BlockSample",
    "RuleResult",
    "SLORule",
    "StreamingMonitor",
    "WindowAggregate",
    "default_rules",
    "monitor_snapshot",
    "render_monitor",
]
