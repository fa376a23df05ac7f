"""Streaming monitor: fixed-memory ring-buffer aggregation, SLO rule
evaluation (hard vs advisory), rendering/snapshots, and the
``on_block`` integration with the full pipeline."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.lifecycle import LifecycleTracer
from repro.obs.lifecycle_run import run_lifecycle
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    BlockSample,
    SLORule,
    StreamingMonitor,
    default_rules,
    monitor_snapshot,
    render_monitor,
)
from repro.workload.profiles import ETHEREUM, ZILLIQA


def _sample(height, *, txs=10, committed=10, aborted=0, retried=0,
            wall=0.05, sim=12.0, depth=3, util=0.5, stages=None):
    return BlockSample(
        height=height,
        txs=txs,
        committed=committed,
        aborted=aborted,
        retried=retried,
        wall_clock_s=wall,
        sim_seconds=sim,
        mempool_depth=depth,
        lane_utilization=util,
        stage_latencies=stages or {},
    )


class TestRingBuffer:
    def test_window_evicts_oldest(self):
        monitor = StreamingMonitor(window=2)
        monitor.observe_block(_sample(1, txs=100))
        monitor.observe_block(_sample(2, txs=10))
        aggregate = monitor.observe_block(_sample(3, txs=20))
        assert aggregate.window == 2
        assert aggregate.blocks_seen == 3
        assert aggregate.txs == 30  # block 1 evicted
        assert monitor.window_size == 2

    def test_lane_utilization_may_be_priced_on_read(self):
        """A callable is run on the first read only, and the sample then
        equals one given the float."""
        calls = []

        def price():
            calls.append(1)
            return 0.25

        priced = _sample(1, util=price)
        assert calls == []
        aggregate = StreamingMonitor(window=2).observe_block(priced)
        assert aggregate.mean_lane_utilization == 0.25
        assert priced.lane_utilization == 0.25
        assert priced == _sample(1, util=0.25)
        assert calls == [1]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            StreamingMonitor(window=0)

    def test_empty_monitor_aggregate(self):
        aggregate = StreamingMonitor(window=4).aggregate()
        assert aggregate.window == 0
        assert aggregate.abort_rate == 0.0
        assert aggregate.throughput == 0.0
        assert aggregate.stage_percentiles == {}

    def test_aggregate_math(self):
        monitor = StreamingMonitor(window=4)
        monitor.observe_block(_sample(
            1, committed=8, aborted=2, retried=2, depth=5, util=0.25,
            stages={"committed": (1.0, 2.0, 3.0)},
        ))
        aggregate = monitor.observe_block(_sample(
            2, committed=6, aborted=4, retried=3, depth=9, util=0.75,
            stages={"committed": (4.0,)},
        ))
        assert aggregate.abort_rate == pytest.approx(6 / 20)
        assert aggregate.retried == 5
        assert aggregate.mempool_depth == 9  # latest reading wins
        assert aggregate.mean_lane_utilization == pytest.approx(0.5)
        assert aggregate.throughput == pytest.approx(14 / 24.0)
        stats = aggregate.stage_percentiles["committed"]
        assert stats["count"] == 4.0
        assert stats["p50"] == pytest.approx(2.5)

    def test_metric_resolution(self):
        monitor = StreamingMonitor(window=2)
        aggregate = monitor.observe_block(_sample(
            1, stages={"committed": (1.0, 2.0)},
        ))
        assert aggregate.value("abort_rate") == 0.0
        assert aggregate.value("stage.committed.p50") == \
            pytest.approx(1.5)
        assert aggregate.value("stage.scheduled.p99") == 0.0
        with pytest.raises(ValueError, match="unknown monitor metric"):
            aggregate.value("no_such_metric")
        with pytest.raises(ValueError, match="unknown monitor metric"):
            aggregate.value("stage_percentiles")  # not a scalar


class TestSLORules:
    def test_operator_validation(self):
        with pytest.raises(ValueError, match="unsupported SLO"):
            SLORule(name="r", metric="abort_rate", op="<",
                    threshold=0.5)

    def test_hard_breach_vs_advisory(self):
        monitor = StreamingMonitor(window=4, rules=[
            SLORule(name="aborts", metric="abort_rate", op="<=",
                    threshold=0.25),
            SLORule(name="wall", metric="wall_p95", op="<=",
                    threshold=1e-9, advisory=True),
        ])
        monitor.observe_block(_sample(1, committed=1, aborted=9))
        results = monitor.evaluate()
        assert [r.severity for r in results] == ["breach", "advisory"]
        breaches = monitor.hard_breaches(results)
        assert [b.rule.name for b in breaches] == ["aborts"]

    def test_passing_rules(self):
        monitor = StreamingMonitor(window=4, rules=[
            SLORule(name="aborts", metric="abort_rate", op="<=",
                    threshold=0.5),
            SLORule(name="work", metric="txs", op=">=", threshold=5),
        ])
        monitor.observe_block(_sample(1))
        assert all(r.ok for r in monitor.evaluate())
        assert monitor.hard_breaches() == []

    def test_default_rules_shape(self):
        rules = default_rules(max_abort_rate=0.2, wall_p95_budget=1.0)
        assert [(r.metric, r.advisory) for r in rules] == [
            ("abort_rate", False),
            ("wall_p95", True),  # wall-clock gate never fails a run
        ]
        assert default_rules() == []


class TestRegistryAndCallbacks:
    def test_observe_block_exports_gauges(self):
        registry = MetricsRegistry()
        monitor = StreamingMonitor(window=2, registry=registry)
        monitor.observe_block(_sample(1, committed=3, aborted=1))
        assert registry.gauge("monitor.abort_rate").value == \
            pytest.approx(0.25)
        assert registry.gauge("monitor.window_blocks").value == 1
        assert registry.counter("monitor.blocks").value == 1

    def test_on_sample_callback_sees_each_aggregate(self):
        seen = []
        monitor = StreamingMonitor(window=2, on_sample=seen.append)
        monitor.observe_block(_sample(1))
        monitor.observe_block(_sample(2))
        assert [a.blocks_seen for a in seen] == [1, 2]


class TestRendering:
    def test_render_includes_rules_and_stage_table(self):
        monitor = StreamingMonitor(window=2, rules=default_rules(
            max_abort_rate=0.01,
        ))
        aggregate = monitor.observe_block(_sample(
            1, committed=5, aborted=5,
            stages={"committed": (1.0, 2.0)},
        ))
        text = render_monitor(aggregate, monitor.evaluate(aggregate))
        assert "abort-rate" in text
        assert "BREACH" in text
        assert "sampled stage latency" in text

    def test_render_without_closed_traces_explains_itself(self):
        monitor = StreamingMonitor(window=2)
        aggregate = monitor.observe_block(_sample(1))
        text = render_monitor(aggregate)
        assert "no sampled traces closed" in text

    def test_snapshot_document(self):
        monitor = StreamingMonitor(window=2, rules=default_rules(
            max_abort_rate=0.01,
        ))
        aggregate = monitor.observe_block(_sample(
            1, committed=5, aborted=5,
        ))
        results = monitor.evaluate(aggregate)
        document = monitor_snapshot(aggregate, results)
        assert document["aggregate"]["abort_rate"] == 0.5
        assert document["hard_breaches"] == ["abort-rate"]
        assert document["rules"][0]["ok"] is False


class TestPipelineIntegration:
    def test_run_lifecycle_streams_block_samples(self):
        registry = MetricsRegistry()
        monitor = StreamingMonitor(window=4, registry=registry)
        with obs.instrumented(
            registry=registry,
            lifecycle=LifecycleTracer(registry=registry),
        ):
            result = run_lifecycle(
                ETHEREUM, blocks=4, seed=2020, cores=2,
                on_block=monitor.observe_block,
            )
        assert monitor.blocks_seen > 0
        aggregate = monitor.aggregate()
        assert aggregate.txs > 0
        assert aggregate.sim_seconds > 0
        # Full-rate tracing: every committed trace feeds the window.
        assert aggregate.stage_percentiles["committed"]["count"] > 0
        assert registry.counter("monitor.blocks").value == \
            monitor.blocks_seen
        assert result.admitted > 0

    def test_sharded_profile_streams_joined_traces(self):
        monitor = StreamingMonitor(window=4)
        registry = MetricsRegistry()
        with obs.instrumented(
            registry=registry,
            lifecycle=LifecycleTracer(registry=registry),
        ):
            run_lifecycle(
                ZILLIQA, blocks=3, seed=2020, cores=2,
                on_block=monitor.observe_block,
            )
        assert monitor.blocks_seen > 0
        assert monitor.aggregate().txs > 0
