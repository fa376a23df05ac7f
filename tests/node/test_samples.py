"""Head samples: a network streams each node's ``BlockSample`` to its
``on_block`` listener, and a sample prices its lane utilization on
read, so a listener that never reads it never builds a row."""

from __future__ import annotations

from repro import obs
from repro.execution.schedule import timeline_rows
from repro.node import NetworkConfig, NodeNetwork
from repro.node.network import lifecycle_config
from repro.node import node as node_module
from repro.node.node import BlockSample
from repro.obs.critical_path import profile_events
from repro.obs.lifecycle import join_shard_traces
from repro.obs.timeline import as_events

CONFIG = NetworkConfig(
    nodes=4, height=3, workload_blocks=2, scale=0.2, seed=11,
)


def _count(monkeypatch, owner, name: str) -> list[int]:
    """Count calls of ``owner.name`` from now on (one-item list)."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _stream_n0(chain: str, *, blocks: int):
    """Run *chain*'s lifecycle network under recording; keep the
    samples of the blocks ``n0`` makes its head."""
    samples: list[BlockSample] = []

    def on_block(node_id, sample):
        if node_id == "n0":
            samples.append(sample)

    with obs.instrumented() as state:
        result = NodeNetwork(
            lifecycle_config(chain, blocks=blocks, seed=2020, cores=2),
            on_block=on_block,
        ).run()
    assert result.converged, result.reason
    return samples, state.lifecycle, result


def test_network_streams_block_samples():
    samples, tracer, result = _stream_n0("ethereum", blocks=4)
    assert {sample.height for sample in samples} >= {1, 2, 3, 4}
    assert sum(sample.txs for sample in samples) > 0
    assert any(sample.lane_utilization > 0.0 for sample in samples)
    assert result.injected > 0
    # Full-rate tracing: every injected transaction's trace commits.
    outcomes = [trace.outcome for trace in tracer.traces()]
    assert outcomes.count("committed") == result.injected
    assert tracer.open_count == 0


def test_sharded_profile_streams_joined_traces():
    """A sharded chain's shard sub-traces join into one trace per
    transaction, and n0 still streams one sample per head."""
    samples, tracer, result = _stream_n0("zilliqa", blocks=3)
    assert {sample.height for sample in samples} >= {1, 2, 3}
    assert sum(sample.txs for sample in samples) > 0
    parts = tracer.traces()
    traces = join_shard_traces(parts)
    assert len(parts) > len(traces) == result.injected > 0
    assert all(trace.closed for trace in traces)


def test_a_listener_that_ignores_samples_expands_no_rows(monkeypatch):
    profiles = _count(monkeypatch, node_module, "profile_events")
    expansions = _count(monkeypatch, node_module, "timeline_rows")
    samples = []
    result = NodeNetwork(
        CONFIG, on_block=lambda _node_id, sample: samples.append(sample)
    ).run()
    assert result.converged, result.reason
    assert not obs.enabled()
    assert len(samples) >= CONFIG.nodes * CONFIG.height
    assert profiles == [0]
    assert expansions == [0]


def test_a_listener_that_reads_gets_the_profiled_utilization(monkeypatch):
    """Read on arrival, every sample's utilization is the profile of
    the schedule its block's replay reported."""
    read: list[tuple[float, float]] = []
    emitting: list = []
    real_emit = node_module.Node._emit_sample

    def emit(self, block, replay, report):
        emitting.append((report, block.height))
        real_emit(self, block, replay, report)

    def listen(_node_id, sample):
        report, height = emitting[-1]
        expected = profile_events(
            as_events(timeline_rows(report, height))
        ).mean_utilization
        read.append((sample.lane_utilization, expected))

    monkeypatch.setattr(node_module.Node, "_emit_sample", emit)
    result = NodeNetwork(CONFIG, on_block=listen).run()
    assert result.converged, result.reason
    assert len(read) == len(emitting) >= CONFIG.nodes * CONFIG.height
    assert all(got == expected for got, expected in read)
    assert any(got > 0.0 for got, _expected in read)


def test_a_sample_read_late_keeps_its_value_and_drops_the_recorder():
    samples = []
    NodeNetwork(
        CONFIG, on_block=lambda _node_id, sample: samples.append(sample)
    ).run()
    sample = max(samples, key=lambda s: s.txs)
    assert sample.txs > 0
    assert callable(sample.__dict__["_lane_utilization"])
    value = sample.lane_utilization
    assert 0.0 < value <= 1.0
    assert sample.__dict__["_lane_utilization"] == value
    assert sample.lane_utilization == value


def test_lane_utilization_may_be_priced_on_read():
    """A callable is run on the first read only, and the sample then
    equals one given the float."""
    calls = []

    def price():
        calls.append(1)
        return 0.25

    fields = dict(height=1, txs=10, committed=10, aborted=0,
                  mempool_depth=3)
    priced = BlockSample(**fields, lane_utilization=price)
    assert calls == []
    assert priced.lane_utilization == 0.25
    assert priced.lane_utilization == 0.25
    assert priced == BlockSample(**fields, lane_utilization=0.25)
    assert calls == [1]
