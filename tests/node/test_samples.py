"""Head samples: a node's ``BlockSample`` prices its lane utilization
on read, so a listener that never reads it never expands a row."""

from __future__ import annotations

from repro import obs
from repro.node import NetworkConfig, NodeNetwork
from repro.node import node as node_module
from repro.obs.critical_path import profile_events
from repro.obs.timeline import FlightRecorder

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


def test_a_listener_that_ignores_samples_expands_no_rows(monkeypatch):
    profiles = _count(monkeypatch, node_module, "profile_events")
    expansions = _count(monkeypatch, FlightRecorder, "_materialised")
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
    the flight recorder its block was replayed into."""
    read: list[tuple[float, float]] = []
    emitting: list[FlightRecorder] = []
    real_emit = node_module.Node._emit_sample

    def emit(self, block, replay, recorder):
        emitting.append(recorder)
        real_emit(self, block, replay, recorder)

    def listen(_node_id, sample):
        expected = profile_events(emitting[-1].events()).mean_utilization
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
