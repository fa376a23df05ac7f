"""Multi-node network integration: convergence, determinism, faults,
bounded relay memory, and lifecycle traces across a live network."""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.node import (
    FaultProfile,
    NetworkConfig,
    Node,
    NodeNetwork,
    build_node_txs,
    network_fingerprint,
)
from repro.workload.profiles import PROFILES_BY_NAME


def _small(**overrides) -> NetworkConfig:
    defaults = dict(
        nodes=3, height=2, workload_blocks=2, scale=0.2, seed=11,
    )
    defaults.update(overrides)
    return NetworkConfig(**defaults)


class TestConvergence:
    def test_lossless_network_converges_with_identical_roots(self):
        result = NodeNetwork(_small()).run()
        assert result.converged, result.reason
        assert result.height >= 2
        assert result.roots_agree
        assert len({s.head_hash for s in result.snapshots}) == 1
        assert len({s.pool_hashes for s in result.snapshots}) == 1
        assert not any(s.diverged for s in result.snapshots)

    def test_four_nodes_to_issue_height(self):
        result = NodeNetwork(
            _small(nodes=4, height=5, workload_blocks=3, seed=2020)
        ).run()
        assert result.converged, result.reason
        assert result.height >= 5
        assert result.roots_agree

    def test_pbft_consensus_converges(self):
        result = NodeNetwork(_small(consensus="pbft", nodes=4)).run()
        assert result.converged, result.reason
        assert result.roots_agree

    def test_faulty_links_still_converge(self):
        result = NodeNetwork(_small(
            seed=5,
            faults=FaultProfile(
                loss=0.1, duplicate=0.1, reorder=0.3
            ),
        )).run()
        assert result.converged, result.reason
        assert result.roots_agree

    def test_timeout_reported_not_raised(self):
        result = NodeNetwork(_small(max_sim_time=1.0)).run()
        assert not result.converged
        assert result.reason == "timeout"


class TestDeterminism:
    def test_same_seed_same_snapshot_byte_for_byte(self):
        config = _small(faults=FaultProfile(loss=0.05, reorder=0.2))
        first = NodeNetwork(config).run()
        second = NodeNetwork(config).run()
        assert first.snapshot_dict() == second.snapshot_dict()
        assert network_fingerprint(first) == network_fingerprint(second)

    def test_different_seed_different_fingerprint(self):
        first = NodeNetwork(_small(seed=1)).run()
        second = NodeNetwork(_small(seed=2)).run()
        assert network_fingerprint(first) != network_fingerprint(second)


class TestBoundedRelayMemory:
    def test_seen_caches_stay_bounded_under_soak(self):
        # A capacity far below the tx volume forces evictions; the
        # caches must stay bounded and the network must still converge
        # (dedup is an optimisation, never a correctness lever).
        network = NodeNetwork(_small(seed=3, seen_capacity=16))
        result = network.run()
        assert result.converged, result.reason
        assert result.roots_agree
        total_evictions = 0
        for node in network.nodes:
            assert len(node.seen_txs) <= 16
            assert len(node.seen_blocks) <= 16
            total_evictions += node.seen_txs.evictions
        assert total_evictions > 0


class TestTeardown:
    def test_a_finished_network_is_freed_by_refcount(self):
        """``NodeNetwork`` holds its nodes and hands each its own bound
        method as ``on_block``, as the benchmark's driver does; once the
        nodes are stopped, dropping it leaves no ``Node`` for the cycle
        collector to find."""
        gc.collect()
        gc.disable()
        try:
            network = NodeNetwork(_small())
            assert network.run().converged
            del network
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sum(isinstance(obj, Node) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0


class TestLifecycleAcrossNetwork:
    def test_one_monotonic_trace_per_injected_tx(self):
        config = _small(seed=11)
        profile = PROFILES_BY_NAME[config.chain]
        txs = build_node_txs(
            profile,
            blocks=config.workload_blocks,
            seed=config.seed,
            scale=config.scale,
        )
        with obs.instrumented() as state:
            result = NodeNetwork(config).run()
        assert result.converged, result.reason
        assert result.injected == len(txs)
        traces = state.lifecycle.traces()
        by_id = {t.trace_id: t for t in traces}
        # Exactly one trace per injected transaction — begins are
        # guarded at first pool admission, relays never re-mint.
        assert len(by_id) == len(traces)
        assert set(by_id) == {tx.tx_hash for tx in txs}
        for trace in traces:
            assert trace.is_monotonic()
            assert trace.events[0].stage == "admitted"
        closed = [t for t in traces if t.closed]
        assert closed, "no transaction reached a terminal stage"
        for trace in closed:
            assert trace.outcome == "committed"

    def test_node_metrics_land_in_registry(self):
        with obs.instrumented() as state:
            result = NodeNetwork(_small()).run()
        assert result.converged
        counters = state.registry.snapshot()["counters"]
        assert counters.get("node.net.sent", 0) > 0
        assert counters.get("mempool.admitted", 0) > 0
        gauges = state.registry.snapshot()["gauges"]
        assert gauges.get("node.network.height", 0) >= 2


class TestWorkload:
    def test_build_node_txs_deterministic_and_fee_spread(self):
        profile = PROFILES_BY_NAME["ethereum"]
        first = build_node_txs(profile, blocks=2, seed=4, scale=0.3)
        second = build_node_txs(profile, blocks=2, seed=4, scale=0.3)
        assert [(t.tx_hash, t.fee, t.weight) for t in first] == [
            (t.tx_hash, t.fee, t.weight) for t in second
        ]
        rates = {tx.fee / tx.weight for tx in first}
        assert len(rates) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(nodes=1)
        with pytest.raises(ValueError):
            NetworkConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            NetworkConfig(height=0)


class TestTcpTransport:
    def test_small_tcp_network_converges(self):
        result = NodeNetwork(NetworkConfig(
            nodes=2, height=2, workload_blocks=2, scale=0.2,
            seed=11, transport="tcp", block_interval=0.2,
            heartbeat=0.1, check_interval=0.05, max_sim_time=60.0,
        )).run()
        assert result.converged, result.reason
        assert result.roots_agree
