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
    lifecycle_config,
    network_fingerprint,
)
from repro.obs.lifecycle import join_shard_traces
from repro.obs.timeline import as_events
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

    def test_pbft_converges_only_with_every_pool_drained(self):
        """PBFT goes on proposing past the target height while its pool
        holds transactions: every injected one commits."""
        result = NodeNetwork(NetworkConfig(
            chain="ethereum", consensus="pbft", height=5, seed=2020,
            workload_blocks=3, scale=0.3,
        )).run()
        assert result.converged, result.reason
        assert all(not snap.pool_hashes for snap in result.snapshots)
        # chain_txs counts one coinbase marker per block.
        assert result.committed - result.height == result.injected

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


def _lifecycle(chain, **fields):
    """A lifecycle network run, recorded; its joined traces and state."""
    fields = {"blocks": 3, "seed": 7, "cores": 4, "engine": "dag", **fields}
    with obs.instrumented() as state:
        result = NodeNetwork(lifecycle_config(chain, **fields)).run()
    assert result.converged, result.reason
    return result, join_shard_traces(state.lifecycle.traces()), state


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
            assert trace.outcome == "committed"

    @pytest.mark.parametrize("chain", ["ethereum", "bitcoin"])
    @pytest.mark.parametrize("engine", ["dag", "occ"])
    def test_every_trace_closes(self, chain, engine):
        result, traces, _state = _lifecycle(chain, engine=engine)
        assert result.injected > 0
        assert len({t.trace_id for t in traces}) == result.injected
        for trace in traces:
            assert trace.is_monotonic()
            assert trace.events[0].stage == "admitted"
            assert trace.outcome == "committed"
            assert {"included", "consensus", "scheduled"} <= set(
                trace.stages
            )
            assert "assigned" not in trace.stages

    def test_unsharded_chain_skips_assignment(self):
        _, traces, _state = _lifecycle("ethereum", blocks=2)
        assert traces
        for trace in traces:
            assert "assigned" not in trace.stages

    def test_lifecycle_traces_deterministic_per_seed(self):
        _, first, _ = _lifecycle("ethereum", blocks=2)
        _, second, _ = _lifecycle("ethereum", blocks=2)
        assert [t.as_dict() for t in first] == [t.as_dict() for t in second]

    def test_stage_metrics_land_in_registry(self):
        _, traces, state = _lifecycle("ethereum", blocks=2)
        snapshot = state.registry.snapshot()
        assert snapshot["counters"]["lifecycle.opened"] == len(traces) > 0
        assert "lifecycle.stage.committed" in snapshot["histograms"]
        assert snapshot["counters"]["mempool.admitted"] > 0
        assert snapshot["counters"]["node.net.sent"] > 0

    def test_proposers_fill_the_global_flight_recorder(self):
        _, traces, state = _lifecycle("ethereum", blocks=2)
        commits = [
            event for event in as_events(state.rows)
            if event.kind == "commit"
        ]
        assert {event.executor for event in commits} == {"dag"}
        assert {event.task for event in commits} >= {
            trace.trace_id for trace in traces
        }

    def test_dag_commits_every_conflicting_pair_in_packed_order(
        self, monkeypatch
    ):
        """A packed block's tasks are in fee order, not chain order; the
        ``dag`` engine must order every conflicting pair as they are
        packed, as every other engine does.  The regress gate's run."""
        from repro.node import node as node_module

        runs = []
        replay = node_module.replay_single_block

        def spy(data_model, block, engine, cores):
            record, report = replay(data_model, block, engine, cores)
            runs.append((block.tasks, record.commit_order))
            return record, report

        monkeypatch.setattr(node_module, "replay_single_block", spy)
        _lifecycle("ethereum", blocks=10, seed=2020)
        pairs = 0
        for tasks, order in runs:
            committed_at = {tx_hash: i for i, tx_hash in enumerate(order)}
            for index, task in enumerate(tasks):
                for later in tasks[index + 1:]:
                    if task.conflicts_with(later):
                        pairs += 1
                        assert committed_at[task.tx_hash] < \
                            committed_at[later.tx_hash]
        assert pairs > 100

    def test_tiny_pool_closes_evicted_traces_as_dropped(self):
        result, traces, state = _lifecycle(
            "ethereum", blocks=2, mempool_weight=50
        )
        outcomes = [trace.outcome for trace in traces]
        dropped = outcomes.count("dropped")
        assert dropped > 0
        assert outcomes.count("committed") + dropped == result.injected
        assert all(
            trace.events[-1].attrs["reason"] == "evicted"
            for trace in traces if trace.outcome == "dropped"
        )
        counters = state.registry.snapshot()["counters"]
        assert counters["lifecycle.closed{outcome=dropped}"] == dropped

    def test_zilliqa_joins_cross_shard_subtraces(self):
        result, traces, state = _lifecycle("zilliqa", blocks=2, seed=2020)
        shards = PROFILES_BY_NAME["zilliqa"].num_shards
        assert len(traces) == result.injected
        cross_shard = 0
        for trace in traces:
            # Sub-traces are joined back into the base trace.
            assert "#" not in trace.trace_id
            assert trace.outcome == "committed"
            assigned = [e for e in trace.events if e.stage == "assigned"]
            home = [e for e in assigned if "home_shard" not in e.attrs]
            assert len(home) == 1
            assert 0 <= home[0].attrs["shard"] < shards
            # One extra assignment per remote committee the writes
            # home on, each tagged with the home shard.
            remote = [e for e in assigned if "home_shard" in e.attrs]
            for event in remote:
                assert event.attrs["home_shard"] == home[0].attrs["shard"]
                assert event.attrs["shard"] != home[0].attrs["shard"]
            cross_shard += bool(remote)
            consensus = [e for e in trace.events if e.stage == "consensus"]
            assert consensus[0].attrs["mechanism"] == "pbft"
        assert cross_shard > 0
        assert state.lifecycle.open_count == 0

    def test_assigned_once_per_injected_tx(self):
        with obs.instrumented() as state:
            result = NodeNetwork(_small(
                chain="zilliqa", consensus="pbft", nodes=4, seed=2020,
                height=5, workload_blocks=5, scale=1.0,
            )).run()
        assert result.converged, result.reason
        histogram = state.registry.snapshot()["histograms"]
        home = sum(
            event.stage == "assigned" and "home_shard" not in event.attrs
            for trace in state.lifecycle.traces()
            for event in trace.events
        )
        assert home == result.injected > 0
        assert histogram["lifecycle.stage.assigned"]["count"] >= home

    def test_unrecorded_run_records_nothing(self):
        obs.uninstall()
        result = NodeNetwork(lifecycle_config("ethereum", blocks=2)).run()
        assert result.converged, result.reason
        assert result.injected > 0
        assert obs.lifecycle().traces() == []
        assert obs.event_rows() == []

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
