"""End-to-end lifecycle pipeline: every admitted transaction yields one
stitched monotonic trace, sharded chains dispatch, capacity-bounded
pools drop, and the whole run is deterministic and noop-safe."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.lifecycle_run import run_lifecycle
from repro.workload.profiles import PROFILES_BY_NAME


def _run(chain, **kwargs):
    defaults = dict(blocks=3, seed=7, cores=4)
    defaults.update(kwargs)
    with obs.instrumented() as state:
        result = run_lifecycle(PROFILES_BY_NAME[chain], **defaults)
    return result, state


class TestEveryTransactionTraced:
    @pytest.mark.parametrize("chain", ["ethereum", "bitcoin"])
    @pytest.mark.parametrize("executor", ["dag", "occ"])
    def test_one_closed_monotonic_trace_per_admitted_tx(
        self, chain, executor
    ):
        result, _state = _run(chain, executor=executor)
        assert result.admitted > 0
        # Exactly one trace per admitted transaction, all terminal.
        assert len(result.traces) == result.admitted
        assert len({t.trace_id for t in result.traces}) == result.admitted
        assert result.open == 0
        assert result.committed == result.admitted
        assert result.dropped == 0
        for trace in result.traces:
            assert trace.is_monotonic()
            assert trace.events[0].stage == "admitted"
            assert trace.outcome == "committed"
            stages = set(trace.stages)
            assert {"propagated", "included", "consensus",
                    "scheduled"} <= stages

    def test_deterministic_under_fixed_seed(self):
        first, _ = _run("ethereum", blocks=2)
        second, _ = _run("ethereum", blocks=2)
        assert [t.as_dict() for t in first.traces] == [
            t.as_dict() for t in second.traces
        ]

    def test_stage_metrics_land_in_registry(self):
        _result, state = _run("ethereum", blocks=2)
        snapshot = state.registry.snapshot()
        assert snapshot["counters"]["lifecycle.opened"] > 0
        assert "lifecycle.stage.committed" in snapshot["histograms"]
        assert snapshot["counters"]["mempool.admitted"] > 0
        assert snapshot["counters"]["gossip.propagations"] > 0


def test_dag_commits_every_conflicting_pair_in_packed_order(monkeypatch):
    """The packed block's tasks are in fee order, not chain order; the
    ``dag`` engine must order every conflicting pair as they are packed,
    as every other engine does.  The regress gate's run."""
    from repro.obs import lifecycle_run

    runs = []

    def spy(engine, block, cores, conflicts=None):
        report = run_engine(engine, block, cores, conflicts)
        runs.append((block.tasks, report))
        return report

    run_engine = lifecycle_run.run_engine
    monkeypatch.setattr(lifecycle_run, "run_engine", spy)
    _run("ethereum", blocks=10, seed=2020, executor="dag")
    assert len(runs) == 10
    pairs = 0
    for tasks, report in runs:
        position = {task.tx_hash: index for index, task in enumerate(tasks)}
        commit = {
            tx_hash: (clock, position[tx_hash])
            for clock, tx_hash in report.commits
        }
        for index, task in enumerate(tasks):
            for later in tasks[index + 1:]:
                if task.conflicts_with(later):
                    pairs += 1
                    assert commit[task.tx_hash] < commit[later.tx_hash]
    assert pairs > 100


class TestShardedChain:
    def test_zilliqa_assigns_committees_via_pbft(self):
        result, state = _run("zilliqa", blocks=2)
        profile = PROFILES_BY_NAME["zilliqa"]
        assert profile.num_shards > 0
        cross_shard = 0
        for trace in result.traces:
            # Sub-traces are joined back into the base trace, so no
            # ``#shard=`` ids survive to the result.
            assert "#" not in trace.trace_id
            assigned = [e for e in trace.events if e.stage == "assigned"]
            home = [e for e in assigned if "home_shard" not in e.attrs]
            assert len(home) == 1
            assert 0 <= home[0].attrs["shard"] < profile.num_shards
            # A transaction writing state homed on other committees
            # carries one extra assignment per remote shard (the joined
            # cross-shard sub-trace), each tagged with its home shard.
            remote = [e for e in assigned if "home_shard" in e.attrs]
            for event in remote:
                assert event.attrs["home_shard"] == \
                    home[0].attrs["shard"]
                assert event.attrs["shard"] != home[0].attrs["shard"]
            cross_shard += bool(remote)
            consensus = [
                e for e in trace.events if e.stage == "consensus"
            ]
            assert consensus[0].attrs["mechanism"] == "pbft"
        # The seeded workload spans committees for at least some txs.
        assert cross_shard > 0
        counters = state.registry.snapshot()["counters"]
        # The workload builder also dispatches while generating the
        # chain, so the counter bounds the admitted count from above.
        dispatches = sum(
            value for key, value in counters.items()
            if key.startswith("sharding.dispatch")
        )
        assert dispatches >= result.admitted

    def test_unsharded_chain_skips_assignment(self):
        result, _state = _run("ethereum", blocks=2)
        for trace in result.traces:
            assert "assigned" not in trace.stages


class TestEviction:
    def test_tiny_pool_closes_evicted_traces_as_dropped(self):
        result, state = _run("ethereum", blocks=2, mempool_weight=50)
        assert result.dropped > 0
        assert result.committed + result.dropped == result.admitted
        assert result.open == 0
        dropped = [t for t in result.traces if t.outcome == "dropped"]
        assert all(t.events[-1].attrs["reason"] == "evicted"
                   for t in dropped)
        counters = state.registry.snapshot()["counters"]
        assert counters[
            "lifecycle.closed{outcome=dropped}"
        ] == result.dropped


class TestDisabledObservability:
    def test_noop_run_produces_no_traces(self):
        obs.uninstall()
        result = run_lifecycle(
            PROFILES_BY_NAME["ethereum"], blocks=2, seed=7, cores=4
        )
        assert result.admitted > 0
        assert result.traces == ()
        assert result.committed == 0 and result.dropped == 0
        assert result.open == 0


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"blocks": 0},
        {"cores": 0},
        {"nodes": 1},
        {"cost_unit_seconds": 0.0},
        {"mempool_weight": 0},
        {"executor": "warp"},
    ])
    def test_bad_parameters_raise_value_error(self, kwargs):
        defaults = dict(blocks=1, seed=0, cores=2)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            run_lifecycle(PROFILES_BY_NAME["ethereum"], **defaults)
