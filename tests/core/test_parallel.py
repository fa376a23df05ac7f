"""Equivalence harness for the parallel block-analysis backend.

The purity contract of :mod:`repro.core.parallel` — per-block analysis
reads only that block's transactions — implies a strong invariant: the
serial, thread and process backends must produce *equal*
``BlockRecord`` sequences for every chain, worker count and chunk size.
These tests enforce the invariant on seeded-random UTXO and account
chains, exercise the chunking helpers, and pin down the clear-error
contract (``ValueError`` on bad ``jobs`` / ``backend`` instead of a raw
traceback).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import sys
import time
from multiprocessing import shared_memory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import (
    build_adjacency,
    components_as_partition,
    connected_components_bfs,
    connected_components_union_find,
)
from repro import obs
from repro.core import parallel
from repro.core.parallel import (
    BACKENDS,
    BlockInput,
    account_block_inputs,
    analyze_chain,
    chunk_bounds,
    default_chunk_size,
    ordered_chunk_map,
    utxo_block_inputs,
    validate_backend,
    validate_chunk_size,
    validate_jobs,
)
from repro.core.pipeline import analyze_account_blocks, analyze_utxo_ledger
from repro.execution.engine import tasks_from_utxo_block
from repro.execution.parallel_replay import coerce_replay_inputs, replay_chain
from repro.workload.account_workload import build_account_chain
from repro.workload.profiles import BITCOIN, ETHEREUM
from repro.workload.utxo_workload import build_utxo_chain


def _serial_records(inputs, data_model):
    history = analyze_chain(
        inputs, data_model=data_model, name="ref", backend="serial"
    )
    return history.records


# The fan-out's two callers, by the prefix of their recorder lanes.
FAMILY_METRICS = {"pipeline": "pipeline.parallel", "replay": "exec.replay"}


@pytest.fixture(scope="module")
def family_inputs(small_bitcoin_ledger):
    return {
        "pipeline": utxo_block_inputs(small_bitcoin_ledger),
        "replay": coerce_replay_inputs(
            (
                block.height,
                tasks_from_utxo_block(block.transactions),
                block.transactions,
            )
            for block in small_bitcoin_ledger
        ),
    }


def _fan_out(family, inputs, backend, **kwargs):
    """Records of one caller's run over its own kind of inputs."""
    if family == "pipeline":
        return analyze_chain(
            inputs, data_model="utxo", name="btc", backend=backend,
            **kwargs,
        ).records
    return list(replay_chain(
        inputs, data_model="utxo", engines=("sequential", "occ"),
        backend=backend, **kwargs,
    ).records)


# -- chunking helpers ---------------------------------------------------------


class TestChunking:
    def test_bounds_cover_range_exactly(self):
        for num_blocks in (0, 1, 5, 17, 100):
            for chunk_size in (1, 3, 7, 100):
                bounds = chunk_bounds(num_blocks, chunk_size)
                covered = [
                    i for start, stop in bounds for i in range(start, stop)
                ]
                assert covered == list(range(num_blocks))

    def test_bounds_respect_chunk_size(self):
        bounds = chunk_bounds(17, 5)
        assert bounds == [(0, 5), (5, 10), (10, 15), (15, 17)]

    def test_default_chunk_size_balances_workers(self):
        # ~4 chunks per worker, never below one block per chunk.
        assert default_chunk_size(1000, 4) == 63
        assert default_chunk_size(3, 8) == 1
        assert default_chunk_size(0, 4) == 1

    @given(
        num_blocks=st.integers(min_value=0, max_value=500),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_partition_property(self, num_blocks, chunk_size):
        bounds = chunk_bounds(num_blocks, chunk_size)
        assert sum(stop - start for start, stop in bounds) == num_blocks
        for (_, stop_a), (start_b, _) in zip(bounds, bounds[1:]):
            assert stop_a == start_b


# -- argument validation ------------------------------------------------------


class TestValidation:
    def test_unknown_backend_is_a_clear_value_error(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            validate_backend("gpu")

    @pytest.mark.parametrize("jobs", [0, -1, -100])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            validate_jobs(jobs)

    def test_non_integer_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be an integer"):
            validate_jobs(2.5)  # type: ignore[arg-type]

    def test_jobs_defaults(self):
        assert validate_jobs(None, backend="serial") == 1
        assert validate_jobs(None, backend="process") >= 1
        assert validate_jobs(3, backend="process") == 3

    @pytest.mark.parametrize("chunk_size", [0, -2])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            validate_chunk_size(chunk_size, num_blocks=10, jobs=2)

    def test_analyze_chain_rejects_bad_args(self, small_bitcoin_ledger):
        with pytest.raises(ValueError, match="unknown backend"):
            analyze_chain(
                small_bitcoin_ledger, data_model="utxo", name="btc",
                backend="warp",
            )
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            analyze_chain(
                small_bitcoin_ledger, data_model="utxo", name="btc",
                jobs=0,
            )
        with pytest.raises(ValueError, match="unknown data model"):
            analyze_chain([], data_model="nosql", name="x")

    def test_pipeline_entry_points_propagate_the_error(
        self, small_bitcoin_ledger, small_ethereum_builder
    ):
        with pytest.raises(ValueError, match="unknown backend"):
            analyze_utxo_ledger(
                small_bitcoin_ledger, name="btc", backend="warp"
            )
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            analyze_account_blocks(
                small_ethereum_builder.executed_blocks, name="eth",
                backend="process", jobs=-3,
            )


# -- backend equivalence on the shared fixtures -------------------------------


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("jobs,chunk_size", [
        (1, None), (2, 1), (3, 7), (2, 1000),
    ])
    def test_utxo_records_identical(
        self, small_bitcoin_ledger, backend, jobs, chunk_size
    ):
        inputs = utxo_block_inputs(small_bitcoin_ledger)
        reference = _serial_records(inputs, "utxo")
        history = analyze_chain(
            inputs, data_model="utxo", name="btc", backend=backend,
            jobs=jobs, chunk_size=chunk_size,
        )
        assert history.records == reference

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("jobs,chunk_size", [(2, None), (3, 4)])
    def test_account_records_identical(
        self, small_ethereum_builder, backend, jobs, chunk_size
    ):
        inputs = account_block_inputs(small_ethereum_builder.executed_blocks)
        reference = _serial_records(inputs, "account")
        history = analyze_chain(
            inputs, data_model="account", name="eth", backend=backend,
            jobs=jobs, chunk_size=chunk_size,
        )
        assert history.records == reference

    def test_histories_match_ledger_order_and_metadata(
        self, small_bitcoin_ledger
    ):
        history = analyze_chain(
            small_bitcoin_ledger, data_model="utxo", name="btc",
            start_year=2009.0, backend="process", jobs=2,
        )
        assert history.name == "btc"
        assert history.start_year == 2009.0
        heights = [record.height for record in history.records]
        assert heights == sorted(heights)
        assert len(history) == len(small_bitcoin_ledger)

    def test_empty_chain(self):
        for backend in BACKENDS:
            history = analyze_chain(
                [], data_model="utxo", name="empty", backend=backend,
                jobs=2,
            )
            assert history.records == []


# -- seeded-random equivalence across fresh chains ----------------------------


class TestSeededRandomEquivalence:
    """Property-style: fresh seeds, both data models, varied fan-out."""

    @pytest.mark.parametrize("seed", [1, 11, 42])
    def test_random_utxo_chains(self, seed):
        ledger = build_utxo_chain(
            BITCOIN, num_blocks=12, seed=seed, scale=0.15
        )
        inputs = utxo_block_inputs(ledger)
        reference = _serial_records(inputs, "utxo")
        for backend, jobs, chunk_size in [
            ("process", 2, None), ("process", 4, 3), ("thread", 3, 5),
        ]:
            history = analyze_chain(
                inputs, data_model="utxo", name=f"btc-{seed}",
                backend=backend, jobs=jobs, chunk_size=chunk_size,
            )
            assert history.records == reference, (backend, jobs, chunk_size)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_random_account_chains(self, seed):
        builder = build_account_chain(
            ETHEREUM, num_blocks=8, seed=seed, scale=0.3
        )
        inputs = account_block_inputs(builder.executed_blocks)
        reference = _serial_records(inputs, "account")
        for backend, jobs, chunk_size in [
            ("process", 3, 2), ("thread", 2, None),
        ]:
            history = analyze_chain(
                inputs, data_model="account", name=f"eth-{seed}",
                backend=backend, jobs=jobs, chunk_size=chunk_size,
            )
            assert history.records == reference, (backend, jobs, chunk_size)

    def test_block_inputs_are_pure_snapshots(self, small_bitcoin_ledger):
        # Re-deriving inputs from the same ledger gives equal payloads:
        # nothing in a BlockInput aliases mutable builder state.
        first = utxo_block_inputs(small_bitcoin_ledger)
        second = utxo_block_inputs(small_bitcoin_ledger)
        assert first == second
        assert all(isinstance(item, BlockInput) for item in first)


# -- component-algorithm equivalence (the TDG's substrate) --------------------


def _partitions(nodes, edges):
    adjacency = build_adjacency(nodes, edges)
    bfs = components_as_partition(connected_components_bfs(adjacency))
    dsu = components_as_partition(
        connected_components_union_find(adjacency)
    )
    return bfs, dsu


class TestComponentEquivalence:
    """BFS (paper Fig. 3) and union-find induce the same partition."""

    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=60,
        ),
        extra_nodes=st.sets(
            st.integers(min_value=0, max_value=40), max_size=10
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, edges, extra_nodes):
        bfs, dsu = _partitions(extra_nodes, edges)
        assert bfs == dsu

    def test_structured_graphs(self):
        cases = [
            # sweep chain (paper Fig. 6 shape)
            ([], [(i, i + 1) for i in range(18)]),
            # exchange fan-in star (paper Fig. 1b shape)
            ([], [(0, i) for i in range(1, 16)]),
            # two cliques plus isolated nodes
            (
                [100, 101],
                [(a, b) for a in range(5) for b in range(a + 1, 5)]
                + [(a, b) for a in range(10, 14) for b in range(a + 1, 14)],
            ),
            # self loops only
            ([1, 2, 3], [(1, 1), (2, 2)]),
        ]
        for nodes, edges in cases:
            bfs, dsu = _partitions(nodes, edges)
            assert bfs == dsu


# -- observability across process boundaries ----------------------------------


class TestProcessBackendObservability:
    """Worker registries must fold into the parent at join: the
    per-block analysis metrics recorded inside process workers match a
    serial run exactly (counters sum, histograms merge), closing the
    process-backend blind spot."""

    @pytest.fixture(scope="class")
    def inputs(self, small_bitcoin_ledger):
        return utxo_block_inputs(small_bitcoin_ledger)

    def _snapshot(self, inputs, backend, jobs):
        from repro import obs

        with obs.instrumented() as state:
            analyze_chain(
                inputs, data_model="utxo", name="btc", backend=backend,
                jobs=jobs, chunk_size=3,
            )
            return state.registry.snapshot(), state.recorder.events()

    @pytest.mark.parametrize("backend,jobs", [
        ("thread", 3), ("process", 3),
    ])
    def test_per_block_metrics_match_serial(self, inputs, backend, jobs):
        serial, _ = self._snapshot(inputs, "serial", 1)
        parallel, _ = self._snapshot(inputs, backend, jobs)
        # Every analysis-domain counter the serial run records must
        # come back identical through the worker merge; the parallel
        # run only ADDS its own pipeline.parallel.* family.
        for key, value in serial["counters"].items():
            assert parallel["counters"].get(key) == value, key
        extra = set(parallel["counters"]) - set(serial["counters"])
        assert all(k.startswith("pipeline.parallel.") for k in extra)
        for key, summary in serial["histograms"].items():
            merged = parallel["histograms"].get(key)
            assert merged is not None, key
            assert merged["count"] == summary["count"]
            assert merged["sum"] == pytest.approx(summary["sum"])

    def test_process_run_records_chunk_timeline(self, family_inputs):
        # Both callers x both pools in one test (the id stays the one
        # the floor list knows): {pipeline, replay} x {thread, process}.
        jobs, chunk_size = 3, 2
        forks = multiprocessing.get_start_method(allow_none=True) in (
            None, "fork"
        )
        # A short switch interval lets every pool thread take a chunk
        # before the first one has drained the queue.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for family, inputs in family_inputs.items():
                chunks = len(chunk_bounds(len(inputs), chunk_size))
                assert chunks >= 2 * jobs
                for backend in ("thread", "process"):
                    with obs.instrumented() as state:
                        _fan_out(
                            family, inputs, backend, jobs=jobs,
                            chunk_size=chunk_size,
                        )
                    where = f"{family}.{backend}"
                    chunk_events = state.recorder.events(executor=where)
                    # One schedule/start/commit triple per chunk, lanes
                    # keyed by worker first-appearance.
                    assert {e.kind for e in chunk_events} == {
                        "schedule", "start", "commit"
                    }, where
                    lanes = [
                        e.lane for e in chunk_events if e.kind == "commit"
                    ]
                    assert len(lanes) == chunks, where
                    assert set(lanes) == set(range(len(set(lanes)))), where
                    # Spawned workers come up one import at a time, so
                    # the first may drain a queue this short alone.
                    if backend == "thread" or forks:
                        assert len(set(lanes)) > 1, (
                            f"{where}: every chunk landed on one lane"
                        )
        finally:
            sys.setswitchinterval(interval)

    def test_worker_dump_merge_is_exact_for_counts(self, inputs):
        # analyze_chunk keeps its public 2-tuple contract while the
        # pool path ships ChunkResult dumps; both must agree on totals.
        from repro.core.parallel import analyze_chunk

        records, elapsed = analyze_chunk("utxo", inputs[:3])
        assert len(records) == 3
        assert elapsed >= 0.0


# -- the fan-out primitive: fallbacks, transports, clean-up -------------------


@pytest.fixture
def spawn_start_method():
    """Force the spawn start method, whatever the shard configured."""
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


def _refuse(*_args, **_kwargs):
    raise OSError("not in this sandbox")


def _toy_chunk(params, chunk, record_obs):
    """Square a chunk of ints, stamping each record with its finish time.

    *params* picks a misbehaviour: ``"slow-head"`` holds the chunk that
    starts at item 0 back, ``"boom"`` raises.
    """
    started = time.perf_counter()
    if params == "boom":
        published = parallel._FORK_RUN is not None
        raise RuntimeError(f"boom, fork global published: {published}")
    if params == "slow-head" and chunk[0] == 0:
        time.sleep(0.2)
    finished = time.perf_counter()
    return [(x * x, finished) for x in chunk], finished - started, None, None


def _toy_map(params, backend, **kwargs):
    return ordered_chunk_map(
        _toy_chunk, params, list(range(8)),
        family="test.fanout", lanes="test", backend=backend, jobs=2,
        chunk_size=2, **kwargs,
    )


@pytest.mark.parametrize("family", ["pipeline", "replay"])
class TestFallbacks:
    """Both callers survive a host with no process pool / no /dev/shm."""

    def test_pool_that_cannot_start_degrades_to_threads(
        self, family_inputs, family, monkeypatch
    ):
        inputs = family_inputs[family][:8]
        expected = _fan_out(family, inputs, "serial")
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _refuse
        )
        with obs.instrumented() as state:
            records = _fan_out(
                family, inputs, "process", jobs=2, chunk_size=2
            )
        assert records == expected
        counters = state.registry.snapshot()["counters"]
        metrics = FAMILY_METRICS[family]
        assert counters[f"{metrics}.fallbacks{{backend=process}}"] == 1
        assert state.recorder.events(executor=f"{family}.thread")
        assert parallel._FORK_RUN is None

    def test_no_shared_memory_ships_explicit_slices(
        self, family_inputs, family, monkeypatch, spawn_start_method
    ):
        inputs = family_inputs[family][:8]
        expected = _fan_out(family, inputs, "serial")
        monkeypatch.setattr(shared_memory, "SharedMemory", _refuse)
        with obs.instrumented() as state:
            records = _fan_out(
                family, inputs, "process", jobs=2, chunk_size=2
            )
        assert records == expected
        snapshot = state.registry.snapshot()
        metrics = FAMILY_METRICS[family]
        assert snapshot["counters"][f"{metrics}.shm_fallbacks"] == 1
        assert f"{metrics}.shm_bytes" not in snapshot["gauges"]
        assert f"{metrics}.fallbacks{{backend=process}}" not in (
            snapshot["counters"]
        )

    def test_spawn_publishes_one_shared_segment(
        self, family_inputs, family, spawn_start_method
    ):
        """The analysis pipeline has the shm transport replay always had."""
        inputs = family_inputs[family][:8]
        expected = _fan_out(family, inputs, "serial")
        with obs.instrumented() as state:
            records = _fan_out(
                family, inputs, "process", jobs=2, chunk_size=2
            )
        assert records == expected
        snapshot = state.registry.snapshot()
        metrics = FAMILY_METRICS[family]
        assert snapshot["gauges"][f"{metrics}.shm_bytes"] > 0
        assert f"{metrics}.shm_fallbacks" not in snapshot["counters"]


class TestOrderedChunkMap:
    def test_out_of_order_completion_is_returned_in_order(self):
        records = _toy_map("slow-head", "thread")
        assert [square for square, _ in records] == [
            x * x for x in range(8)
        ]
        # Chunk 0 really did finish after the chunk behind it.
        assert records[0][1] > records[2][1]

    def test_raising_chunk_withdraws_the_fork_global(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform cannot fork")
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("fork", force=True)
        try:
            with pytest.raises(RuntimeError, match="published: True"):
                _toy_map("boom", "process")
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert parallel._FORK_RUN is None

    def test_raising_chunk_unlinks_the_segment(
        self, monkeypatch, spawn_start_method
    ):
        created = []

        def spy(*args, **kwargs):
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        real = shared_memory.SharedMemory
        monkeypatch.setattr(shared_memory, "SharedMemory", spy)
        with pytest.raises(RuntimeError, match="published: False"):
            _toy_map("boom", "process")
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real(name=created[0])
        assert parallel._FORK_RUN is None
