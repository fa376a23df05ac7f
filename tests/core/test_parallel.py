"""The ordered chunk fan-out and the serial analysis walk.

:func:`repro.core.parallel.ordered_chunk_map` must return its chunks'
records in submission order whatever the backend, worker count, chunk
size or start method; it must survive a host whose process pool cannot
start, and withdraw the run it published to forked workers however the
run ends.  These tests drive it with toy chunk functions and through
its caller, :func:`repro.execution.parallel_replay.replay_chain`,
exercise the chunking helpers, and pin down the clear-error contract
(``ValueError`` on bad ``jobs`` / ``backend`` instead of a raw
traceback) of both the fan-out and :func:`analyze_chain`.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time

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
    BlockInput,
    analyze_chain,
    chunk_bounds,
    default_chunk_size,
    ordered_chunk_map,
    utxo_block_inputs,
    validate_backend,
    validate_chunk_size,
    validate_jobs,
)
from repro.execution.engine import tasks_from_utxo_block
from repro.execution.parallel_replay import coerce_replay_inputs, replay_chain


# The fan-out's caller, by its metric family.
FAMILY_METRICS = {"replay": "exec.replay"}


@pytest.fixture(scope="module")
def family_inputs(small_bitcoin_ledger):
    return {
        "replay": coerce_replay_inputs(
            (
                block.height,
                tasks_from_utxo_block(block.transactions),
                block.transactions,
            )
            for block in small_bitcoin_ledger
        ),
    }


def _fan_out(inputs, backend, **kwargs):
    """Records of a replay of *inputs* through two engines."""
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

    def test_default_jobs_follow_the_affinity_set(self, monkeypatch):
        """A run pinned to one CPU gets one worker, whatever the
        machine's CPU count."""
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert validate_jobs(None, backend="process") == 1

    @pytest.mark.parametrize("chunk_size", [0, -2])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            validate_chunk_size(chunk_size, num_blocks=10, jobs=2)

    def test_analyze_chain_rejects_bad_args(self, small_bitcoin_ledger):
        for backend in ("warp", "process"):
            with pytest.raises(ValueError, match="must be 'serial'"):
                analyze_chain(
                    small_bitcoin_ledger, data_model="utxo", name="btc",
                    backend=backend,
                )
        with pytest.raises(ValueError, match="unknown data model"):
            analyze_chain([], data_model="nosql", name="x")


# -- the serial analysis walk -------------------------------------------------


class TestAnalyzeChain:
    def test_histories_match_ledger_order_and_metadata(
        self, small_bitcoin_ledger
    ):
        history = analyze_chain(
            small_bitcoin_ledger, data_model="utxo", name="btc",
            start_year=2009.0,
        )
        assert history.name == "btc"
        assert history.start_year == 2009.0
        heights = [record.height for record in history.records]
        assert heights == sorted(heights)
        assert len(history) == len(small_bitcoin_ledger)

    def test_empty_chain(self):
        history = analyze_chain([], data_model="utxo", name="empty")
        assert history.records == []

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


# -- the process pool ---------------------------------------------------------


class TestProcessBackendObservability:
    """The process backend really runs chunks in worker processes, and
    in more than one of them."""

    def test_fork_pool_spreads_chunks_over_workers(self):
        chunks, jobs = 6, 3
        pids = ordered_chunk_map(
            _pid_chunk, None, list(range(2 * chunks)),
            family="test.fanout", backend="process", jobs=jobs,
            chunk_size=2,
        )
        assert len(pids) == chunks
        assert os.getpid() not in pids
        # Spawned workers come up one import at a time, so the first
        # may drain a queue this short alone.
        if multiprocessing.get_start_method(allow_none=True) in (
            None, "fork"
        ):
            assert len(set(pids)) > 1, "every chunk ran in one worker"

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


def _pid_chunk(_params, chunk, _record_obs):
    """One record per chunk: the pid of the process that ran it, after
    long enough that an idle worker takes the next chunk."""
    time.sleep(0.05)
    return [os.getpid()], 0.05, None, None


def _toy_map(params, backend, **kwargs):
    return ordered_chunk_map(
        _toy_chunk, params, list(range(8)),
        family="test.fanout", backend=backend, jobs=2,
        chunk_size=2, **kwargs,
    )


@pytest.mark.parametrize("family", ["replay"])
class TestFallbacks:
    """The fan-out survives a host with no process pool or no fork."""

    def test_pool_that_cannot_start_degrades_to_serial(
        self, family_inputs, family, monkeypatch
    ):
        inputs = family_inputs[family][:8]
        expected = _fan_out(inputs, "serial")
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _refuse
        )
        with obs.instrumented() as state:
            records = _fan_out(inputs, "process", jobs=2, chunk_size=2)
        assert records == expected
        counters = state.registry.snapshot()["counters"]
        metrics = FAMILY_METRICS[family]
        assert counters[f"{metrics}.fallbacks{{backend=process}}"] == 1
        histograms = state.registry.snapshot()["histograms"]
        assert histograms[
            f"{metrics}.chunk_seconds{{backend=serial}}"
        ]["count"] == 4
        assert parallel._FORK_RUN is None

    def test_no_shared_memory_ships_explicit_slices(
        self, family_inputs, family, spawn_start_method
    ):
        """Spawned workers get their chunk's slice, nothing shared."""
        inputs = family_inputs[family][:8]
        expected = _fan_out(inputs, "serial")
        with obs.instrumented() as state:
            records = _fan_out(inputs, "process", jobs=2, chunk_size=2)
        assert records == expected
        snapshot = state.registry.snapshot()
        metrics = FAMILY_METRICS[family]
        assert not [
            key for kind in ("counters", "gauges")
            for key in snapshot[kind] if key.startswith(f"{metrics}.shm")
        ]
        assert f"{metrics}.fallbacks{{backend=process}}" not in (
            snapshot["counters"]
        )
        assert snapshot["histograms"][
            f"{metrics}.chunk_seconds{{backend=process}}"
        ]["count"] == 4


class TestOrderedChunkMap:
    def test_out_of_order_completion_is_returned_in_order(self):
        records = _toy_map("slow-head", "process")
        assert [square for square, _ in records] == [
            x * x for x in range(8)
        ]
        # Chunk 0 really did finish after the chunk behind it.  Spawned
        # workers come up one import at a time, so only forked ones are
        # sure to overlap.
        if multiprocessing.get_start_method(allow_none=True) in (
            None, "fork"
        ):
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

    def test_raising_chunk_propagates_under_spawn(self, spawn_start_method):
        with pytest.raises(RuntimeError, match="published: False"):
            _toy_map("boom", "process")
        assert parallel._FORK_RUN is None
