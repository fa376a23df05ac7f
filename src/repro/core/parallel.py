"""Ordered chunk fan-out, and the block-analysis pipeline built on it.

The paper's per-block work — TDG construction plus the conflict metrics
of Figs. 4-9, and equally an executor replay of the block — reads only
that block's transactions and touches no shared ledger state.  This
module exploits that purity twice over:

* :func:`ordered_chunk_map` is the repo's ONE fan-out.  It splits a
  sequence of pure items into contiguous chunks, runs a module-level
  chunk function over each chunk on the chosen backend, and returns the
  per-chunk records concatenated in submission (= height) order.  It
  owns start-method selection, the publication of the run to workers,
  the worker initialiser, both pools, the process→thread fallback, the
  ordered collection that merges worker observability back into the
  parent, and the clean-up of whatever it published.
* :func:`analyze_chain` is its first caller: chunks of
  :class:`BlockInput` analyzed by
  :func:`repro.core.pipeline.analyze_utxo_block` /
  :func:`~repro.core.pipeline.analyze_account_block`, reassembled into a
  :class:`~repro.core.pipeline.ChainHistory` value-identical to the
  serial walk.  :func:`repro.execution.parallel_replay.replay_chain` is
  the second.

Backends:

* ``"process"`` (the parallel default) — a
  :class:`concurrent.futures.ProcessPoolExecutor` under the configured
  multiprocessing start method, fork where none is configured.  The run
  (chunk function, parameters, items) reaches the workers by the
  cheapest transport available: a module global inherited through fork
  (only ``(start, stop)`` pairs travel per chunk), else ONE pickle in a
  :mod:`multiprocessing.shared_memory` segment that workers attach by
  name (gauge ``<family>.shm_bytes``), else an explicit per-chunk slice
  (counter ``<family>.shm_fallbacks``).
* ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor` over
  the same chunk function; also the automatic fallback when a process
  pool cannot start (sandboxes without ``sem_open``; counter
  ``<family>.fallbacks``).
* ``"serial"`` — in-process.  :func:`analyze_chain` keeps its own plain
  per-block loop here: it is the reference the golden and equivalence
  suites compare the fan-out against.

Determinism contract: per-item work is pure, chunking only changes
*where* an item is processed, and collection is by chunk index — so the
output is identical regardless of backend, worker count, or chunk size.
``tests/core/test_parallel.py``, the golden-regression suite and
``tests/execution/test_differential.py`` enforce this.

Observability, recorded in the parent under the caller's metric family
(``pipeline.parallel`` / ``exec.replay``; see
``docs/parallel_pipeline.md``): span ``<family>.run`` with one
``<family>.chunk`` child per chunk (``worker_seconds`` carries the
in-worker wall time); counters ``.runs`` / ``.chunks`` / ``.blocks`` /
``.fallbacks`` and gauge ``.jobs``, labelled by backend; histogram
``.chunk_seconds``; and one ``schedule``/``start``/``commit``
flight-recorder triple per chunk on executor ``<lanes>.<backend>``
(clocks in real seconds since collection began, one lane per worker).
Whatever a chunk function records privately — a registry dump, recorder
rows — rides back with its result and is merged at join, so metric
totals and event streams match a serial walk for every backend.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from repro import obs
from repro.chain.block import Block
from repro.core.pipeline import (
    BlockRecord,
    ChainHistory,
    analyze_account_block,
    analyze_utxo_block,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import QUEUE_LANE
from repro.obs.tracer import NOOP_TRACER

BACKENDS = ("serial", "thread", "process")
DEFAULT_BACKEND = "process"
# Chunks per worker: >1 so stragglers rebalance, small enough that the
# per-chunk dispatch overhead stays negligible.
CHUNKS_PER_JOB = 4

DATA_MODELS = ("utxo", "account")


@dataclass(frozen=True)
class BlockInput:
    """Pure, picklable description of one block's analysis input.

    ``payload`` is the block's transaction sequence —
    ``UTXOTransaction`` objects for UTXO chains,
    ``ExecutedTransaction`` objects for account chains.  Nothing here
    references shared ledger state, which is what lets a worker analyze
    the block in isolation.
    """

    height: int
    timestamp: float
    payload: tuple


# -- argument validation ------------------------------------------------------


def validate_backend(backend: str) -> str:
    """Return *backend* normalised, or raise a clear :class:`ValueError`."""
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ValueError(
            f"unknown backend {backend!r}; expected one of: {known}"
        )
    return backend


def validate_jobs(jobs: int | None, *, backend: str = DEFAULT_BACKEND) -> int:
    """Resolve *jobs* (None -> cpu count; serial -> 1) or raise ValueError."""
    if jobs is None:
        if backend == "serial":
            return 1
        return os.cpu_count() or 1
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def validate_chunk_size(chunk_size: int | None, *, num_blocks: int,
                        jobs: int) -> int:
    """Resolve *chunk_size* (None -> a balanced default) or raise."""
    if chunk_size is None:
        return default_chunk_size(num_blocks, jobs)
    if not isinstance(chunk_size, int) or isinstance(chunk_size, bool):
        raise ValueError(
            f"chunk_size must be an integer >= 1, got {chunk_size!r}"
        )
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


def default_chunk_size(num_blocks: int, jobs: int) -> int:
    """Blocks per chunk targeting :data:`CHUNKS_PER_JOB` chunks per worker."""
    if num_blocks <= 0:
        return 1
    target_chunks = max(jobs * CHUNKS_PER_JOB, 1)
    return max(1, -(-num_blocks // target_chunks))


def chunk_bounds(num_blocks: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` index pairs covering ``range(num_blocks)``."""
    return [
        (start, min(start + chunk_size, num_blocks))
        for start in range(0, num_blocks, chunk_size)
    ]


# -- input coercion -----------------------------------------------------------


def utxo_block_inputs(ledger: Iterable[Block]) -> list[BlockInput]:
    """Snapshot a UTXO ledger's blocks as pure analysis inputs."""
    return [
        BlockInput(
            height=block.height,
            timestamp=block.header.timestamp,
            payload=tuple(block.transactions),
        )
        for block in ledger
    ]


def account_block_inputs(
    blocks: Iterable[tuple[Block, Sequence]],
) -> list[BlockInput]:
    """Snapshot (block, executed transactions) pairs as analysis inputs."""
    return [
        BlockInput(
            height=block.height,
            timestamp=block.header.timestamp,
            payload=tuple(executed),
        )
        for block, executed in blocks
    ]


def coerce_block_inputs(source, data_model: str) -> list[BlockInput]:
    """Accept a ledger / (block, executed) iterable / BlockInput list."""
    items = list(source)
    if all(isinstance(item, BlockInput) for item in items):
        return items
    if data_model == "utxo":
        return utxo_block_inputs(items)
    return account_block_inputs(items)




# -- the ordered chunk fan-out: worker side -----------------------------------

# What a chunk function returns: (records, elapsed seconds, registry
# dump or None, flight-recorder rows or None).  It is called as
# ``chunk_fn(params, chunk, record_obs)`` where ``record_obs`` is falsy
# or the parent registry's policy string ("exact" / "sketch") — a
# request to record privately and hand the recordings back.
ChunkFn = Callable[
    [object, Sequence, "bool | str"],
    "tuple[list, float, list[dict] | None, list | None]",
]


class ChunkResult(NamedTuple):
    """What a worker ships back for one chunk.

    ``obs_dump`` (see :meth:`repro.obs.metrics.MetricsRegistry.dump`)
    and ``rows`` are the chunk function's private recordings, ``None``
    when it made none; ``worker_id`` identifies the worker (pid for
    processes, thread id for pool threads) so the parent can map chunks
    onto stable flight-recorder lanes.
    """

    records: list
    elapsed: float
    worker_id: int
    obs_dump: list[dict] | None
    rows: list | None


# Fork transport: the run — (chunk_fn, params, items) — published in
# the parent immediately before the pool starts, inherited through
# fork, cleared after.  Item payloads never enter a request pickle;
# only (start, stop) pairs go down and only records come back.
_FORK_RUN: tuple | None = None

# Shared-memory transport: one pickled run per fan-out lives in a
# segment; workers attach by name and unpickle once (cached here per
# segment name), so the items cross the process boundary zero times
# per chunk instead of once per chunk.
_SHM_RUNS: dict[str, tuple] = {}


def _worker_init() -> None:
    """Process-pool worker initializer.

    ``gc.freeze()`` moves the heap inherited through fork into the
    permanent generation, so the worker's cyclic GC never traverses the
    parent's (potentially millions of) chain objects.  Without this,
    every gen-2 collection triggered by analysis allocations rescans the
    whole inherited heap and also breaks copy-on-write sharing —
    measured at ~5x wall-time overhead on a 2k-block chain.

    ``obs.uninstall()`` drops any recording registry/tracer inherited
    from an instrumented parent: recording into it would be invisible to
    the parent anyway (the fork copy dies with the worker).  When the
    parent *is* instrumented it instead asks each chunk to record
    privately (``record_obs``) and merges what rides back at join.
    """
    import gc

    gc.freeze()
    obs.uninstall()


def _run_chunk(
    chunk_fn: ChunkFn, params: object, chunk: Sequence,
    record_obs: bool | str,
) -> ChunkResult:
    """Run one chunk where it stands; the explicit-transport entry."""
    worker_id = (
        os.getpid() if threading.current_thread() is threading.main_thread()
        else threading.get_ident()
    )
    records, elapsed, obs_dump, rows = chunk_fn(params, chunk, record_obs)
    return ChunkResult(records, elapsed, worker_id, obs_dump, rows)


def _chunk_from_fork(
    start: int, stop: int, record_obs: bool | str
) -> ChunkResult:
    """Fork-transport entry: slice the inherited run by index."""
    chunk_fn, params, items = _FORK_RUN
    return _run_chunk(chunk_fn, params, items[start:stop], record_obs)


def _chunk_from_shm(
    name: str, start: int, stop: int, record_obs: bool | str
) -> ChunkResult:
    """Shared-memory-transport entry: slice the attached run by index."""
    run = _SHM_RUNS.get(name)
    if run is None:
        segment = _attach_shm(name)
        try:
            # The segment may be page-rounded past the pickle; loads
            # stops at the STOP opcode and ignores the tail.
            run = pickle.loads(segment.buf)
        finally:
            segment.close()
        _SHM_RUNS[name] = run
    chunk_fn, params, items = run
    return _run_chunk(chunk_fn, params, items[start:stop], record_obs)


def _attach_shm(name: str):
    """Attach to a named segment without resource-tracker side effects.

    On 3.13+ ``track=False`` exists; earlier interpreters register every
    attachment with the resource tracker, whose exit-time cleanup would
    unlink the segment out from under the other workers (bpo-38119) —
    unregister explicitly there.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        segment = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        return segment


def _publish_shm(run: tuple, family: str):
    """Pickle *run* once into a fresh segment; ``None`` where there is
    no shared memory (the caller then ships per-chunk slices)."""
    payload = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            create=True, size=max(1, len(payload))
        )
    except (ImportError, OSError, PermissionError):
        obs.counter(f"{family}.shm_fallbacks").inc()
        return None
    segment.buf[:len(payload)] = payload
    obs.gauge(f"{family}.shm_bytes").set(len(payload))
    return segment


# -- the ordered chunk fan-out: parent side -----------------------------------


def _collect_ordered(
    resolvers: Iterable[Callable[[], ChunkResult]],
    *,
    bounds: Sequence[tuple[int, int]],
    family: str,
    lanes: str,
    backend: str,
) -> list:
    """Gather chunk results in submission (= height) order, merging obs.

    Joins the observability streams in the parent: the per-chunk
    span/histogram family, worker registry dumps (merged into the
    installed registry, closing the process-backend blind spot), worker
    recorder rows (replayed chunk by chunk, so the parent's event stream
    is byte-identical to a serial run's regardless of which worker
    finished first) and chunk-granularity flight-recorder events.
    Timeline clocks here are *real seconds* since collection began; a
    chunk's ``start`` is inferred as arrival time minus its in-worker
    elapsed, and lanes index distinct worker ids in order of first
    appearance.
    """
    seconds = obs.histogram(f"{family}.chunk_seconds", backend=backend)
    registry = obs.get_registry()
    recorder = obs.get_recorder()
    executor_name = f"{lanes}.{backend}"
    lane_of: dict[int, int] = {}
    collect_start = time.perf_counter()
    records: list = []
    for index, resolve in enumerate(resolvers):
        start, stop = bounds[index]
        with obs.trace_span(
            f"{family}.chunk",
            index=index, start=start, blocks=stop - start, backend=backend,
        ) as span:
            result = resolve()
            span.set(worker_seconds=round(result.elapsed, 6))
        seconds.observe(result.elapsed)
        if result.obs_dump is not None:
            registry.merge_dump(result.obs_dump)
        if recorder.enabled:
            if result.rows is not None:
                recorder.extend(result.rows)
            lane = lane_of.setdefault(result.worker_id, len(lane_of))
            arrival = time.perf_counter() - collect_start
            begun = max(0.0, arrival - result.elapsed)
            task = f"chunk[{start}:{stop})"
            recorder.extend([
                (executor_name, None, 0, "schedule", task, QUEUE_LANE,
                 0.0, 0.0),
                (executor_name, None, 0, "start", task, lane,
                 begun, result.elapsed),
                (executor_name, None, 0, "commit", task, lane,
                 arrival, result.elapsed),
            ])
        records.extend(result.records)
    return records


def _run_process_pool(
    run: tuple,
    bounds: Sequence[tuple[int, int]],
    jobs: int,
    record_obs: bool | str,
    family: str,
    collect: Callable[..., list],
) -> list:
    """Fan chunks over a process pool by the cheapest transport."""
    global _FORK_RUN
    # Lazy import: keeps serial/thread paths usable even where the
    # multiprocessing primitives are unavailable (the caller catches the
    # failure and falls back).
    from concurrent.futures import ProcessPoolExecutor

    # Honour an explicitly configured start method (the spawn CI shard
    # sets one); otherwise prefer fork where the platform offers it.
    method = multiprocessing.get_start_method(allow_none=True)
    fork_sharing = method in (None, "fork")
    if fork_sharing:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
            fork_sharing = False
    else:
        context = multiprocessing.get_context(method)

    segment = None
    try:
        if fork_sharing:
            _FORK_RUN = run
        else:
            segment = _publish_shm(run, family)

        def job(start: int, stop: int) -> tuple:
            if fork_sharing:
                return _chunk_from_fork, start, stop, record_obs
            if segment is not None:
                return _chunk_from_shm, segment.name, start, stop, record_obs
            chunk_fn, params, items = run
            return _run_chunk, chunk_fn, params, items[start:stop], record_obs

        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=context, initializer=_worker_init
        ) as pool:
            futures = [
                pool.submit(*job(start, stop)) for start, stop in bounds
            ]
            return collect(
                [future.result for future in futures], backend="process"
            )
    finally:
        _FORK_RUN = None
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


def _run_thread_pool(
    run: tuple,
    bounds: Sequence[tuple[int, int]],
    jobs: int,
    record_obs: bool | str,
    collect: Callable[..., list],
) -> list:
    chunk_fn, params, items = run
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(
                _run_chunk, chunk_fn, params, items[start:stop], record_obs
            )
            for start, stop in bounds
        ]
        return collect(
            [future.result for future in futures], backend="thread"
        )


def ordered_chunk_map(
    chunk_fn: ChunkFn,
    params: object,
    items: Sequence,
    *,
    family: str,
    lanes: str,
    backend: str,
    jobs: int,
    chunk_size: int,
    **run_attrs: object,
) -> list:
    """Run *chunk_fn* over contiguous chunks of *items*; records in order.

    Args:
        chunk_fn: a module-level (picklable by reference) function
            ``(params, chunk, record_obs) -> (records, elapsed,
            obs_dump, rows)``; it must be pure in *chunk*.
        params: the small picklable per-run parameters every chunk
            shares.
        items: the sliceable sequence of pure, picklable work items.
        family: metric/span family (``"pipeline.parallel"``,
            ``"exec.replay"``).
        lanes: flight-recorder executor prefix (``"pipeline"``,
            ``"replay"``) — chunk lanes land on ``<lanes>.<backend>``.
        backend / jobs / chunk_size: already validated
            (:func:`validate_backend` / :func:`validate_jobs` /
            :func:`validate_chunk_size`).
        run_attrs: extra attributes for the ``<family>.run`` span.

    The concatenated records are identical for every (backend, jobs,
    chunk_size); a process pool that cannot start degrades to the thread
    backend (counted in ``<family>.fallbacks``).  An exception raised by
    *chunk_fn* propagates, after the published run is withdrawn.
    """
    bounds = chunk_bounds(len(items), chunk_size)
    # Workers start with obs uninstalled (_worker_init); when the parent
    # is instrumented, ask each chunk to record privately.  The parent's
    # policy string rides along so sketch-policy sweeps stay
    # bounded-memory on both sides of the pool.
    parent_registry = obs.get_registry()
    record_obs: bool | str = (
        parent_registry.policy if parent_registry.enabled else False
    )
    run = (chunk_fn, params, items)
    collect = partial(
        _collect_ordered, bounds=bounds, family=family, lanes=lanes
    )
    with obs.trace_span(
        f"{family}.run",
        backend=backend, jobs=jobs, chunks=len(bounds), blocks=len(items),
        **run_attrs,
    ):
        obs.counter(f"{family}.runs", backend=backend).inc()
        obs.counter(f"{family}.chunks", backend=backend).inc(len(bounds))
        obs.counter(f"{family}.blocks", backend=backend).inc(len(items))
        obs.gauge(f"{family}.jobs", backend=backend).set(jobs)
        if backend == "serial":
            return collect(
                (
                    partial(_run_chunk, chunk_fn, params, items[start:stop],
                            record_obs)
                    for start, stop in bounds
                ),
                backend="serial",
            )
        if backend == "process":
            try:
                return _run_process_pool(
                    run, bounds, jobs, record_obs, family, collect
                )
            except (ImportError, NotImplementedError, OSError,
                    PermissionError):
                # Sandboxes without sem_open / fork; chunk purity makes
                # the in-process retry safe.
                obs.counter(f"{family}.fallbacks", backend="process").inc()
        return _run_thread_pool(run, bounds, jobs, record_obs, collect)


# -- block analysis over the fan-out ------------------------------------------


def _analyze_block(data_model: str, item: BlockInput) -> BlockRecord:
    if data_model == "utxo":
        record, _tdg = analyze_utxo_block(
            item.payload, height=item.height, timestamp=item.timestamp
        )
    else:
        record, _tdg = analyze_account_block(
            item.payload, height=item.height, timestamp=item.timestamp
        )
    return record


def analyze_chunk(
    data_model: str, chunk: Sequence[BlockInput]
) -> tuple[list[BlockRecord], float]:
    """Analyze one chunk of blocks; returns (records, elapsed seconds).

    This is the unit of work every backend executes.  It is pure: the
    records depend only on *chunk*, never on shared mutable state, so a
    chunk can run in any process at any time with an identical result.
    """
    started = time.perf_counter()
    records = [_analyze_block(data_model, item) for item in chunk]
    return records, time.perf_counter() - started


def _analyze_chunk_recording(
    data_model: str, chunk: Sequence[BlockInput], record_obs: bool | str
) -> tuple[list[BlockRecord], float, list[dict] | None, None]:
    """The fan-out's chunk function over :func:`analyze_chunk`.

    Where a recording registry is reachable (thread workers under an
    instrumented parent) the per-block ``pipeline.blocks`` / ``tdg.*``
    instrumentation records straight into it.  Where none is (process
    workers) and the parent asked for recordings, the chunk runs under a
    private registry of the parent's policy — so a sketch-policy parent
    merges sketch dumps instead of re-inflating raw observations — and
    its lossless dump rides back.
    """
    if record_obs and not obs.get_registry().enabled:
        policy = record_obs if isinstance(record_obs, str) else "exact"
        registry = MetricsRegistry(policy=policy)
        with obs.scoped(obs.ObservabilityState(
            registry=registry, tracer=NOOP_TRACER
        )):
            records, elapsed = analyze_chunk(data_model, chunk)
        return records, elapsed, registry.dump(), None
    records, elapsed = analyze_chunk(data_model, chunk)
    return records, elapsed, None, None


def analyze_chain(
    source,
    *,
    data_model: str,
    name: str,
    start_year: float = 0.0,
    backend: str = DEFAULT_BACKEND,
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> ChainHistory:
    """Analyze a chain's blocks into a :class:`ChainHistory`, maybe in parallel.

    Args:
        source: a UTXO :class:`~repro.chain.ledger.Ledger` (or iterable
            of blocks), an iterable of ``(block, executed)`` pairs for
            account chains, or a pre-built :class:`BlockInput` list.
        data_model: ``"utxo"`` or ``"account"``.
        name: chain name for the history.
        start_year: calendar anchor, as in :class:`ChainHistory`.
        backend: ``"process"`` (default), ``"thread"`` or ``"serial"``.
        jobs: worker count; defaults to the CPU count (1 for serial).
        chunk_size: blocks per work unit; defaults to a balanced value
            (:data:`CHUNKS_PER_JOB` chunks per worker).

    Raises:
        ValueError: on an unknown backend / data model, ``jobs < 1`` or
            ``chunk_size < 1`` — mirroring the CLI's exit-2 contract.

    The returned history is identical for every (backend, jobs,
    chunk_size) combination; a process pool that cannot start degrades
    to the thread backend (counted in ``pipeline.parallel.fallbacks``).
    """
    if data_model not in DATA_MODELS:
        raise ValueError(f"unknown data model {data_model!r}")
    backend = validate_backend(backend)
    jobs = validate_jobs(jobs, backend=backend)
    inputs = coerce_block_inputs(source, data_model)
    chunk_size = validate_chunk_size(
        chunk_size, num_blocks=len(inputs), jobs=jobs
    )

    history = ChainHistory(
        name=name, data_model=data_model, start_year=start_year
    )
    with obs.trace_span("pipeline.chain", chain=name, model=data_model):
        if backend == "serial":
            # The reference walk: no chunks, no parallel.* family.
            for item in inputs:
                history.append(_analyze_block(data_model, item))
            return history
        for record in ordered_chunk_map(
            _analyze_chunk_recording, data_model, inputs,
            family="pipeline.parallel", lanes="pipeline",
            backend=backend, jobs=jobs, chunk_size=chunk_size,
        ):
            history.append(record)
    return history
