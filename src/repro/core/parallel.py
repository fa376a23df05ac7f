"""Ordered chunk fan-out, and the serial block-analysis walk.

The paper's per-block work — TDG construction plus the conflict metrics
of Figs. 4-9, and equally an executor replay of the block — reads only
that block's transactions and touches no shared ledger state.

* :func:`ordered_chunk_map` is the repo's ONE fan-out.  It splits a
  sequence of pure items into contiguous chunks, runs a module-level
  chunk function over each chunk on the chosen backend, and returns the
  per-chunk records concatenated in submission (= height) order.  It
  owns start-method selection, the publication of the run to workers,
  the worker initialiser, the pool, the process→serial fallback, and
  the ordered collection that merges worker observability back into
  the parent.  Its caller is
  :func:`repro.execution.parallel_replay.replay_chain`.
* :func:`analyze_chain` walks a chain's blocks in order through
  :func:`repro.core.pipeline.analyze_utxo_block` /
  :func:`~repro.core.pipeline.analyze_account_block` into a
  :class:`~repro.core.pipeline.ChainHistory`.  It runs in-process:
  at about 2 µs per transaction a process pool costs more than the
  analysis it spreads (``docs/parallel_pipeline.md``).

Backends of the fan-out (what each buys is measured in
``docs/parallel_pipeline.md``):

* ``"process"`` (the parallel default) — a
  :class:`concurrent.futures.ProcessPoolExecutor` under the configured
  multiprocessing start method, fork where none is configured.  Under
  fork the run (chunk function, parameters, items) is a module global
  the workers inherit, and only ``(start, stop)`` pairs travel per
  chunk; under any other start method each chunk ships its own slice.
  A pool that cannot start (sandboxes without ``sem_open``) falls back
  to the serial collection, counted in ``<family>.fallbacks``.
* ``"serial"`` — in-process, chunk by chunk.

Determinism contract: per-item work is pure, chunking only changes
*where* an item is processed, and collection is by chunk index — so the
output is identical regardless of backend, worker count, or chunk size.
``tests/core/test_parallel.py`` and
``tests/execution/test_differential.py`` enforce this.

Observability, recorded in the parent under the caller's metric family
(``exec.replay``; see ``docs/parallel_pipeline.md``): counters
``.runs`` / ``.chunks`` / ``.blocks`` / ``.fallbacks`` and gauge
``.jobs``, labelled by backend, and histogram ``.chunk_seconds`` (the
in-worker wall time per chunk).  Whatever a chunk function records
privately — a registry dump, flight-recorder rows — rides back with its
result and is merged at join, so metric totals and event streams match
a serial walk for every backend.
"""

from __future__ import annotations

import multiprocessing
import os
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

BACKENDS = ("serial", "process")
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
    """Resolve *jobs* (None -> usable CPUs; serial -> 1) or raise ValueError.

    The default counts the CPUs this process may run on (its affinity
    set), not the machine's: a run pinned to one core gets one worker.
    """
    if jobs is None:
        if backend == "serial":
            return 1
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
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
# ``chunk_fn(params, chunk, record_obs)`` where ``record_obs`` asks the
# chunk to record privately and hand the recordings back.
ChunkFn = Callable[
    [object, Sequence, bool],
    "tuple[list, float, list[dict] | None, list | None]",
]


class ChunkResult(NamedTuple):
    """What a worker ships back for one chunk.

    ``obs_dump`` (see :meth:`repro.obs.metrics.MetricsRegistry.dump`)
    and ``rows`` are the chunk function's private recordings, ``None``
    when it made none.
    """

    records: list
    elapsed: float
    obs_dump: list[dict] | None
    rows: list | None


# Fork transport: the run — (chunk_fn, params, items) — published in
# the parent immediately before the pool starts, inherited through
# fork, cleared after.  Item payloads never enter a request pickle;
# only (start, stop) pairs go down and only records come back.
_FORK_RUN: tuple | None = None


def _worker_init() -> None:
    """Process-pool worker initializer.

    ``gc.freeze()`` moves the heap inherited through fork into the
    permanent generation, so the worker's cyclic GC never traverses the
    parent's (potentially millions of) chain objects.  It does not keep
    those pages shared: the worker's first reference-count write to an
    inherited object still copies its page, GC frozen or not.

    ``obs.uninstall()`` drops any recording state inherited from an
    instrumented parent: recording into it would be invisible to
    the parent anyway (the fork copy dies with the worker).  When the
    parent *is* instrumented it instead asks each chunk to record
    privately (``record_obs``) and merges what rides back at join.
    """
    import gc

    gc.freeze()
    obs.uninstall()


def _run_chunk(
    chunk_fn: ChunkFn, params: object, chunk: Sequence,
    record_obs: bool,
) -> ChunkResult:
    """Run one chunk where it stands; the per-chunk-slice entry."""
    return ChunkResult(*chunk_fn(params, chunk, record_obs))


def _chunk_from_fork(
    start: int, stop: int, record_obs: bool
) -> ChunkResult:
    """Fork-transport entry: slice the inherited run by index."""
    chunk_fn, params, items = _FORK_RUN
    return _run_chunk(chunk_fn, params, items[start:stop], record_obs)


# -- the ordered chunk fan-out: parent side -----------------------------------


def _collect_ordered(
    resolvers: Iterable[Callable[[], ChunkResult]],
    *,
    family: str,
    backend: str,
) -> list:
    """Gather chunk results in submission (= height) order, merging obs.

    Joins the observability streams in the parent: the per-chunk
    histogram, worker registry dumps (merged into the installed
    registry, closing the process-backend blind spot) and worker rows
    (appended chunk by chunk to the state's event rows, so they read
    as a serial run's regardless of which worker finished first).
    """
    seconds = obs.histogram(f"{family}.chunk_seconds", backend=backend)
    registry = obs.get_registry()
    rows = obs.event_rows()
    records: list = []
    for resolve in resolvers:
        result = resolve()
        seconds.observe(result.elapsed)
        if result.obs_dump is not None:
            registry.merge_dump(result.obs_dump)
        if result.rows is not None:
            rows += result.rows
        records.extend(result.records)
    return records


def _run_process_pool(
    run: tuple,
    bounds: Sequence[tuple[int, int]],
    jobs: int,
    record_obs: bool,
    collect: Callable[..., list],
) -> list:
    """Fan chunks over a process pool: fork-inherited run, else slices."""
    global _FORK_RUN
    # Lazy import: keeps the serial path usable even where the
    # multiprocessing primitives are unavailable (the caller catches the
    # failure and falls back).
    from concurrent.futures import ProcessPoolExecutor

    # Honour an explicitly configured start method (the spawn CI shard
    # sets one); otherwise prefer fork where the platform offers it.
    method = multiprocessing.get_start_method(allow_none=True)
    if method is None and "fork" in multiprocessing.get_all_start_methods():
        method = "fork"
    context = multiprocessing.get_context(method)
    forked = context.get_start_method() == "fork"

    def job(start: int, stop: int) -> tuple:
        if forked:
            return _chunk_from_fork, start, stop, record_obs
        chunk_fn, params, items = run
        return _run_chunk, chunk_fn, params, items[start:stop], record_obs

    try:
        if forked:
            _FORK_RUN = run
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


def ordered_chunk_map(
    chunk_fn: ChunkFn,
    params: object,
    items: Sequence,
    *,
    family: str,
    backend: str,
    jobs: int,
    chunk_size: int,
) -> list:
    """Run *chunk_fn* over contiguous chunks of *items*; records in order.

    Args:
        chunk_fn: a module-level (picklable by reference) function
            ``(params, chunk, record_obs) -> (records, elapsed,
            obs_dump, rows)``; it must be pure in *chunk*.
        params: the small picklable per-run parameters every chunk
            shares.
        items: the sliceable sequence of pure, picklable work items.
        family: metric family (``"exec.replay"``).
        backend / jobs / chunk_size: already validated
            (:func:`validate_backend` / :func:`validate_jobs` /
            :func:`validate_chunk_size`).

    The concatenated records are identical for every (backend, jobs,
    chunk_size); a process pool that cannot start degrades to the
    serial collection (counted in ``<family>.fallbacks``).  An
    exception raised by *chunk_fn* propagates, after the published run
    is withdrawn.
    """
    bounds = chunk_bounds(len(items), chunk_size)
    # Workers start with obs uninstalled (_worker_init); when the parent
    # is instrumented, ask each chunk to record privately.
    record_obs = obs.get_registry().enabled
    collect = partial(_collect_ordered, family=family)
    obs.counter(f"{family}.runs", backend=backend).inc()
    obs.counter(f"{family}.chunks", backend=backend).inc(len(bounds))
    obs.counter(f"{family}.blocks", backend=backend).inc(len(items))
    obs.gauge(f"{family}.jobs", backend=backend).set(jobs)
    if backend == "process":
        try:
            return _run_process_pool(
                (chunk_fn, params, items), bounds, jobs, record_obs,
                collect,
            )
        except (ImportError, NotImplementedError, OSError):
            # Sandboxes without sem_open / fork; chunk purity makes
            # the in-process retry safe.
            obs.counter(f"{family}.fallbacks", backend="process").inc()
    return collect(
        (
            partial(_run_chunk, chunk_fn, params, items[start:stop],
                    record_obs)
            for start, stop in bounds
        ),
        backend="serial",
    )


# -- block analysis -----------------------------------------------------------


def _analyze_block(data_model: str, item: BlockInput) -> BlockRecord:
    # The two per-block entry points are looked up in this module's
    # globals on every call, so a caller may patch them here.
    if data_model == "utxo":
        record, _tdg = analyze_utxo_block(
            item.payload, height=item.height, timestamp=item.timestamp
        )
    else:
        record, _tdg = analyze_account_block(
            item.payload, height=item.height, timestamp=item.timestamp
        )
    return record


def analyze_chain(
    source,
    *,
    data_model: str,
    name: str,
    start_year: float = 0.0,
    backend: str = "serial",
) -> ChainHistory:
    """Analyze a chain's blocks, in height order, into a :class:`ChainHistory`.

    Args:
        source: a UTXO :class:`~repro.chain.ledger.Ledger` (or iterable
            of blocks), an iterable of ``(block, executed)`` pairs for
            account chains, or a pre-built :class:`BlockInput` list.
        data_model: ``"utxo"`` or ``"account"``.
        name: chain name for the history.
        start_year: calendar anchor, as in :class:`ChainHistory`.
        backend: ``"serial"``, the only analysis backend.  The keyword
            stays for callers that still name it, and goes with the next
            change to the end-to-end benchmark, whose ``batch.py`` does.

    Raises:
        ValueError: on an unknown data model or any other backend.
    """
    if data_model not in DATA_MODELS:
        raise ValueError(f"unknown data model {data_model!r}")
    if backend != "serial":
        raise ValueError(
            f"analysis runs serially: backend must be 'serial', "
            f"got {backend!r}"
        )
    history = ChainHistory(
        name=name, data_model=data_model, start_year=start_year
    )
    for item in coerce_block_inputs(source, data_model):
        history.append(_analyze_block(data_model, item))
    return history
