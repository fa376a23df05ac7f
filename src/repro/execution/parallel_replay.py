"""Parallel executor replay — fan per-block engine replay over workers.

Analysis walks a chain serially (:func:`repro.core.parallel.analyze_chain`);
the *execution* replay is what fans out, through
:func:`~repro.core.parallel.ordered_chunk_map`, whose one caller this
module is.  A chain's blocks are partitioned into contiguous chunks,
each chunk replays every requested engine (the eight of
:data:`ENGINES`) inside a worker, and the per-(block, engine)
:class:`BlockReplay` records are reassembled in height order — together
with two determinism digests per record, one SHA-256 each:

* ``state_root`` — one hash over every location's writers in commit
  order (the engine's commit stream sorted by clock, block position
  breaking ties), as (location, writer) pairs sorted by location.
  Every engine preserves block order among the writers of any single
  location — that is the serializable-equivalence contract the
  differential suite enforces — so all engines must produce
  byte-identical roots, and a block hashes one root per class of
  commit order (:class:`_BlockFold`), not one per engine.
* ``receipt_root`` — one hash over the canonical fields of the block's
  raw payload (receipts / transactions) in block order.  It is
  engine-independent by construction and exists to prove the
  *transport* (fork globals or per-chunk pickles) delivered the
  payload byte-exactly.

Both digests join plain strings with a separator checked absent from
every part (:func:`repro.chain.hashing.hash_parts`) and sort every set
first, so they are injective and independent of ``PYTHONHASHSEED``.

Backends, validation, chunking, transports and fallbacks are the
fan-out's (``serial`` / ``process``; see :mod:`repro.core.parallel`).
What is particular to replay is its chunk function,
:func:`replay_chunk`.  Records are built from the values an engine's
run hands back — its :class:`ExecutionReport`, whose schedule yields
the commit stream — on one path, whether or not anything records.
Every block replays under a PRIVATE observability scope
(:func:`repro.obs.scoped`), so a node's validators never touch the
global lifecycle traces.  Only when the parent is instrumented does a
chunk derive its reports' flight-recorder rows
(:func:`repro.execution.schedule.timeline_rows`); they ride back with
the chunk's registry dump and merge in submission (= height) order, so
``repro replay --out`` reads a fanned-out replay identically to a
serial one.  The node's :func:`replay_single_block` hands its caller
the block's report, whose rows cost nothing until read.  The
parent-side family is ``exec.replay.*``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.account.receipts import ExecutedTransaction
from repro.chain.hashing import hash_fields, hash_parts
from repro.core.parallel import (
    DATA_MODELS,
    DEFAULT_BACKEND,
    ordered_chunk_map,
    validate_backend,
    validate_chunk_size,
    validate_jobs,
)
from repro.execution.engine import (
    ExecutionReport,
    TxTask,
    require,
    tasks_from_account_block,
    tasks_from_utxo_block,
)
from repro.execution.registry import (
    ENGINES,
    BlockConflicts,
    run_engine,
    validate_engines,
)
from repro.execution.schedule import timeline_rows
from repro.obs import ObservabilityState
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.timeline import EventRow
from repro.utxo.transaction import UTXOTransaction

DEFAULT_CORES = 4


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayBlock:
    """Pure, picklable description of one block's replay input.

    ``tasks`` are the executor-ready :class:`TxTask` objects, ``payload``
    the raw transaction sequence the receipts root consumes, and
    ``predictions`` the block's statically predicted
    access sets (frozen
    :class:`~repro.staticcheck.predict.PredictedAccess` records) that
    feed the two prediction engines (``static-informed``,
    ``static-grouped``) — empty predictions degrade them soundly to
    sequential block order.  Nothing references shared
    ledger state, so a worker can replay the block in isolation.
    """

    height: int
    tasks: tuple[TxTask, ...]
    payload: tuple
    predictions: tuple = ()


def replay_block_inputs(
    profile, *, blocks: int, seed: int, scale: float = 1.0,
    predict: bool = True,
) -> list[ReplayBlock]:
    """Snapshot a seeded chain's blocks as replay inputs, from ONE build.

    With *predict* (the default) each block also carries its static
    access predictions; pass ``False`` to skip the analysis pass when
    no requested engine consumes predictions.  Account chains analyze
    the final code registry/bindings (contracts only ever *gain* code
    mid-chain, so the final closure is a sound over-approximation for
    every height); UTXO predictions are exact by construction.
    """
    # Imported here: repro.staticcheck.predict imports this package.
    from repro.staticcheck.interproc import ContractAnalyzer, code_bindings
    from repro.staticcheck.predict import predict_block, predict_utxo_block
    from repro.workload.account_workload import build_account_chain
    from repro.workload.utxo_workload import build_utxo_chain

    if profile.data_model == "utxo":
        ledger = build_utxo_chain(
            profile, num_blocks=blocks, seed=seed, scale=scale
        )
        return [
            ReplayBlock(
                height=block.height,
                tasks=tuple(tasks_from_utxo_block(block.transactions)),
                payload=tuple(block.transactions),
                predictions=(
                    tuple(predict_utxo_block(block.transactions))
                    if predict else ()
                ),
            )
            for block in ledger
        ]
    builder = build_account_chain(
        profile, num_blocks=blocks, seed=seed, scale=scale
    )
    analyzer = (
        ContractAnalyzer(builder.registry, code_bindings(builder.state))
        if predict else None
    )
    return [
        ReplayBlock(
            height=block.height,
            tasks=tuple(tasks_from_account_block(executed)),
            payload=tuple(executed),
            predictions=(
                tuple(predict_block([item.tx for item in executed], analyzer))
                if predict else ()
            ),
        )
        for block, executed in builder.executed_blocks
    ]


# -- determinism digests ------------------------------------------------------


def receipt_parts(item: object) -> list[str]:
    """The strings one payload item gives :func:`receipts_root`, in order.

    An account item gives its hash, success, gas used, internal calls,
    created contract and storage reads and writes; a UTXO item its hash,
    inputs, outputs and fee.  Every list is preceded by its length, so
    the parts parse back into the item, and the receipts' frozensets
    are sorted, so parent and spawned workers agree byte for byte under
    any ``PYTHONHASHSEED``.  A node screens a transaction with these
    same parts before it admits one or replays a block holding it
    (``Node._digestible``).

    Raises:
        TypeError: *item* is neither an executed account transaction
            nor a UTXO transaction.
    """
    if isinstance(item, ExecutedTransaction):
        receipt = item.receipt
        calls = receipt.internal_transactions
        parts = [
            "account-receipt", item.tx_hash, str(receipt.success),
            str(receipt.gas_used), receipt.created_contract,
            str(len(calls)),
        ]
        for call in calls:
            parts += (call.sender, call.receiver)
        for locations in (receipt.storage_reads, receipt.storage_writes):
            parts.append(str(len(locations)))
            for location in sorted(locations):
                parts += location
        return parts
    if isinstance(item, UTXOTransaction):
        parts = ["utxo-receipt", item.tx_hash, str(len(item.inputs))]
        for outpoint in item.inputs:
            parts += (outpoint.tx_hash, str(outpoint.index))
        parts.append(str(len(item.outputs)))
        for txo in item.outputs:
            parts += (str(txo.value), txo.owner, txo.script)
        parts.append(str(item.fee))
        return parts
    raise TypeError(f"cannot digest payload item of type {type(item)!r}")


def receipts_root(payload: Sequence) -> str:
    """One hash over every payload item's :func:`receipt_parts`, in
    block order.

    Raises:
        TypeError: an item is neither an executed account transaction
            nor a UTXO transaction.
    """
    parts = ["receipts-root"]
    for item in payload:
        parts += receipt_parts(item)
    return hash_parts(*parts)


def state_root(
    commit_order: Sequence[str],
    writes_by_hash: Mapping[str, Iterable[str]],
) -> str:
    """One hash over each location's writers in commit order.

    Each committed transaction is filed under every location it writes;
    the root hashes the (location, writer) pairs sorted by location —
    a stable sort, so every location keeps its writers in commit
    order.  It therefore depends on the *relative commit order of each
    location's writers* and on nothing else — exactly the serializable
    state a real engine would have produced.  This is the definition,
    for any order at all (partial, with repeats, with strangers);
    :class:`_BlockFold` is how a block's engines reach it.
    """
    links = [
        (location, tx_hash)
        for tx_hash in commit_order
        for location in writes_by_hash.get(tx_hash, ())
    ]
    links.sort(key=itemgetter(0))
    return hash_parts("state-root", *itertools.chain.from_iterable(links))


class _BlockFold:
    """:func:`state_root` of one block, hashed once per class of order.

    One pass files the block's writers under their locations.  Two
    commit orders that keep the writers of every location in the same
    order have the same root, so an order is classed by the contended
    locations (those with several writers) it took out of block order
    and the order it gave them, and each class is hashed once.  The
    memo is exact and goes with the block.
    """

    def __init__(self, tasks: Sequence[TxTask]) -> None:
        self._writes = {task.tx_hash: task.writes for task in tasks}
        self._block_order = list(range(len(tasks)))
        # A block that repeats a hash has no position per task to
        # speak of: every order of it takes the definition.
        self._distinct = len(self._writes) == len(tasks)
        writers: dict[str, list[int]] = {}
        for index, task in enumerate(tasks):
            for location in task.writes:
                writers.setdefault(location, []).append(index)
        self._contended = [
            (location, filed)
            for location, filed in writers.items() if len(filed) > 1
        ]
        self._roots: dict[tuple[tuple[str, tuple[int, ...]], ...], str] = {}

    def root(self, order: Sequence[str], positions: list[int]) -> str:
        """Root of commit *order*; ``positions[i]`` is the block
        position of ``order[i]``, or ``len(tasks)`` for a stranger."""
        if not self._distinct or sorted(positions) != self._block_order:
            # Not a permutation of the block: the definition itself.
            return state_root(order, self._writes)
        rank = [0] * len(positions)
        for at, index in enumerate(positions):
            rank[index] = at
        moved: list[tuple[str, tuple[int, ...]]] = []
        for location, filed in self._contended:
            previous = -1
            for index in filed:
                if rank[index] < previous:
                    moved.append((location, tuple(
                        sorted(filed, key=rank.__getitem__)
                    )))
                    break
                previous = rank[index]
        held = tuple(moved)
        root = self._roots.get(held)
        if root is None:
            root = self._roots[held] = state_root(order, self._writes)
        return root


# -- per-(block, engine) records ----------------------------------------------


@dataclass(frozen=True)
class BlockReplay:
    """One engine's replay of one block, reduced to a picklable record."""

    height: int
    engine: str
    wall_time: float
    total_work: float
    num_tasks: int
    aborts: int
    reexecuted: int
    rounds: int
    scheduled: int
    aborted: int
    retried: int
    committed: int
    commit_order: tuple[str, ...]
    state_root: str
    receipt_root: str

    @property
    def speedup(self) -> float:
        if self.wall_time == 0:
            return 1.0
        return self.total_work / self.wall_time


@dataclass(frozen=True)
class EngineSummary:
    """One engine's replay aggregated over a whole chain."""

    engine: str
    blocks: int
    tasks: int
    wall_time: float
    total_work: float
    aborts: int
    reexecuted: int
    scheduled: int
    aborted: int
    retried: int
    committed: int
    state_root: str
    receipt_root: str

    @property
    def speedup(self) -> float:
        if self.wall_time == 0:
            return 1.0
        return self.total_work / self.wall_time


@dataclass(frozen=True)
class ReplayResult:
    """Height-ordered replay records plus per-engine aggregation."""

    engines: tuple[str, ...]
    records: tuple[BlockReplay, ...]

    def for_engine(self, engine: str) -> list[BlockReplay]:
        return [r for r in self.records if r.engine == engine]

    def summary(self, engine: str) -> EngineSummary:
        rows = self.for_engine(engine)
        return EngineSummary(
            engine=engine,
            blocks=len(rows),
            tasks=sum(r.num_tasks for r in rows),
            wall_time=sum(r.wall_time for r in rows),
            total_work=sum(r.total_work for r in rows),
            aborts=sum(r.aborts for r in rows),
            reexecuted=sum(r.reexecuted for r in rows),
            scheduled=sum(r.scheduled for r in rows),
            aborted=sum(r.aborted for r in rows),
            retried=sum(r.retried for r in rows),
            committed=sum(r.committed for r in rows),
            state_root=hash_fields(
                "chain-state-root",
                tuple((r.height, r.state_root) for r in rows),
            ),
            receipt_root=hash_fields(
                "chain-receipt-root",
                tuple((r.height, r.receipt_root) for r in rows),
            ),
        )

    def summaries(self) -> list[EngineSummary]:
        return [self.summary(engine) for engine in self.engines]


# -- worker-side replay -------------------------------------------------------


def _block_records(
    block: ReplayBlock,
    engines: Sequence[str],
    reports: Sequence[ExecutionReport],
) -> list[BlockReplay]:
    """One record per engine, from the value its run handed back.

    ``scheduled`` is the report's task count, ``aborted`` / ``retried``
    its aborts and re-executions, and the commit order its commit
    stream sorted by clock with block position breaking ties — what
    the ``schedule`` / ``abort`` / ``retry`` / ``commit`` rows of the
    same schedule reduce to (``tests/execution/test_replay_values.py``
    holds the two together).  The engines share one :class:`_BlockFold`,
    dropped on return.
    """
    position = {task.tx_hash: i for i, task in enumerate(block.tasks)}
    unknown = len(block.tasks)
    receipt_root = receipts_root(block.payload)
    fold = _BlockFold(block.tasks)
    records: list[BlockReplay] = []
    for engine, report in zip(engines, reports):
        commits = sorted(
            (clock, position.get(tx_hash, unknown), tx_hash)
            for clock, tx_hash in report.commits
        )
        order = tuple(tx_hash for _clock, _index, tx_hash in commits)
        records.append(BlockReplay(
            height=block.height,
            engine=engine,
            wall_time=report.wall_time,
            total_work=report.total_work,
            num_tasks=report.num_tasks,
            aborts=report.aborts,
            reexecuted=report.reexecuted,
            rounds=report.rounds,
            scheduled=report.num_tasks,
            aborted=report.aborts,
            retried=report.reexecuted,
            committed=len(order),
            commit_order=order,
            state_root=fold.root(
                order, [index for _clock, index, _hash in commits]
            ),
            receipt_root=receipt_root,
        ))
    return records


def _run_block(
    block: ReplayBlock, engines: Sequence[str], cores: int
) -> list[ExecutionReport]:
    """Run one block through *engines*, sharing one
    :class:`BlockConflicts`, dropped on return.  The caller owns the
    observability scope."""
    conflicts = BlockConflicts(block)
    return [
        run_engine(engine, block, cores, conflicts) for engine in engines
    ]


def replay_single_block(
    data_model: str,
    block: ReplayBlock,
    engine: str,
    cores: int,
    *,
    registry: MetricsRegistry | None = None,
) -> tuple[BlockReplay, ExecutionReport]:
    """Replay one block through one engine; return record + report.

    The node runtime's validation path calls this once per received
    block: same private-scope contract as a fanned-out chunk, but it
    returns the single :class:`BlockReplay` together with the engine's
    :class:`ExecutionReport`.  A caller that stitches lifecycle traces
    or profiles lane utilization derives the rows from the report
    (:func:`~repro.execution.schedule.timeline_rows`) and pays for them
    then; a caller that does not pays nothing.

    Raises:
        ValueError: unknown data model / engine, or cores < 1.
    """
    if data_model not in DATA_MODELS:
        raise ValueError(
            f"unknown data model {data_model!r}; expected one of: "
            + ", ".join(DATA_MODELS)
        )
    validate_engines((engine,))
    require(cores)
    scope = ObservabilityState(
        registry=registry if registry is not None else NOOP_REGISTRY
    )
    with obs.scoped(scope):
        reports = _run_block(block, (engine,), cores)
    (record,) = _block_records(block, (engine,), reports)
    return record, reports[0]


def replay_chunk(
    params: tuple[Sequence[str], int],
    chunk: Sequence[ReplayBlock],
    record_obs: bool,
) -> tuple[list[BlockReplay], float, list[dict] | None,
           list[EventRow] | None]:
    """Replay one chunk of blocks; the fan-out's chunk function.

    *params* is ``(engines, cores)``.  Returns ``(records,
    elapsed seconds, registry dump, event rows)`` — the last two
    ``None`` unless *record_obs* asked for them, and only then is a row
    built; digests are carried by the records themselves either way.
    Pure in *chunk*.
    """
    engines, cores = params
    registry = MetricsRegistry() if record_obs else NOOP_REGISTRY
    rows: list[EventRow] | None = [] if record_obs else None
    records: list[BlockReplay] = []
    started = time.perf_counter()
    with obs.scoped(ObservabilityState(registry=registry)):
        for block in chunk:
            reports = _run_block(block, engines, cores)
            records += _block_records(block, engines, reports)
            if rows is not None:
                for report in reports:
                    rows += timeline_rows(report, block.height)
    elapsed = time.perf_counter() - started
    return records, elapsed, registry.dump() if record_obs else None, rows


# -- the fan-out --------------------------------------------------------------


def replay_chain(
    source,
    *,
    data_model: str,
    engines: Sequence[str] = ENGINES,
    cores: int = DEFAULT_CORES,
    backend: str = DEFAULT_BACKEND,
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> ReplayResult:
    """Replay a chain's blocks through *engines*, maybe in parallel.

    Args:
        source: the blocks' :class:`ReplayBlock` inputs, in any
            iterable.
        data_model: ``"utxo"`` or ``"account"``; checked, not read —
            every engine runs the blocks' tasks.
        engines: engine names from :data:`ENGINES`, order preserved.
        cores: simulated core count handed to each engine.
        backend: ``"process"`` (default) or ``"serial"``.
        jobs: worker count; defaults to the usable CPU count (1 for
            serial).
        chunk_size: blocks per work unit; defaults to a balanced value.

    Raises:
        ValueError: unknown backend / data model / engine, ``jobs < 1``,
            ``chunk_size < 1`` or ``cores < 1`` (the CLI's exit-2 class).

    The returned records — commit orders, state roots, receipt roots,
    event counts — are identical for every (backend, jobs, chunk_size)
    combination; the differential suite enforces it.  A process pool
    that cannot start degrades to the serial collection (counted in
    ``exec.replay.fallbacks``).
    """
    if data_model not in DATA_MODELS:
        raise ValueError(f"unknown data model {data_model!r}")
    engines = validate_engines(engines)
    require(cores)
    backend = validate_backend(backend)
    jobs = validate_jobs(jobs, backend=backend)
    inputs = list(source)
    chunk_size = validate_chunk_size(
        chunk_size, num_blocks=len(inputs), jobs=jobs
    )
    records = ordered_chunk_map(
        replay_chunk, (engines, cores), inputs, family="exec.replay",
        backend=backend, jobs=jobs, chunk_size=chunk_size,
    )
    ordered = sorted(records, key=lambda r: (r.height, engines.index(r.engine)))
    return ReplayResult(engines=engines, records=tuple(ordered))


__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_CORES",
    "ENGINES",
    "BlockReplay",
    "EngineSummary",
    "ReplayBlock",
    "ReplayResult",
    "receipt_parts",
    "receipts_root",
    "replay_block_inputs",
    "replay_chain",
    "replay_chunk",
    "replay_single_block",
    "state_root",
    "validate_engines",
]
