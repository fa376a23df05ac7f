"""Parallel executor replay — fan per-block engine replay over workers.

:func:`repro.core.parallel.analyze_chain` fans the *analysis* pipeline
(TDG + metrics) across blocks; this module is the second caller of the
same :func:`~repro.core.parallel.ordered_chunk_map`, for the
*execution* replay itself.  A chain's blocks are partitioned into
contiguous chunks, each chunk replays every requested engine (the eight
of :data:`ENGINES`) inside a worker, and the per-(block, engine)
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
  *transport* (fork globals, shared memory, explicit pickles)
  delivered the payload byte-exactly.

Both digests join plain strings with a separator checked absent from
every part (:func:`repro.chain.hashing.hash_parts`) and sort every set
first, so they are injective and independent of ``PYTHONHASHSEED``.

Backends, validation, chunking, transports and fallbacks are the
fan-out's (``serial`` / ``thread`` / ``process``; see
:mod:`repro.core.parallel`).  What is particular to replay is its chunk
function, :func:`replay_chunk`.  Records are built from the values an
engine's run hands back — its :class:`ExecutionReport`, commit stream
included — on one path, whether or not anything records; the flight
recorder is a by-product nobody here reads.  Every block replays under
a PRIVATE per-thread observability scope (:func:`repro.obs.scoped`):
with an uninstrumented parent its recorder is the no-op one, so no row
is ever built; when the parent *is* instrumented, a real recorder
collects the engines' deferred rows, the chunk expands them once on the
way out, and they ride back with the chunk's registry dump and merge in
submission (= height) order, so ``repro.cli timeline`` / ``regress``
read a fanned-out replay identically to a serial one.  The node's
:func:`replay_single_block` hands its caller the block's recorder
unexpanded.  The parent-side family is ``exec.replay.*`` with chunk
lanes on ``replay.<backend>``.
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
from repro.obs import ObservabilityState
from repro.obs.lifecycle import NOOP_LIFECYCLE
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.timeline import NOOP_RECORDER, EventRow, FlightRecorder
from repro.obs.tracer import NOOP_TRACER
from repro.utxo.transaction import UTXOTransaction

DEFAULT_CORES = 4
DEFAULT_BACKEND = "process"

DATA_MODELS = ("utxo", "account")


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayBlock:
    """Pure, picklable description of one block's replay input.

    ``tasks`` are the executor-ready :class:`TxTask` objects, ``payload``
    the raw transaction sequence the DAG engine and the receipts root
    consume, and ``predictions`` the block's statically predicted
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


def coerce_replay_inputs(source) -> list[ReplayBlock]:
    """Accept a ReplayBlock list or (height, tasks, payload) triples."""
    out: list[ReplayBlock] = []
    for item in source:
        if isinstance(item, ReplayBlock):
            out.append(item)
        else:
            height, tasks, payload = item
            out.append(ReplayBlock(
                height=height, tasks=tuple(tasks), payload=tuple(payload),
            ))
    return out


# -- determinism digests ------------------------------------------------------


def receipts_root(payload: Sequence) -> str:
    """One hash over every payload item's canonical fields, in block order.

    An account item gives its hash, success, gas used, internal calls,
    created contract and storage reads and writes; a UTXO item its hash,
    inputs, outputs and fee.  Every list is preceded by its length, so
    the parts parse back into the items, and the receipts' frozensets
    are sorted, so parent and spawned workers agree byte for byte under
    any ``PYTHONHASHSEED``.

    Raises:
        TypeError: an item is neither an executed account transaction
            nor a UTXO transaction.
    """
    parts = ["receipts-root"]
    for item in payload:
        if isinstance(item, ExecutedTransaction):
            receipt = item.receipt
            calls = receipt.internal_transactions
            reads = sorted(receipt.storage_reads)
            writes = sorted(receipt.storage_writes)
            parts += (
                "account-receipt", item.tx_hash, str(receipt.success),
                str(receipt.gas_used), receipt.created_contract,
                str(len(calls)),
            )
            for call in calls:
                parts += (call.sender, call.receiver)
            parts.append(str(len(reads)))
            parts += itertools.chain.from_iterable(reads)
            parts.append(str(len(writes)))
            parts += itertools.chain.from_iterable(writes)
        elif isinstance(item, UTXOTransaction):
            parts += ("utxo-receipt", item.tx_hash, str(len(item.inputs)))
            for outpoint in item.inputs:
                parts += (outpoint.tx_hash, str(outpoint.index))
            parts.append(str(len(item.outputs)))
            for txo in item.outputs:
                parts += (str(txo.value), txo.owner, txo.script)
            parts.append(str(item.fee))
        else:
            raise TypeError(
                f"cannot digest payload item of type {type(item)!r}"
            )
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
    same run reduce to (``tests/execution/test_replay_values.py`` holds
    the two together).  The engines share one :class:`_BlockFold`,
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


def _replay_block(
    data_model: str,
    block: ReplayBlock,
    engines: Sequence[str],
    cores: int,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
) -> list[BlockReplay]:
    """Replay one block through *engines*; one record per engine.

    The engines run under a private scope (per thread, via
    :func:`repro.obs.scoped`), so concurrent chunks on the thread
    backend cannot interleave events and a node's validators never
    touch the global traces (NOOP tracer/lifecycle); *recorder* keeps
    whatever rows they defer, for the caller to expand or not.  They
    share one :class:`BlockConflicts`, dropped on return.
    """
    scope = ObservabilityState(
        registry=registry, tracer=NOOP_TRACER, recorder=recorder,
        lifecycle=NOOP_LIFECYCLE,
    )
    conflicts = BlockConflicts(block)
    with obs.scoped(scope), recorder.block(block.height):
        reports = [
            run_engine(engine, data_model, block, cores, conflicts)
            for engine in engines
        ]
    return _block_records(block, engines, reports)


def replay_single_block(
    data_model: str,
    block: ReplayBlock,
    engine: str,
    cores: int,
    *,
    registry: MetricsRegistry | None = None,
) -> tuple[BlockReplay, FlightRecorder]:
    """Replay one block through one engine; return record + recorder.

    The node runtime's validation path calls this once per received
    block: same private-scope contract as a fanned-out chunk, but it
    returns the single :class:`BlockReplay` together with the block's
    own :class:`~repro.obs.timeline.FlightRecorder`.  The recorder
    holds the run's rows deferred; a caller that stitches lifecycle
    traces or profiles lane utilization reads ``recorder.events()``
    and pays for the expansion then, a caller that does not pays
    nothing.

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
    recorder = FlightRecorder()
    (record,) = _replay_block(
        data_model, block, (engine,), cores,
        registry if registry is not None else NOOP_REGISTRY, recorder,
    )
    return record, recorder


def replay_chunk(
    params: tuple[str, Sequence[str], int],
    chunk: Sequence[ReplayBlock],
    record_obs: bool | str,
) -> tuple[list[BlockReplay], float, list[dict] | None,
           list[EventRow] | None]:
    """Replay one chunk of blocks; the fan-out's chunk function.

    *params* is ``(data_model, engines, cores)``.  Returns ``(records,
    elapsed seconds, registry dump, recorder rows)`` — the last two
    ``None`` unless *record_obs* (falsy, or the parent registry's
    policy string) asked for them, and only then is a row built;
    digests are carried by the records themselves either way.  Pure in
    *chunk*.
    """
    data_model, engines, cores = params
    if record_obs:
        policy = record_obs if isinstance(record_obs, str) else "exact"
        registry = MetricsRegistry(policy=policy)
        recorder = FlightRecorder()
    else:
        registry = NOOP_REGISTRY
        recorder = NOOP_RECORDER
    records: list[BlockReplay] = []
    started = time.perf_counter()
    for block in chunk:
        records.extend(_replay_block(
            data_model, block, engines, cores, registry, recorder
        ))
    rows = recorder.dump_rows() if record_obs else None
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
        source: a :class:`ReplayBlock` list or an iterable of
            ``(height, tasks, payload)`` triples (what
            :func:`repro.obs.regress.chain_task_blocks` yields).
        data_model: ``"utxo"`` or ``"account"``.
        engines: engine names from :data:`ENGINES`, order preserved.
        cores: simulated core count handed to each engine.
        backend: ``"process"`` (default), ``"thread"`` or ``"serial"``.
        jobs: worker count; defaults to the CPU count (1 for serial).
        chunk_size: blocks per work unit; defaults to a balanced value.

    Raises:
        ValueError: unknown backend / data model / engine, ``jobs < 1``,
            ``chunk_size < 1`` or ``cores < 1`` (the CLI's exit-2 class).

    The returned records — commit orders, state roots, receipt roots,
    event counts — are identical for every (backend, jobs, chunk_size)
    combination; the differential suite enforces it.  A process pool
    that cannot start degrades to the thread backend (counted in
    ``exec.replay.fallbacks``).
    """
    if data_model not in DATA_MODELS:
        raise ValueError(f"unknown data model {data_model!r}")
    engines = validate_engines(engines)
    require(cores)
    backend = validate_backend(backend)
    jobs = validate_jobs(jobs, backend=backend)
    inputs = coerce_replay_inputs(source)
    chunk_size = validate_chunk_size(
        chunk_size, num_blocks=len(inputs), jobs=jobs
    )
    records = ordered_chunk_map(
        replay_chunk, (data_model, engines, cores), inputs,
        family="exec.replay", lanes="replay",
        backend=backend, jobs=jobs, chunk_size=chunk_size,
        engines=len(engines),
    )
    ordered = sorted(records, key=lambda r: (r.height, engines.index(r.engine)))
    return ReplayResult(engines=engines, records=tuple(ordered))


def replay_profile(
    chain,
    *,
    blocks: int,
    seed: int,
    scale: float = 1.0,
    engines: Sequence[str] = ENGINES,
    cores: int = DEFAULT_CORES,
    backend: str = DEFAULT_BACKEND,
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> ReplayResult:
    """Build a seeded chain by profile (name or object) and replay it."""
    if isinstance(chain, str):
        from repro.workload.profiles import PROFILES_BY_NAME

        try:
            profile = PROFILES_BY_NAME[chain]
        except KeyError:
            known = ", ".join(sorted(PROFILES_BY_NAME))
            raise ValueError(
                f"unknown chain {chain!r}; known chains: {known}"
            ) from None
    else:
        profile = chain
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    inputs = replay_block_inputs(
        profile, blocks=blocks, seed=seed, scale=scale
    )
    return replay_chain(
        inputs,
        data_model=profile.data_model,
        engines=engines,
        cores=cores,
        backend=backend,
        jobs=jobs,
        chunk_size=chunk_size,
    )


__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_CORES",
    "ENGINES",
    "BlockReplay",
    "EngineSummary",
    "ReplayBlock",
    "ReplayResult",
    "coerce_replay_inputs",
    "receipts_root",
    "replay_block_inputs",
    "replay_chain",
    "replay_chunk",
    "replay_profile",
    "replay_single_block",
    "state_root",
    "validate_engines",
]
