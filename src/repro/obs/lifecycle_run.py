"""End-to-end lifecycle pipeline: mempool → gossip → consensus → execute.

:func:`run_lifecycle` drives one seeded chain workload through the
*whole* transaction pipeline so every stage of the lifecycle vocabulary
(:mod:`repro.obs.lifecycle`) actually fires:

1. each block's transactions are admitted to a fee-market
   :class:`~repro.mempool.pool.Mempool` with staggered arrival times
   (minting the ``admitted`` root spans, and ``dropped`` closures when
   a capacity-bounded pool evicts);
2. the pending set floods a gossip topology
   (:class:`~repro.network.gossip.GossipNetwork`), producing per-hop
   ``relayed`` events and a ``propagated`` mark at full coverage;
3. sharded profiles dispatch each transaction to its committee
   (``assigned``);
4. the miner packs a block (``included``) and a consensus round runs —
   a PBFT committee for sharded chains, a PoW interval draw otherwise
   (``consensus``);
5. the block replays through one of the simulated executors under the
   flight recorder, and :func:`~repro.obs.lifecycle.stitch_execution_events`
   folds the recorded ``schedule``/``abort``/``retry``/``commit``
   events into the traces (``scheduled``/``aborted``/``retried``/
   ``committed``), closing each one.

All timing is simulated seconds on the lifecycle tracer's clock: block
intervals come from the chain profile, gossip latencies from the
topology, consensus from the round model, and execution from the
executor's logical clock scaled by ``cost_unit_seconds``.  The run is
fully deterministic under a fixed seed — the regress gate snapshots it
— and it degrades to a cheap plain run when observability is disabled
(the bench measures exactly that delta).

Like :mod:`repro.obs.critical_path` and :mod:`repro.obs.regress`, this
module imports the execution/workload layers and must never be imported
from ``repro.obs.__init__``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.execution.parallel_replay import ReplayBlock, replay_block_inputs
from repro.execution.registry import run_engine, validate_engines
from repro.mempool.pool import Mempool, PoolEntry
from repro.network.gossip import GossipNetwork
from repro.obs.critical_path import profile_events
from repro.obs.lifecycle import (
    StageStats,
    StitchedTrace,
    join_shard_traces,
    shard_subtrace_id,
    stage_breakdown,
    stitch_execution_events,
)
from repro.obs.monitor import BlockSample

DEFAULT_NODES = 24
DEFAULT_COST_UNIT_SECONDS = 0.001
DEFAULT_VALIDATION_DELAY = 0.05
PBFT_COMMITTEE_SIZE = 7


@dataclass(frozen=True)
class LifecycleRunResult:
    """Everything one pipeline run produced, ready for reporting."""

    chain: str
    executor: str
    blocks: int
    admitted: int
    committed: int
    dropped: int
    traces: tuple[StitchedTrace, ...]

    @property
    def closed(self) -> int:
        return self.committed + self.dropped

    @property
    def open(self) -> int:
        return len(self.traces) - self.closed

    def breakdown(self) -> dict[str, StageStats]:
        return stage_breakdown(self.traces)


def run_lifecycle(
    profile,
    *,
    blocks: int,
    seed: int,
    cores: int,
    executor: str = "dag",
    scale: float = 1.0,
    nodes: int = DEFAULT_NODES,
    mempool_weight: int | None = None,
    cost_unit_seconds: float = DEFAULT_COST_UNIT_SECONDS,
    validation_delay: float = DEFAULT_VALIDATION_DELAY,
    on_block: Callable[[BlockSample], None] | None = None,
) -> LifecycleRunResult:
    """Run *profile*'s seeded workload through the full pipeline.

    Args:
        profile: a :class:`~repro.workload.profiles.ChainProfile`.
        blocks: number of blocks to generate and commit.
        seed: workload + pipeline randomness seed (deterministic).
        cores: simulated cores for the execution engine.
        executor: engine name (one of
            :data:`repro.execution.registry.ENGINES`).
        scale: workload scale factor passed to the chain builder.
        nodes: gossip topology size.
        mempool_weight: pool capacity; ``None`` sizes the pool to never
            evict, an explicit small cap forces ``dropped`` traces.
        cost_unit_seconds: simulated seconds per execution cost unit.
        validation_delay: per-hop block validation delay (seconds).
        on_block: optional streaming hook — called with one
            :class:`~repro.obs.monitor.BlockSample` after each executed
            block, so a :class:`~repro.obs.monitor.StreamingMonitor`
            can watch the run without holding the whole trace.

    Raises:
        ValueError: unknown executor name or non-positive parameters
            (the CLI maps these to exit 2).
    """
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if cores < 1:
        raise ValueError("cores must be at least 1")
    if nodes < 2:
        raise ValueError("nodes must be at least 2")
    if cost_unit_seconds <= 0:
        raise ValueError("cost_unit_seconds must be positive")
    if mempool_weight is not None and mempool_weight < 1:
        raise ValueError("mempool_weight must be positive")
    validate_engines((executor,))

    rng = random.Random(seed)
    network = GossipNetwork.random_topology(
        nodes, rng=random.Random(seed)
    )
    origin = "n0"
    pbft = None
    if profile.num_shards > 0:
        from repro.consensus.pbft import PBFTCommittee

        pbft = PBFTCommittee(
            size=PBFT_COMMITTEE_SIZE, rng=random.Random(seed)
        )

    life = obs.lifecycle()
    recorder = obs.get_recorder()
    pool: Mempool = Mempool(
        max_weight=mempool_weight if mempool_weight is not None
        else 2 ** 62,
        min_fee_rate=1.0,
    )

    admitted = 0
    executed_hashes: set[str] = set()
    closed_seen = 0
    shard_subs: dict[str, tuple[str, ...]] = {}
    with obs.trace_span(
        "lifecycle.run", chain=profile.name, executor=executor
    ):
        for block in replay_block_inputs(
            profile, blocks=blocks, seed=seed, scale=scale, predict=False
        ):
            height, tasks = block.height, block.tasks
            if not tasks:
                continue
            block_started = time.perf_counter()
            sim_started = life.clock
            # 1. Admission: transactions arrive spread across the block
            # interval, each minting its lifecycle root span.
            step = profile.block_interval / max(1, len(tasks))
            for task in tasks:
                life.advance(step)
                weight = max(1, round(task.cost))
                fee = int(weight * (1.0 + 4.0 * rng.random())) + weight
                pool.submit(PoolEntry(
                    tx_hash=task.tx_hash, fee=fee, weight=weight,
                    payload=task,
                ))
                admitted += 1

            pending = pool.entries_by_fee_rate()
            if not pending:
                continue
            # 2. Gossip: the pending set floods the topology; relays
            # and the propagated mark land on each trace.
            result = network.propagate(
                origin,
                validation_delay=validation_delay,
                tx_hashes=[entry.tx_hash for entry in pending],
            )
            life.advance(result.coverage_time(1.0))

            # 3. Sharded profiles dispatch to committees.  A transaction
            # whose write set touches state homed on *other* shards
            # spans those committees (Zilliqa-style inter-committee
            # state sync): each extra shard gets a ``tx#shard=k``
            # sub-trace, joined back into one trace at the end of the
            # run (join_shard_traces) — the PR 5 cross-shard open item.
            if profile.num_shards > 0:
                from repro.sharding.committee import shard_for_address

                for entry in pending:
                    shard = shard_for_address(
                        entry.tx_hash, profile.num_shards
                    )
                    life.record(entry.tx_hash, "assigned", shard=shard)
                    task = entry.payload
                    if task is None or entry.tx_hash in shard_subs:
                        continue
                    spans = tuple(sorted(
                        {
                            shard_for_address(
                                location, profile.num_shards
                            )
                            for location in task.writes
                        } - {shard}
                    ))
                    if not spans:
                        continue
                    subs = []
                    for other in spans:
                        sub = shard_subtrace_id(entry.tx_hash, other)
                        life.begin(
                            sub, parent_trace=entry.tx_hash,
                            shard=other,
                        )
                        life.record(
                            sub, "assigned",
                            shard=other, home_shard=shard,
                        )
                        subs.append(sub)
                    shard_subs[entry.tx_hash] = tuple(subs)

            # 4. Packing + consensus.  The budget spans the whole pool,
            # so every surviving (non-evicted) transaction is included.
            packed = pool.pack_block(max(1, pool.total_weight))
            if not packed:
                continue
            if pbft is not None:
                round_result = pbft.run_round()
                latency = round_result.latency
                mechanism = "pbft"
            else:
                latency = rng.expovariate(1.0 / profile.block_interval)
                mechanism = "pow"
            life.advance(latency)
            for entry in packed:
                life.record(
                    entry.tx_hash, "consensus",
                    block=height, mechanism=mechanism,
                )
                for sub in shard_subs.get(entry.tx_hash, ()):
                    life.record(
                        sub, "consensus",
                        block=height, mechanism=mechanism,
                    )

            # 5. Execution replay + stitch.
            executed_hashes.update(entry.tx_hash for entry in packed)
            execute_at = life.clock
            packed_block = ReplayBlock(
                height=height,
                tasks=tuple(entry.payload for entry in packed),
                payload=(),
            )
            with recorder.block(height):
                report = run_engine(executor, packed_block, cores)
            stitch_execution_events(
                life,
                recorder.events(block=height),
                at=execute_at,
                cost_unit_seconds=cost_unit_seconds,
            )
            life.advance(report.wall_time * cost_unit_seconds)

            # Cross-shard sub-traces close when the home commit's state
            # delta reaches the remote committees — the parent's commit
            # time (falls back to the block clock for unsampled txs,
            # whose sub-traces are not materialised either).
            for entry in packed:
                subs = shard_subs.pop(entry.tx_hash, ())
                if not subs:
                    continue
                parent = life.trace(entry.tx_hash)
                synced_at = (
                    parent.ended_at
                    if parent is not None and parent.closed
                    else life.clock
                )
                for sub in subs:
                    life.close(
                        sub, "committed", at=synced_at,
                        sync="state_delta",
                    )

            if on_block is not None:
                newly_closed = life.closed_traces()[closed_seen:]
                closed_seen += len(newly_closed)
                stage_latencies: dict[str, list[float]] = {}
                for trace in join_shard_traces(newly_closed):
                    for stage, stage_wait in trace.stage_latencies():
                        stage_latencies.setdefault(
                            stage, []
                        ).append(stage_wait)
                block_events = recorder.events(block=height)
                utilization = (
                    profile_events(block_events).mean_utilization
                    if block_events else 0.0
                )
                on_block(BlockSample(
                    height=height,
                    txs=len(packed),
                    committed=report.num_tasks,
                    aborted=report.aborts,
                    retried=report.reexecuted,
                    wall_clock_s=time.perf_counter() - block_started,
                    sim_seconds=life.clock - sim_started,
                    mempool_depth=len(pool),
                    lane_utilization=utilization,
                    stage_latencies={
                        stage: tuple(values)
                        for stage, values in stage_latencies.items()
                    },
                ))

    traces = tuple(join_shard_traces(life.traces()))
    committed = sum(1 for t in traces if t.outcome == "committed")
    dropped = sum(1 for t in traces if t.outcome == "dropped")
    return LifecycleRunResult(
        chain=profile.name,
        executor=executor,
        blocks=blocks,
        admitted=admitted,
        committed=committed,
        dropped=dropped,
        traces=traces,
    )


__all__ = [
    "DEFAULT_COST_UNIT_SECONDS",
    "DEFAULT_NODES",
    "DEFAULT_VALIDATION_DELAY",
    "PBFT_COMMITTEE_SIZE",
    "LifecycleRunResult",
    "run_lifecycle",
]
