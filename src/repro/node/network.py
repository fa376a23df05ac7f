"""N-node in-process networks: build, drive, converge, snapshot.

:class:`NodeNetwork` wires N :class:`~repro.node.node.Node` instances
into a full mesh over one transport, injects a seeded chain workload
through random ingress nodes, and runs the service loops until every
honest node converges — same head, height at least the target, and
every mempool drained (each injected transaction committed or
evicted) — or the simulation budget runs out.

Transports (`NetworkConfig.transport`):

* ``"virtual"`` — :class:`~repro.node.transport.MemoryTransport` on the
  deterministic :class:`~repro.node.runtime.VirtualRuntime`.  The whole
  run (fault schedule included) is a pure function of the seed; two
  runs produce identical :meth:`NetworkResult.snapshot_dict` output.
* ``"tcp"`` — :class:`~repro.node.transport.TcpTransport` on a real
  asyncio loop; wall-clock, for the throughput bench.

The workload is the same seeded chain data every replay bench uses
(:func:`~repro.execution.parallel_replay.replay_block_inputs`), but
re-cast as loose :class:`~repro.node.node.NodeTx` client transactions:
the node network re-packs them into *its own* blocks by fee order, so
block contents here are decided by the mempool fee market plus
gossip timing, not by the historical block boundaries.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.chain.hashing import hash_fields
from repro.execution.parallel_replay import replay_block_inputs
from repro.execution.registry import PREDICTION_ENGINES
from repro.node.node import (
    Node,
    NodeConfig,
    NodeTx,
    make_genesis,
)
from repro.node.runtime import AsyncioRuntime, VirtualRuntime
from repro.node.transport import (
    FaultProfile,
    MemoryTransport,
    TcpTransport,
)
from repro.obs.monitor import BlockSample
from repro.workload.profiles import get_profile

TRANSPORTS = ("virtual", "tcp")


@dataclass(frozen=True)
class NetworkConfig:
    """One network run, fully described (and so fully reproducible)."""

    nodes: int = 4
    chain: str = "ethereum"
    engine: str = "occ"
    cores: int = 2
    consensus: str = "pow"
    transport: str = "virtual"
    height: int = 5
    seed: int = 2020
    scale: float = 1.0
    workload_blocks: int = 6
    block_interval: float = 2.0
    block_weight: int = 400
    heartbeat: float = 0.5
    faults: FaultProfile = field(default_factory=FaultProfile)
    max_sim_time: float = 600.0
    check_interval: float = 0.25
    mempool_weight: int = 2 ** 62
    seen_capacity: int = 4096
    cost_unit_seconds: float = 0.001

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; expected one "
                "of: " + ", ".join(TRANSPORTS)
            )
        if self.nodes < 2:
            raise ValueError("nodes must be at least 2")
        if self.height < 1:
            raise ValueError("height must be at least 1")
        if self.workload_blocks < 1:
            raise ValueError("workload_blocks must be at least 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")

    def node_config(self, profile) -> NodeConfig:
        return NodeConfig(
            chain=self.chain,
            data_model=profile.data_model,
            engine=self.engine,
            cores=self.cores,
            consensus=self.consensus,
            num_nodes=self.nodes,
            num_shards=profile.num_shards,
            block_interval=self.block_interval,
            block_weight=self.block_weight,
            heartbeat=self.heartbeat,
            cost_unit_seconds=self.cost_unit_seconds,
            seen_capacity=self.seen_capacity,
            stop_height=self.height,
            mempool_weight=self.mempool_weight,
        )


@dataclass(frozen=True)
class NodeSnapshot:
    """One node's end-of-run state, reduced to comparable fields."""

    node_id: str
    height: int
    head_hash: str
    chain_root: str
    pool_hashes: tuple[str, ...]
    proposed: int
    applied: int
    reorgs: int
    orphaned: int
    duplicate_drops: int
    diverged: bool


@dataclass(frozen=True)
class NetworkResult:
    """Everything one network run produced."""

    config: NetworkConfig
    converged: bool
    reason: str
    sim_seconds: float
    wall_seconds: float
    height: int
    injected: int
    committed: int
    samples: int
    snapshots: tuple[NodeSnapshot, ...]

    @property
    def chain_roots(self) -> tuple[str, ...]:
        return tuple(snap.chain_root for snap in self.snapshots)

    @property
    def roots_agree(self) -> bool:
        return len(set(self.chain_roots)) == 1

    def snapshot_dict(self) -> dict:
        """Deterministic view for byte-reproducibility assertions.

        Wall-clock fields are excluded on purpose: under the virtual
        transport everything here is a pure function of the config.
        """
        return {
            "converged": self.converged,
            "reason": self.reason,
            "sim_seconds": round(self.sim_seconds, 9),
            "height": self.height,
            "injected": self.injected,
            "committed": self.committed,
            "nodes": [
                {
                    "node_id": snap.node_id,
                    "height": snap.height,
                    "head_hash": snap.head_hash,
                    "chain_root": snap.chain_root,
                    "pool": list(snap.pool_hashes),
                }
                for snap in self.snapshots
            ],
        }


def build_node_txs(
    profile, *, blocks: int, seed: int, scale: float = 1.0,
    predict: bool = False,
) -> list[NodeTx]:
    """Seeded chain workload flattened into client transactions.

    Fees are weight-proportional with a seeded multiplier, so the
    mempool's fee market has spread to act on.  Coinbase-style payload items with no executor task
    are dropped — they never travel a real mempool.
    """
    inputs = replay_block_inputs(
        profile, blocks=blocks, seed=seed, scale=scale, predict=predict,
    )
    rng = random.Random(f"{seed}|fees")
    txs: list[NodeTx] = []
    for block in inputs:
        payload_by_hash = {item.tx_hash: item for item in block.payload}
        predictions = {p.tx_hash: p for p in block.predictions}
        for task in block.tasks:
            payload = payload_by_hash.get(task.tx_hash)
            if payload is None:
                continue
            weight = max(1, round(task.cost))
            fee = int(weight * (1.0 + 4.0 * rng.random())) + weight
            txs.append(NodeTx(
                task=task, payload=payload, fee=fee, weight=weight,
                prediction=predictions.get(task.tx_hash),
            ))
    return txs


def lifecycle_config(chain: str, *, blocks: int, **fields) -> NetworkConfig:
    """The network a batch lifecycle run drives.

    *blocks* source blocks of *chain*'s seeded workload are injected
    and mined to height *blocks*; each block packs the whole pool, and
    sharded chains agree by PBFT.  *fields* set the rest of the config.
    ``repro lifecycle``, ``repro monitor`` and the regress gate run it.
    """
    return NetworkConfig(
        chain=chain,
        height=blocks,
        workload_blocks=blocks,
        block_weight=2 ** 62,
        consensus="pbft" if get_profile(chain).num_shards > 0 else "pow",
        **fields,
    )


class NodeNetwork:
    """Build and run one N-node network to convergence."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        on_block: Callable[[str, BlockSample], None] | None = None,
    ) -> None:
        self.config = config
        self.profile = get_profile(config.chain)
        self._on_block = on_block
        self._samples = 0
        self._injected = 0
        self._injection_done = False
        self.nodes: list[Node] = []

    def _handle_block(self, node_id: str, sample: BlockSample) -> None:
        self._samples += 1
        if self._on_block is not None:
            self._on_block(node_id, sample)

    def run(self) -> NetworkResult:
        """Run the network to convergence (or the time budget)."""
        if self.config.transport == "tcp":
            runtime = AsyncioRuntime()
        else:
            runtime = VirtualRuntime()
        started = time.perf_counter()
        result = runtime.run_until_complete(self._main(runtime))
        result_wall = time.perf_counter() - started
        return NetworkResult(
            config=self.config,
            converged=result["converged"],
            reason=result["reason"],
            sim_seconds=result["sim_seconds"],
            wall_seconds=result_wall,
            height=result["height"],
            injected=self._injected,
            committed=result["committed"],
            samples=self._samples,
            snapshots=result["snapshots"],
        )

    async def _main(self, runtime) -> dict:
        config = self.config
        if config.transport == "tcp":
            transport = TcpTransport(runtime)
        else:
            transport = MemoryTransport(
                runtime, faults=config.faults, seed=config.seed
            )
        node_ids = [f"n{i}" for i in range(config.nodes)]
        genesis = make_genesis(config.chain)
        node_config = config.node_config(self.profile)
        self.nodes = [
            Node(
                node_id,
                runtime=runtime,
                transport=transport,
                peers=tuple(p for p in node_ids if p != node_id),
                config=node_config,
                genesis=genesis,
                seed=config.seed,
                on_block=self._handle_block,
            )
            for node_id in node_ids
        ]
        await transport.start()
        for node in self.nodes:
            node.start()
        runtime.spawn(self._inject(runtime), name="client")

        reason = "running"
        converged = False
        while True:
            await runtime.sleep(config.check_interval)
            if any(node.diverged for node in self.nodes):
                reason = "diverged"
                break
            if self._injection_done and self._converged():
                reason = "converged"
                converged = True
                break
            if runtime.now() >= config.max_sim_time:
                reason = "timeout"
                break

        for node in self.nodes:
            node.stop()
        # One more tick lets the receive loops drain their SHUTDOWN
        # frames before the transport goes away.
        await runtime.sleep(config.check_interval)
        await transport.close()

        committed = max(
            0,
            len(self.nodes[0].chain_txs) - 1,  # minus the genesis marker
        )
        if obs.enabled():
            obs.gauge("node.network.height").set(self.nodes[0].height)
            obs.counter("node.network.runs", reason=reason).inc()
        return {
            "converged": converged,
            "reason": reason,
            "sim_seconds": runtime.now(),
            "height": min(node.height for node in self.nodes),
            "committed": committed,
            "snapshots": tuple(
                self._snapshot(node) for node in self.nodes
            ),
        }

    async def _inject(self, runtime) -> None:
        config = self.config
        predict = config.engine in PREDICTION_ENGINES
        txs = build_node_txs(
            self.profile,
            blocks=config.workload_blocks,
            seed=config.seed,
            scale=config.scale,
            predict=predict,
        )
        rng = random.Random(f"{config.seed}|client")
        # Spread injection over roughly the first 60% of the expected
        # mining time so late blocks still find a non-empty pool.
        horizon = config.height * config.block_interval * 0.6
        gap = horizon / max(1, len(txs))
        for ntx in txs:
            await runtime.sleep(gap)
            if not self.nodes or not self.nodes[0].running:
                break
            target = self.nodes[rng.randrange(len(self.nodes))]
            target.submit_tx(ntx)
            self._injected += 1
        self._injection_done = True

    def _converged(self) -> bool:
        nodes = self.nodes
        heads = {node.head_hash for node in nodes}
        if len(heads) != 1:
            return False
        if min(node.height for node in nodes) < self.config.height:
            return False
        # Injection is done: every transaction is committed or evicted.
        return not any(len(node.pool) for node in nodes)

    def _snapshot(self, node: Node) -> NodeSnapshot:
        return NodeSnapshot(
            node_id=node.node_id,
            height=node.height,
            head_hash=node.head_hash,
            chain_root=node.chain_root(),
            pool_hashes=tuple(node.pool_hashes()),
            proposed=node.stats.proposed,
            applied=node.stats.applied,
            reorgs=node.stats.reorgs,
            orphaned=node.stats.orphaned,
            duplicate_drops=(
                node.stats.duplicate_txs + node.stats.duplicate_blocks
            ),
            diverged=node.diverged,
        )


def network_fingerprint(result: NetworkResult) -> str:
    """One hash over the deterministic snapshot — handy in tests."""
    doc = result.snapshot_dict()
    return hash_fields(
        "network-fingerprint",
        doc["reason"],
        doc["height"],
        doc["committed"],
        tuple(
            (n["node_id"], n["head_hash"], n["chain_root"],
             tuple(n["pool"]))
            for n in doc["nodes"]
        ),
    )


__all__ = [
    "TRANSPORTS",
    "NetworkConfig",
    "NetworkResult",
    "NodeNetwork",
    "NodeSnapshot",
    "build_node_txs",
    "lifecycle_config",
    "network_fingerprint",
]
