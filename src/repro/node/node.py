"""A full-lifecycle blockchain node as cooperating service loops.

One :class:`Node` runs the entire transaction path the batch pipelines
only simulated stage by stage:

* **ingress** — :meth:`Node.submit_tx` admits a client transaction
  into the node's fee-market :class:`~repro.mempool.pool.Mempool`
  (minting the lifecycle ``admitted`` root span) and push-relays it;
* **gossip** — a receive loop dedups tx/block frames on the hash in
  their header through bounded
  :class:`~repro.network.gossip.BoundedSeenCache` LRUs, decodes only
  what it has not seen (a block's transactions resolve to the pool's
  copies by hash), checks the body against that hash, and floods the
  frame on as received (``relayed`` events carry the hop depth);
* **proposer** — PoW interval draws
  (:class:`~repro.consensus.pow.PoWSimulator`) or round-robin PBFT
  rounds (:class:`~repro.consensus.pbft.PBFTCommittee`) gate packing a
  block from the local pool; the proposer executes it through its
  engine, embeds the resulting state root in ``header.extra``, and
  stitches the execution events into the lifecycle traces;
* **validation** — received blocks replay through any of the eight
  engines via
  :func:`~repro.execution.parallel_replay.replay_single_block`; the
  replayed root is checked against the proposer's claim, the node
  *sleeps for the execution time* before relaying (the paper's
  propagation/validation coupling: a faster executor relays sooner),
  and :class:`~repro.chain.forkchoice.ForkChoice` applies the block,
  replaying mempool contents across reorgs;
* **anti-entropy** — periodic heartbeats announce the head and the
  pool's tx hashes; peers pull missing chain segments and
  transactions, which is what drives convergence back after seeded
  message loss.

Every loop awaits only the runtime surface of
:mod:`repro.node.runtime`, so the same node runs deterministically
under the virtual clock and in real time under asyncio.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.chain.block import GENESIS_PARENT, Block, build_block
from repro.chain.errors import ValidationError
from repro.chain.forkchoice import ForkChoice, Reorg
from repro.chain.hashing import hash_fields
from repro.consensus.pow import Miner, PoWSimulator
from repro.execution.engine import TxTask
from repro.execution.parallel_replay import (
    DATA_MODELS,
    ENGINES,
    BlockReplay,
    ReplayBlock,
    replay_single_block,
    state_root,
)
from repro.mempool.pool import AdmissionError, Mempool, PoolEntry
from repro.network.gossip import BoundedSeenCache
from repro.node.transport import Frame, MalformedFrame
from repro.obs.critical_path import profile_events
from repro.obs.lifecycle import stitch_execution_events
from repro.obs.monitor import BlockSample
from repro.obs.timeline import FlightRecorder

SHUTDOWN = object()

GENESIS_PREFIX = "genesis"


@dataclass(frozen=True)
class NodeTx:
    """A client transaction as the node network ships it.

    Bundles the executor-ready :class:`TxTask` with the raw payload
    transaction (receipts/DAG input), the fee-market bid, and the
    optional static access prediction — everything a remote node needs
    to admit, pack, and replay the transaction without shared state.
    """

    task: TxTask
    payload: object = None
    fee: int = 1
    weight: int = 1
    prediction: object = None

    @property
    def tx_hash(self) -> str:
        return self.task.tx_hash


def make_genesis(chain: str) -> Block[NodeTx]:
    """The deterministic genesis block every node starts from.

    Blocks must carry at least one transaction (the Merkle rule), so
    genesis holds a zero-state marker that is never executed.
    """
    marker = NodeTx(
        task=TxTask(tx_hash=f"{GENESIS_PREFIX}-{chain}", cost=1.0),
        fee=0, weight=1,
    )
    return build_block(
        [marker], height=0, parent_hash=GENESIS_PARENT,
        timestamp=0.0, miner=GENESIS_PREFIX,
    )


def _mean_utilization(recorder: FlightRecorder) -> float:
    """Mean busy fraction of the lanes a block's replay recorded."""
    return profile_events(recorder.events()).mean_utilization


def chain_state_root(
    chain: list[Block[NodeTx]], roots: dict[str, str]
) -> str:
    """Fold per-block execution state roots into one chain digest."""
    return hash_fields(
        "chain-state-root",
        tuple((block.height, roots[block.block_hash]) for block in chain),
    )


@dataclass(frozen=True)
class NodeConfig:
    """Per-node policy shared by every node in a network."""

    chain: str = "ethereum"
    data_model: str = "account"
    engine: str = "occ"
    cores: int = 2
    consensus: str = "pow"
    num_nodes: int = 4
    num_shards: int = 0
    block_interval: float = 2.0
    block_weight: int = 400
    heartbeat: float = 0.5
    cost_unit_seconds: float = 0.001
    seen_capacity: int = 4096
    stop_height: int = 5
    mempool_weight: int = 2 ** 62
    min_fee_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of: "
                + ", ".join(ENGINES)
            )
        if self.data_model not in DATA_MODELS:
            raise ValueError(f"unknown data model {self.data_model!r}")
        if self.consensus not in ("pow", "pbft"):
            raise ValueError("consensus must be 'pow' or 'pbft'")
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be at least 2")
        if self.block_interval <= 0:
            raise ValueError("block_interval must be positive")
        if self.block_weight < 1:
            raise ValueError("block_weight must be positive")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if self.cost_unit_seconds <= 0:
            raise ValueError("cost_unit_seconds must be positive")
        if self.seen_capacity < 1:
            raise ValueError("seen_capacity must be positive")
        if self.stop_height < 1:
            raise ValueError("stop_height must be at least 1")


@dataclass
class NodeStats:
    """Service-loop accounting, reported in network snapshots."""

    ingress: int = 0
    relayed: int = 0
    duplicate_txs: int = 0
    duplicate_blocks: int = 0
    rejected: int = 0
    proposed: int = 0
    applied: int = 0
    side_blocks: int = 0
    reorgs: int = 0
    orphaned: int = 0
    pulls_served: int = 0
    root_mismatches: int = 0
    exec_wall: float = 0.0


class Node:
    """One in-process node: mempool, gossip, proposer, validator."""

    def __init__(
        self,
        node_id: str,
        *,
        runtime,
        transport,
        peers: tuple[str, ...],
        config: NodeConfig,
        genesis: Block[NodeTx],
        seed: int = 0,
        on_block: Callable[[str, BlockSample], None] | None = None,
    ) -> None:
        self.node_id = node_id
        self.runtime = runtime
        self.transport = transport
        self.peers = tuple(peers)
        self.config = config
        self.on_block = on_block
        self.inbox = transport.register(node_id)
        self.rng = random.Random(f"{seed}|{node_id}")
        self.pool: Mempool[NodeTx] = Mempool(
            max_weight=config.mempool_weight,
            min_fee_rate=config.min_fee_rate,
        )
        self.forkchoice: ForkChoice[NodeTx] = ForkChoice()
        self.forkchoice.receive(genesis)
        self.block_roots: dict[str, str] = {
            # Genesis executes nothing: the root of the empty state.
            genesis.block_hash: state_root((), {})
        }
        self.chain_txs: set[str] = {
            tx.tx_hash for tx in genesis.transactions
        }
        self.seen_txs = BoundedSeenCache(
            config.seen_capacity, metric="node.relay.seen_evicted"
        )
        self.seen_blocks = BoundedSeenCache(
            config.seen_capacity, metric="node.relay.seen_evicted"
        )
        self._orphans: dict[str, dict[str, Block[NodeTx]]] = {}
        self._wanted: set[str] = set()
        self.stats = NodeStats()
        self.running = True
        self.mining = True
        self.diverged = False
        self._last_head_at = 0.0
        self._all_ids = tuple(sorted((node_id, *peers)))
        self._pow: PoWSimulator | None = None
        self._pbft = None
        if config.consensus == "pow":
            # Each node mines independently; scaling the per-node target
            # by the node count keeps the *network* block rate at one
            # block per config.block_interval.
            self._pow = PoWSimulator(
                miners=[Miner(node_id, node_id, 1.0)],
                target_interval=config.block_interval * config.num_nodes,
                retarget_window=10 ** 9,
                rng=self.rng,
            )
        else:
            from repro.consensus.pbft import PBFTCommittee

            self._pbft = PBFTCommittee(
                size=max(4, config.num_nodes), rng=self.rng
            )

    # -- lifecycle of the service itself --------------------------------------

    def start(self) -> None:
        """Spawn the service loops on the runtime."""
        spawn = self.runtime.spawn
        spawn(self._recv_loop(), name=f"{self.node_id}.recv")
        spawn(self._proposer_loop(), name=f"{self.node_id}.proposer")
        spawn(self._heartbeat_loop(), name=f"{self.node_id}.heartbeat")

    def stop(self) -> None:
        """Stop loops; the receive loop drains on the SHUTDOWN frame.

        A stopped node applies no block, so it lets go of ``on_block``:
        a driver that passed its own bound method and holds the node no
        longer forms a cycle with it, and is freed by reference count.
        """
        self.running = False
        self.mining = False
        self.on_block = None
        self.inbox.put_nowait(SHUTDOWN)

    # -- convenience views -----------------------------------------------------

    @property
    def height(self) -> int:
        head = self.forkchoice.head_block()
        return head.height if head is not None else -1

    @property
    def head_hash(self) -> str:
        return self.forkchoice.head or ""

    def pool_hashes(self) -> list[str]:
        return sorted(self.pool.tx_hashes())

    def chain_root(self) -> str:
        return chain_state_root(
            self.forkchoice.active_chain(), self.block_roots
        )

    # -- ingress ---------------------------------------------------------------

    def submit_tx(self, ntx: NodeTx) -> bool:
        """Admit a client transaction and start the push-relay flood."""
        self.stats.ingress += 1
        if obs.enabled():
            obs.counter("node.ingress.txs").inc()
        self.seen_txs.add(ntx.tx_hash)
        if ntx.tx_hash in self.chain_txs:
            return False
        if not self._admit_to_pool(ntx):
            return False
        self._relay(
            Frame("tx", self.node_id, ntx, hops=1, key=ntx.tx_hash)
        )
        return True

    def _admit_to_pool(self, ntx: NodeTx) -> bool:
        self._sync_clock()
        try:
            self.pool.submit(PoolEntry(
                tx_hash=ntx.tx_hash, fee=ntx.fee, weight=ntx.weight,
                payload=ntx,
            ))
        except AdmissionError:
            self.stats.rejected += 1
            return False
        life = obs.lifecycle()
        if life.enabled and self.config.num_shards > 0:
            from repro.sharding.committee import shard_for_address

            life.record(
                ntx.tx_hash, "assigned",
                shard=shard_for_address(
                    ntx.tx_hash, self.config.num_shards
                ),
                node=self.node_id,
            )
        return True

    # -- gossip ----------------------------------------------------------------

    def _relay(self, frame: Frame, *, exclude: str | None = None) -> None:
        for peer in self.peers:
            if peer == exclude:
                continue
            self.stats.relayed += 1
            self.transport.send(peer, frame)
        if obs.enabled():
            obs.counter("node.relay.sent", kind=frame.kind).inc()

    async def _recv_loop(self) -> None:
        while True:
            frame = await self.inbox.get()
            if frame is SHUTDOWN or not self.running:
                break
            try:
                await self._dispatch(frame)
            except MalformedFrame:
                self._reject_frame()

    def _reject_frame(self) -> None:
        """Count a frame a peer should not have sent; the loop goes on."""
        self.stats.rejected += 1
        if obs.enabled():
            obs.counter("node.net.malformed").inc()

    async def _dispatch(self, frame: Frame) -> None:
        kind = frame.kind
        if kind == "tx":
            self._on_tx(frame)
        elif kind == "block":
            await self._on_block(frame)
        elif kind == "announce":
            self._on_announce(frame)
        elif kind == "pull_chain":
            self._on_pull_chain(frame)
        elif kind == "chain":
            await self._on_chain(frame)
        elif kind == "pull_txs":
            self._on_pull_txs(frame)
        else:
            self._reject_frame()

    def _on_tx(self, frame: Frame) -> None:
        # Everything up to the membership test reads the header only;
        # six of the nine copies of a transaction in a 4-node mesh end
        # here without their body being decoded.
        tx_hash = frame.key
        if tx_hash not in self._wanted and tx_hash in self.seen_txs:
            self.seen_txs.add(tx_hash)
            self.stats.duplicate_txs += 1
            if obs.enabled():
                obs.counter("node.relay.duplicate_drops", kind="tx").inc()
            return
        if tx_hash in self.chain_txs or tx_hash in self.pool:
            # Already held: nothing to decode.
            self._wanted.discard(tx_hash)
            self.seen_txs.add(tx_hash)
            return
        ntx: NodeTx = frame.payload
        if getattr(ntx, "tx_hash", None) != tx_hash:
            # Not marked seen: the honest frame for this hash must
            # still get through.
            self._reject_frame()
            return
        self._wanted.discard(tx_hash)
        self.seen_txs.add(tx_hash)
        if not self._admit_to_pool(ntx):
            return
        life = obs.lifecycle()
        if life.enabled:
            life.record(
                tx_hash, "relayed", node=self.node_id, hop=frame.hops
            )
        self._relay(frame.forward(self.node_id), exclude=frame.src)

    def _pooled(self, tx_hash: str) -> NodeTx | None:
        entry = self.pool.get(tx_hash)
        return None if entry is None else entry.payload

    async def _on_block(self, frame: Frame) -> None:
        block_hash = frame.key
        if block_hash in self.seen_blocks:
            self.seen_blocks.add(block_hash)
            self.stats.duplicate_blocks += 1
            if obs.enabled():
                obs.counter(
                    "node.relay.duplicate_drops", kind="block"
                ).inc()
            return
        header = getattr(frame.payload, "header", None)
        if getattr(header, "block_hash", None) != block_hash:
            self._reject_frame()
            return
        # Only now, for a header that hashes to the key: transactions
        # this node pools are its own copies, the rest are decoded (a
        # MalformedFrame here leaves the key unseen, like a bad header).
        block: Block[NodeTx] = frame.block(self._pooled)
        self.seen_blocks.add(block_hash)
        await self._ingest_block(
            block, src=frame.src, relay=frame.forward(self.node_id)
        )

    # -- anti-entropy ----------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        jitter = self.rng
        while self.running:
            await self.runtime.sleep(
                self.config.heartbeat * (0.75 + 0.5 * jitter.random())
            )
            if not self.running:
                break
            head = self.forkchoice.head_block()
            assert head is not None
            digest = (
                head.block_hash, head.height, tuple(self.pool_hashes())
            )
            if obs.enabled():
                obs.counter("node.heartbeats").inc()
            self._relay(Frame("announce", self.node_id, digest))

    def _on_announce(self, frame: Frame) -> None:
        head_hash, _height, pool_hashes = frame.payload
        if head_hash not in self.forkchoice.tree:
            self.transport.send(
                frame.src, Frame("pull_chain", self.node_id, 0)
            )
        missing = tuple(
            tx_hash for tx_hash in pool_hashes
            if tx_hash not in self.pool
            and tx_hash not in self.chain_txs
        )
        if missing:
            self._wanted.update(missing)
            self.transport.send(
                frame.src, Frame("pull_txs", self.node_id, missing)
            )

    def _on_pull_chain(self, frame: Frame) -> None:
        since = max(0, int(frame.payload))
        blocks = tuple(
            block for block in self.forkchoice.active_chain()
            if block.height > since
        )
        if blocks:
            self.stats.pulls_served += 1
            if obs.enabled():
                obs.counter("node.sync.chains_served").inc()
            self.transport.send(
                frame.src, Frame("chain", self.node_id, blocks)
            )

    async def _on_chain(self, frame: Frame) -> None:
        for block in sorted(frame.payload, key=lambda b: b.height):
            self.seen_blocks.add(block.block_hash)
            await self._ingest_block(block, src=frame.src, relay=None)

    def _on_pull_txs(self, frame: Frame) -> None:
        for tx_hash in frame.payload:
            entry = self.pool.get(tx_hash)
            if entry is not None:
                self.stats.pulls_served += 1
                self.transport.send(
                    frame.src,
                    Frame(
                        "tx", self.node_id, entry.payload,
                        hops=1, key=tx_hash,
                    ),
                )

    # -- validation + fork choice ---------------------------------------------

    @staticmethod
    def _executable(txs) -> tuple[NodeTx, ...]:
        """Payload-bearing transactions (markers never execute)."""
        return tuple(tx for tx in txs if tx.payload is not None)

    def _execute(
        self, height: int, ntxs: tuple[NodeTx, ...]
    ) -> tuple[BlockReplay, FlightRecorder]:
        replay_input = ReplayBlock(
            height=height,
            tasks=tuple(ntx.task for ntx in ntxs),
            payload=tuple(ntx.payload for ntx in ntxs),
            predictions=tuple(
                ntx.prediction for ntx in ntxs
                if ntx.prediction is not None
            ),
        )
        started = time.perf_counter()
        record, recorder = replay_single_block(
            self.config.data_model, replay_input,
            self.config.engine, self.config.cores,
        )
        wall = time.perf_counter() - started
        self.stats.exec_wall += wall
        if obs.enabled():
            obs.histogram("node.execute.wall").observe(wall)
            obs.counter("node.execute.blocks").inc()
        return record, recorder

    async def _ingest_block(
        self,
        block: Block[NodeTx],
        *,
        src: str | None = None,
        relay: Frame | None,
    ) -> None:
        """Validate *block* and apply it; *relay* is the frame that
        carries it on to the peers other than *src* (None: keep it)."""
        block_hash = block.block_hash
        if block_hash in self.forkchoice.tree:
            return
        parent = block.header.parent_hash
        if parent != GENESIS_PARENT and parent not in self.forkchoice.tree:
            self._orphans.setdefault(parent, {})[block_hash] = block
            self.stats.orphaned += 1
            if obs.enabled():
                obs.counter("node.blocks.orphaned").inc()
            if src is not None:
                self.transport.send(
                    src, Frame("pull_chain", self.node_id, 0)
                )
            return
        ntxs = self._executable(block.transactions)
        replay, recorder = self._execute(block.height, ntxs)
        claimed = block.header.extra
        if claimed and replay.state_root != claimed:
            self.diverged = True
            self.stats.root_mismatches += 1
            if obs.enabled():
                obs.counter("node.root_mismatch").inc()
            return
        # The propagation/validation coupling the paper motivates:
        # a node only relays after executing, so a faster engine cuts
        # the relay delay at every hop.
        await self.runtime.sleep(
            replay.wall_time * self.config.cost_unit_seconds
        )
        if block_hash in self.forkchoice.tree or not self.running:
            return
        self._admit(
            block, replay, recorder,
            relay=relay, exclude=src, stitched=False,
        )
        await self._drain_orphans(block_hash)

    async def _drain_orphans(self, parent_hash: str) -> None:
        children = self._orphans.pop(parent_hash, None)
        if not children:
            return
        for block in sorted(children.values(), key=lambda b: b.height):
            await self._ingest_block(
                block, relay=self._block_frame(block)
            )

    def _admit(
        self,
        block: Block[NodeTx],
        replay: BlockReplay,
        recorder: FlightRecorder,
        *,
        relay: Frame | None,
        exclude: str | None,
        stitched: bool,
    ) -> None:
        block_hash = block.block_hash
        self.block_roots[block_hash] = replay.state_root
        self._sync_clock()
        try:
            reorg = self.forkchoice.receive(block)
        except ValidationError:
            return
        self.stats.applied += 1
        if obs.enabled():
            obs.counter("node.blocks.applied").inc()
        if reorg is not None:
            self._apply_reorg(reorg)
        else:
            self.stats.side_blocks += 1
            if stitched:
                # Our own proposal landed on a losing fork: its packed
                # transactions are in neither the pool nor the active
                # chain, so put them back for a later block.
                for ntx in self._executable(block.transactions):
                    self._admit_to_pool(ntx)
        if (
            self.on_block is not None
            and reorg is not None
            and reorg.new_head == block_hash
        ):
            self._emit_sample(block, replay, recorder)
        if relay is not None:
            self._relay(relay, exclude=exclude)

    def _block_frame(self, block: Block[NodeTx]) -> Frame:
        """A frame for a block this node puts on the network itself."""
        return Frame(
            "block", self.node_id, block, hops=1, key=block.block_hash
        )

    def _apply_reorg(self, reorg: Reorg[NodeTx]) -> None:
        if reorg.rolled_back:
            self.stats.reorgs += 1
            if obs.enabled():
                obs.counter("node.reorgs").inc()
                obs.histogram("node.reorg.depth").observe(reorg.depth)
        for block in reorg.rolled_back:
            for ntx in self._executable(block.transactions):
                self.chain_txs.discard(ntx.tx_hash)
                self._admit_to_pool(ntx)
        for block in reorg.applied:
            for ntx in block.transactions:
                self.chain_txs.add(ntx.tx_hash)
                self.pool.remove(ntx.tx_hash)
        if obs.enabled():
            obs.gauge("node.height").set(self.height)

    def _emit_sample(
        self,
        block: Block[NodeTx],
        replay: BlockReplay,
        recorder: FlightRecorder,
    ) -> None:
        now = self.runtime.now()
        life = obs.lifecycle()
        stage_latencies: dict[str, list[float]] = {}
        if life.enabled:
            for tx in self._executable(block.transactions):
                trace = life.trace(tx.tx_hash)
                if trace is None or not trace.closed:
                    continue
                for stage, wait in trace.stage_latencies():
                    stage_latencies.setdefault(stage, []).append(wait)
        sample = BlockSample(
            height=block.height,
            txs=replay.num_tasks,
            committed=replay.committed,
            aborted=replay.aborted,
            retried=replay.retried,
            wall_clock_s=replay.wall_time * self.config.cost_unit_seconds,
            sim_seconds=max(0.0, now - self._last_head_at),
            mempool_depth=len(self.pool),
            # The one read of a validated block's rows, priced on the
            # listener's first read of it: a listener that never reads
            # it leaves them unexpanded.
            lane_utilization=lambda: _mean_utilization(recorder),
            stage_latencies={
                stage: tuple(values)
                for stage, values in stage_latencies.items()
            },
        )
        self._last_head_at = now
        self.on_block(self.node_id, sample)

    # -- proposer --------------------------------------------------------------

    async def _proposer_loop(self) -> None:
        if self.config.consensus == "pow":
            await self._pow_loop()
        else:
            await self._pbft_loop()

    async def _pow_loop(self) -> None:
        assert self._pow is not None
        while self.running and self.mining:
            slot = self._pow.next_slot(self.runtime.now())
            await self.runtime.sleep(max(slot.interval, 1e-6))
            if not (self.running and self.mining):
                break
            head = self.forkchoice.head_block()
            assert head is not None
            # Mine PAST stop_height rather than halting there: two
            # miners can seal the stop height near-simultaneously, and
            # with equal cumulative work the first-seen tie-break
            # splits the network *permanently* if nobody extends a
            # tip.  The next block is what resolves the tie; the
            # network driver stops the node once converged.
            self._propose(
                head, difficulty=slot.difficulty, nonce=slot.nonce
            )

    async def _pbft_loop(self) -> None:
        assert self._pbft is not None
        poll = max(self.config.block_interval / 4.0, 1e-3)
        while self.running and self.mining:
            await self.runtime.sleep(poll)
            if not (self.running and self.mining):
                break
            head = self.forkchoice.head_block()
            assert head is not None
            if head.height >= self.config.stop_height:
                self.mining = False
                break
            next_height = head.height + 1
            proposer = self._all_ids[next_height % len(self._all_ids)]
            if proposer != self.node_id or len(self.pool) == 0:
                continue
            result = self._pbft.run_round()
            await self.runtime.sleep(result.latency)
            if not (self.running and self.mining):
                break
            head = self.forkchoice.head_block()
            assert head is not None
            if head.height + 1 != next_height or not result.committed:
                continue
            self._propose(head, difficulty=1.0, nonce=0)

    def _propose(
        self, head: Block[NodeTx], *, difficulty: float, nonce: int
    ) -> Block[NodeTx] | None:
        """Pack, execute, seal and self-apply one block (no awaits —
        the pack → admit window is atomic under both runtimes)."""
        self._sync_clock()
        entries = self.pool.pack_block(self.config.block_weight)
        if not entries and obs.enabled():
            obs.counter("node.proposer.empty").inc()
        height = head.height + 1
        # A coinbase marker keeps every block non-empty (the Merkle
        # rule) and keeps the chain live to stop_height even when the
        # pool drains; it carries no payload, so it is never executed.
        coinbase = NodeTx(
            task=TxTask(
                tx_hash=(
                    f"coinbase-{self.node_id}-{self.stats.proposed}"
                ),
                cost=1.0,
            ),
            fee=0, weight=1,
        )
        ntxs = (coinbase, *(entry.payload for entry in entries))
        life = obs.lifecycle()
        if life.enabled:
            for entry in entries:
                life.record(
                    entry.tx_hash, "consensus",
                    block=height, mechanism=self.config.consensus,
                    node=self.node_id,
                )
        replay, recorder = self._execute(height, self._executable(ntxs))
        if life.enabled:
            stitch_execution_events(
                life, recorder.events(),
                at=life.clock,
                cost_unit_seconds=self.config.cost_unit_seconds,
            )
        block = build_block(
            ntxs,
            height=height,
            parent_hash=head.block_hash,
            timestamp=max(self.runtime.now(), head.header.timestamp),
            difficulty=difficulty,
            nonce=nonce,
            miner=self.node_id,
            extra=replay.state_root,
        )
        self.seen_blocks.add(block.block_hash)
        self.stats.proposed += 1
        if obs.enabled():
            obs.counter("node.blocks.proposed").inc()
        self._admit(
            block, replay, recorder,
            relay=self._block_frame(block), exclude=None, stitched=True,
        )
        return block

    # -- clock -----------------------------------------------------------------

    def _sync_clock(self) -> None:
        life = obs.lifecycle()
        if life.enabled:
            life.set_clock(max(life.clock, self.runtime.now()))


__all__ = [
    "SHUTDOWN",
    "Node",
    "NodeConfig",
    "NodeStats",
    "NodeTx",
    "chain_state_root",
    "make_genesis",
]
