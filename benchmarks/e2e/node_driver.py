"""The benchmark's own client for ``repro.node`` networks.

``NodeNetwork`` fixes arrivals to 60 % of ``height × block_interval``,
builds its workload inside the timed run and keeps no per-transaction
times, so the node workloads drive the public pieces themselves:
``Node`` instances in a full mesh over one transport, an open-loop
injector spawned with ``runtime.spawn``, and an ``on_block`` callback
per node that stamps each transaction's commit.

A run is a list of *phases*.  Each phase offers its transactions at
their due times (all at once for a burst), then waits until every one
of them is on every node's active chain with equal heads, or until the
drain timeout of ``DRAIN_INTERVALS`` block intervals after the last due
time.  One network can serve several phases in turn.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from statistics import median

from drift import percentile

from repro.node import (
    AsyncioRuntime,
    FaultProfile,
    MemoryTransport,
    Node,
    NodeConfig,
    TcpTransport,
    VirtualRuntime,
    make_genesis,
)

DRAIN_INTERVALS = 10
OUT_OF_REACH = 10 ** 9


def node_config(net, data_model: str, chain: str) -> NodeConfig:
    """The ``NodeConfig`` a scenario's ``Net`` record describes."""
    return NodeConfig(
        chain=chain,
        data_model=data_model,
        engine=net.engine,
        cores=net.cores,
        consensus=net.consensus,
        num_nodes=net.nodes,
        block_interval=net.block_interval,
        block_weight=net.block_weight,
        heartbeat=net.heartbeat,
        cost_unit_seconds=net.cost_unit_seconds,
        stop_height=OUT_OF_REACH,
    )


@dataclass(frozen=True)
class Phase:
    """Transactions, each with the time it is due (seconds after the
    phase starts) and the index of the node it enters through."""

    txs: tuple
    due: tuple[float, ...]
    ingress: tuple[int, ...]


def poisson_phase(txs, *, rate: float, seed) -> Phase:
    """Seeded Poisson arrivals at *rate* per second, seeded ingress.

    The process is conditioned on its count: ``len(txs)`` arrival
    times uniform over ``len(txs) / rate`` seconds, sorted.  Gaps are
    exponential as in any Poisson process, but every seed offers the
    same number of transactions over the same stretch of time, so the
    offered rate is *rate* exactly and not *rate* give or take
    ``1/sqrt(len(txs))``.
    """
    rng = random.Random(f"{seed}|arrivals")
    duration = len(txs) / rate
    due = sorted(rng.uniform(0.0, duration) for _ in txs)
    return Phase(tuple(txs), tuple(due), _ingress(len(txs), seed))


def burst_phase(txs, *, seed) -> Phase:
    """Everything due at once."""
    return Phase(
        tuple(txs), (0.0,) * len(txs), _ingress(len(txs), seed)
    )


def _ingress(count: int, seed) -> tuple[int, ...]:
    rng = random.Random(f"{seed}|ingress")
    return tuple(rng.randrange(2 ** 30) for _ in range(count))


@dataclass
class PhaseResult:
    """What one phase did, in the runtime's clock and the host's."""

    injected: int = 0
    rejected: int = 0
    missing: int = 0
    commits: list[tuple[float, float]] = field(default_factory=list)
    generator_lag: list[float] = field(default_factory=list)
    cpu_first_submit: float = 0.0   # time.process_time() at the first
    cpu_last_commit: float = 0.0    # submit and at the last commit seen
    on_every_chain: int = 0     # counted on the nodes after the run
    started_at: float = 0.0     # runtime clock when the phase began

    @property
    def latencies(self) -> list[float]:
        """Seconds from each transaction's due time to the first head
        block on its ingress node that holds it, in due order."""
        return [latency for _due, latency in sorted(self.commits)]

    @property
    def failed(self) -> int:
        return self.rejected + self.missing

    @property
    def committed(self) -> int:
        return self.injected - self.failed


@dataclass
class RunResult:
    phases: list[PhaseResult]
    sim_seconds: float
    chain_roots: tuple[str, ...]
    heads: tuple[str, ...]
    heights: tuple[int, ...]
    node_stats: list
    transport_stats: object
    pool_sizes: tuple[int, ...]
    chain: list            # node 0's active chain

    @property
    def roots_agree(self) -> bool:
        return len(set(self.chain_roots)) == 1 and len(set(self.heads)) == 1

    def snapshot(self) -> dict:
        """The deterministic part, for run-twice comparisons."""
        return {
            "sim_seconds": round(self.sim_seconds, 9),
            "heads": self.heads,
            "roots": self.chain_roots,
            "heights": self.heights,
            "latencies": [
                [round(v, 9) for v in phase.latencies]
                for phase in self.phases
            ],
        }


class _Driver:
    """State shared by the injector, the callbacks and the main loop."""

    def __init__(self, net, profile, phases: list[Phase], runtime):
        self.net = net
        self.profile = profile
        self.phases = phases
        self.runtime = runtime
        self.nodes: list[Node] = []
        self.by_id: dict[str, Node] = {}
        self.results = [PhaseResult() for _ in phases]
        # Per node: hashes this phase injected that the node's active
        # chain has not shown yet; and, for the ingress node only, the
        # due time to stamp the latency against.
        self.awaiting: dict[str, set[str]] = {}
        self.due_at: dict[str, dict[str, float]] = {}
        self.current: PhaseResult | None = None
        self.injection_done = False

    def on_block(self, node_id: str, _sample) -> None:
        waiting = self.awaiting.get(node_id)
        if not waiting:
            return
        landed = waiting & self.by_id[node_id].chain_txs
        if not landed:
            return
        waiting -= landed
        now = self.runtime.now()
        due_at = self.due_at[node_id]
        result = self.current
        for tx_hash in landed:
            due = due_at.pop(tx_hash, None)
            if due is not None:
                result.commits.append((due, now - due))
        result.cpu_last_commit = time.process_time()

    def drained(self) -> bool:
        if not self.injection_done:
            return False
        if any(self.awaiting[node.node_id] for node in self.nodes):
            return False
        return len({node.head_hash for node in self.nodes}) == 1

    async def inject(self, phase: Phase, result: PhaseResult, t0: float):
        runtime = self.runtime
        nodes = self.nodes
        count = len(nodes)
        for ntx, due, pick in zip(phase.txs, phase.due, phase.ingress):
            wait = t0 + due - runtime.now()
            if wait > 0:
                await runtime.sleep(wait)
            node = nodes[pick % count]
            tx_hash = ntx.tx_hash
            for other in nodes:
                self.awaiting[other.node_id].add(tx_hash)
            self.due_at[node.node_id][tx_hash] = t0 + due
            if result.injected == 0:
                result.cpu_first_submit = time.process_time()
            result.injected += 1
            result.generator_lag.append(runtime.now() - (t0 + due))
            if not node.submit_tx(ntx):
                result.rejected += 1
                for other in nodes:
                    self.awaiting[other.node_id].discard(tx_hash)
                del self.due_at[node.node_id][tx_hash]
        self.injection_done = True

    async def main(self) -> dict:
        spec = self.net
        runtime = self.runtime
        if spec.transport == "tcp":
            transport = TcpTransport(runtime)
        else:
            faults = spec.faults
            transport = MemoryTransport(
                runtime,
                faults=FaultProfile(
                    latency=faults.latency, jitter=faults.jitter,
                    loss=faults.loss, duplicate=faults.duplicate,
                ) if faults is not None else None,
                seed=spec.network_seed,
            )
        node_ids = [f"n{i}" for i in range(spec.nodes)]
        genesis = make_genesis(self.profile.name)
        config = node_config(
            spec, self.profile.data_model, self.profile.name
        )
        self.nodes = [
            Node(
                node_id,
                runtime=runtime,
                transport=transport,
                peers=tuple(p for p in node_ids if p != node_id),
                config=config,
                genesis=genesis,
                seed=spec.network_seed,
                on_block=self.on_block,
            )
            for node_id in node_ids
        ]
        self.by_id = {node.node_id: node for node in self.nodes}
        await transport.start()
        for node in self.nodes:
            node.start()
        poll = spec.block_interval / 8.0
        for phase, result in zip(self.phases, self.results):
            self.current = result
            self.injection_done = False
            self.awaiting = {node_id: set() for node_id in node_ids}
            self.due_at = {node_id: {} for node_id in node_ids}
            t0 = result.started_at = runtime.now()
            deadline = (
                t0 + (phase.due[-1] if phase.due else 0.0)
                + DRAIN_INTERVALS * spec.block_interval
            )
            injector = runtime.spawn(
                self.inject(phase, result, t0), name="client"
            )
            while not self.drained() and runtime.now() < deadline:
                if any(node.diverged for node in self.nodes):
                    break
                await runtime.sleep(poll)
            if not self.injection_done:
                _cancel(injector)
            missing = set()
            for waiting in self.awaiting.values():
                missing |= waiting
            result.missing = len(missing)
        for node in self.nodes:
            node.stop()
        await runtime.sleep(poll)
        await transport.close()
        if spec.transport == "tcp":
            # The serving side of each connection ends on the peer's
            # EOF; give it a turn of the loop before the loop goes away.
            await runtime.sleep(0.05)
        return {
            "sim_seconds": runtime.now(),
            "transport_stats": transport.stats,
        }


def _cancel(task) -> None:
    cancel = getattr(task, "cancel", None)
    if cancel is not None:
        cancel()
    else:
        task.coro.close()
        task.done = True


def run_network(net, profile, phases: list[Phase]) -> RunResult:
    """Build the network *net* describes, run every phase, tear it down.

    *net* is a :class:`scenarios.Net`; *profile* the chain profile the
    transactions came from (it names the genesis and the data model).
    """
    runtime = (
        AsyncioRuntime() if net.transport == "tcp" else VirtualRuntime()
    )
    driver = _Driver(net, profile, phases, runtime)
    tail = runtime.run_until_complete(driver.main())
    nodes = driver.nodes
    for phase, result in zip(phases, driver.results):
        result.on_every_chain = sum(
            1 for ntx in phase.txs[:result.injected]
            if all(ntx.tx_hash in node.chain_txs for node in nodes)
        )
    return RunResult(
        phases=driver.results,
        sim_seconds=tail["sim_seconds"],
        chain_roots=tuple(node.chain_root() for node in nodes),
        heads=tuple(node.head_hash for node in nodes),
        heights=tuple(node.height for node in nodes),
        node_stats=[node.stats for node in nodes],
        transport_stats=tail["transport_stats"],
        pool_sizes=tuple(len(node.pool) for node in nodes),
        chain=nodes[0].forkchoice.active_chain(),
    )


# -- reading a phase ----------------------------------------------------------


def rung_verdict(phase: PhaseResult, net, ladder) -> dict:
    """One rung against the three criteria of a ``scenarios.Ladder``.

    A rung passes when no transaction failed, p95 commit latency is
    within ``latency_limit_intervals`` block intervals, and the backlog
    is not growing: the last third's median latency (in due order) is
    at most ``backlog_ratio`` times the first third's.  A last-third
    median under ``backlog_floor_intervals`` block intervals never
    counts as growth - an idle PoW chain already shows a median of
    about one interval and swings of a factor of two between windows
    of a dozen blocks.
    """
    latencies = phase.latencies
    verdict = {
        "injected": phase.injected,
        "failed": phase.failed,
        "samples": len(latencies),
        "ok": False,
    }
    if not latencies:
        return verdict
    limit = ladder.latency_limit_intervals * net.block_interval
    third = max(1, len(latencies) // 3)
    first = median(latencies[:third])
    last = median(latencies[-third:])
    p95 = percentile(latencies, 0.95)
    growing = (
        last > ladder.backlog_ratio * first
        and last > ladder.backlog_floor_intervals * net.block_interval
    )
    # From the start of the rung to its last commit.
    span = (
        max(due + latency for due, latency in phase.commits)
        - phase.started_at
    )
    verdict.update(
        within_limit=sum(1 for v in latencies if v <= limit) / phase.injected,
        committed_per_s=phase.committed / span,
        p50_ms=median(latencies) * 1e3,
        p95_ms=p95 * 1e3,
        first_third_ms=first * 1e3,
        last_third_ms=last * 1e3,
        backlog_growing=growing,
        ok=phase.failed == 0 and p95 <= limit and not growing,
    )
    return verdict
