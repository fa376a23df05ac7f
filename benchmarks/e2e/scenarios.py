"""The four workloads, each one declarative record.

A scenario says what transactions exist (``chain``), how the batch
pipeline is sliced over them (``batch``), what network carries them
(``net``) and how they arrive (``load``).  It holds plain data only -
nothing here imports ``repro`` - and it is echoed into every result,
so a number can be re-run from its own output.

``--seed`` reaches the generators only: the chain builder, the fee
draws, the arrival times and the ingress picks.  ``net.network_seed``
(link faults, PoW draws, heartbeat jitter) is part of the scenario and
does not move with ``--seed``, so two seeds differ in their inputs and
not in the network they meet.

``measures`` names the end-to-end metrics a workload measures: the
batch workloads spend their timed phase on the analysis pipeline and
the executors, the node workloads on fresh networks, and only the
simulated network has a capacity that is exact enough to ladder.  The
per-layer run uses the whole record on every workload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

ENGINES = (
    "sequential", "speculative", "speculative-informed", "occ",
    "grouped", "static-informed", "static-grouped", "dag",
)


@dataclass(frozen=True)
class Chain:
    """The seeded transaction source.

    A profile's blocks sample its whole history, from a few
    transactions a block to thousands.  ``start_year`` keeps the blocks
    to the years from there to the profile's end, so that every seed
    builds blocks of one kind and of one size (``scale`` times the
    era's mean, log-normal around it).
    """

    profile: str
    blocks: int
    scale: float
    start_year: float


@dataclass(frozen=True)
class Batch:
    """How the batch pipeline is sliced.

    One analysis slice is ``analyze_calls`` whole-chain calls; one
    replay slice replays, through all of ``engines``, the first
    ``replay_window`` tasks of blocks spread over the chain, at least
    ``replay_tasks`` tasks in all.  The correctness gate and the
    simulated speed-ups use every block, whole.  An engine in
    ``tolerated`` may disagree with sequential's roots without failing
    the run: it is reported and left out of ``exec_speedup_best``.
    """

    cores: int
    engines: tuple[str, ...]
    analyze_calls: int
    replay_window: int
    replay_tasks: int
    tolerated: tuple[str, ...] = ()


@dataclass(frozen=True)
class Faults:
    """Link faults of the memory transport (ignored on TCP)."""

    latency: float
    jitter: float
    loss: float
    duplicate: float


@dataclass(frozen=True)
class Net:
    """One node network."""

    nodes: int
    consensus: str          # "pow" | "pbft"
    transport: str          # "virtual" (simulated clock) | "tcp"
    engine: str
    cores: int
    block_interval: float
    block_weight: int
    heartbeat: float
    cost_unit_seconds: float
    faults: Faults | None
    network_seed: int


@dataclass(frozen=True)
class Ladder:
    """The capacity probe: one open loop per rate in ``rates``.

    Each rung offers ``seconds`` of traffic, so every rung meets the
    same stretch of the network's seeded block gaps and link faults.
    A rung passes when no transaction failed, p95 commit latency is at
    most ``latency_limit_intervals`` block intervals, and the last
    third's median latency is at most ``backlog_ratio`` times the first
    third's or under ``backlog_floor_intervals`` block intervals.
    A ``bracketing`` ladder fails the run unless its bottom rung passes
    and its top rung fails; the smoke test's two short rungs cannot
    promise that.
    """

    rates: tuple[float, ...]
    seconds: float
    latency_limit_intervals: float
    backlog_ratio: float
    backlog_floor_intervals: float
    bracketing: bool = True


@dataclass(frozen=True)
class Load:
    """Open-loop client traffic.

    ``reference_rate`` is the Poisson rate of the latency run, which
    offers ``latency_txs`` transactions, and of the throughput slices.
    The latency run is made ``latency_runs`` times and the median run
    counts: once where time is simulated, more often where it is not.
    A throughput slice is one fresh network carrying ``slice_txs``
    transactions: at the reference rate on the simulated clock, all
    due at once on TCP.
    """

    arrival: str
    reference_rate: float
    latency_txs: int
    slice_txs: int
    latency_runs: int = 1
    ladder: Ladder | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    why: str
    chain: Chain
    batch: Batch
    net: Net
    load: Load
    measures: tuple[str, ...]
    setup_repeats: int = 3
    min_rounds: int = 30

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def txs_needed(self) -> int:
        load = self.load
        ladder = load.ladder
        return max(
            load.latency_txs, load.slice_txs,
            int(ladder.rates[-1] * ladder.seconds) if ladder else 0,
        )


# 50 ms +- 20 ms links that lose 2 % and duplicate 1 % of frames.
WAN = Faults(latency=0.05, jitter=0.4, loss=0.02, duplicate=0.01)

# PoW over the simulated clock: NetworkConfig's defaults but for the
# block weight.  At the default 400 one OCC validation of a block of
# hot-address traffic costs seconds of host time; at 36 the network
# saturates near 15 tx/s (18 less what forks waste), which puts the
# ladder's 8/s rung well inside capacity and its 16/s rung just past it.
POW_VIRTUAL = Net(
    nodes=4, consensus="pow", transport="virtual", engine="occ",
    cores=2, block_interval=2.0, block_weight=36, heartbeat=0.5,
    cost_unit_seconds=0.001, faults=WAN, network_seed=2020,
)

# PBFT over loopback TCP: no injected delay, and a cost unit so small
# that the processor and not a configured sleep is the limit.
PBFT_TCP = Net(
    nodes=4, consensus="pbft", transport="tcp", engine="occ",
    cores=2, block_interval=0.2, block_weight=50, heartbeat=0.5,
    cost_unit_seconds=1e-6, faults=None, network_seed=2020,
)

POW_LOAD = Load(
    arrival="poisson", reference_rate=4.0, latency_txs=2000, slice_txs=100,
)

# An idle PoW chain already shows a p95 of 3.3-3.7 intervals (the tail
# of the exponential block gap, plus forks).  A rung must be long
# enough for a verdict to be the network's and not the seed's: at 60 s
# a third holds ten block gaps, and one seed in forty failed the bottom
# rung on "backlog growing" (last third 2.1 intervals) while another
# passed the 8/s rung at 5.95.  At 120 s, over sixty seeds, the 8/s
# rung passes at 3.2-4.1 intervals and the 16/s rung fails at 19 or
# more, and no last third of a passing rung exceeds 1.3 intervals.
# The top rung offers twice the block weight a second and cannot pass.
POW_LADDER = Ladder(
    rates=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0), seconds=120.0,
    latency_limit_intervals=6.0, backlog_ratio=1.5,
    backlog_floor_intervals=2.0,
)

# On account chains the seed code's ``dag`` engine orders contract
# creations by the address they create while the task list has each of
# them write ``balance:0x0``, so about one ethereum block in seventy
# commits two creations out of block order and its state root differs.
ACCOUNT_TOLERATED = ("dag",)

# Both node workloads carry the same transactions: 4700 or more on
# every seed tried, of which the ladder's top rung takes 3840.
NODE_CHAIN = Chain(profile="ethereum", blocks=48, scale=0.9, start_year=2018.0)
NODE_BATCH = Batch(
    cores=4, engines=ENGINES, analyze_calls=2,
    replay_window=50, replay_tasks=300,
    tolerated=ACCOUNT_TOLERATED,
)

# Every workload reports its set-up, its memory and, because the
# benchmark's driver refuses a time that reads the same on every run,
# the open loop's latencies: the batch workloads send their own
# transactions through the PoW network once.
EVERYWHERE = ("setup_s", "peak_rss_mb", "commit_p50_ms", "commit_p95_ms")
BATCH_MEASURES = EVERYWHERE + (
    "analyze_tx_per_s", "replay_tx_per_s", "exec_speedup_best",
)

SCENARIOS = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="utxo-batch",
            why="large, sparsely conflicted UTXO blocks: core TDG/array "
                "path and per-task executor overhead; vm and account idle",
            chain=Chain(profile="bitcoin", blocks=40, scale=0.15, start_year=2018.0),
            batch=Batch(
                cores=4, engines=ENGINES, analyze_calls=2,
                replay_window=200, replay_tasks=400,
            ),
            net=POW_VIRTUAL,
            load=POW_LOAD,
            measures=BATCH_MEASURES,
        ),
        Scenario(
            name="account-batch",
            why="small hot-address account blocks: OCC aborts, vm tracing "
                "and the account edge path; same executors used the other way",
            chain=Chain(profile="ethereum", blocks=60, scale=1.6, start_year=2018.0),
            batch=Batch(
                cores=4, engines=ENGINES, analyze_calls=1,
                replay_window=100, replay_tasks=400,
                tolerated=ACCOUNT_TOLERATED,
            ),
            net=POW_VIRTUAL,
            load=POW_LOAD,
            measures=BATCH_MEASURES,
        ),
        Scenario(
            name="node-virtual",
            why="4 PoW nodes on a simulated lossy WAN: scheduling, packing, "
                "gossip and fork handling with exact latencies; small blocks",
            chain=NODE_CHAIN,
            batch=NODE_BATCH,
            net=POW_VIRTUAL,
            load=replace(POW_LOAD, slice_txs=240, ladder=POW_LADDER),
            measures=EVERYWHERE + ("max_rate_ok", "node_tx_per_s"),
            setup_repeats=5,
        ),
        Scenario(
            name="node-tcp",
            why="4 PBFT nodes over loopback TCP: adds pickle framing, "
                "sockets and the asyncio scheduler that node-virtual bypasses",
            chain=NODE_CHAIN,
            batch=NODE_BATCH,
            net=PBFT_TCP,
            # No ladder: on real sockets a capacity within drift of a
            # rung would flip max_rate_ok by 2x between two runs.
            load=Load(
                arrival="poisson", reference_rate=100.0, latency_txs=400,
                slice_txs=100, latency_runs=3,
            ),
            measures=EVERYWHERE + ("node_tx_per_s",),
            setup_repeats=5,
        ),
    )
}


def quick(scenario: Scenario) -> Scenario:
    """The same scenario at smoke-test size."""
    load = scenario.load
    ladder = load.ladder
    return replace(
        scenario,
        chain=replace(
            scenario.chain,
            blocks=max(4, scenario.chain.blocks // 5),
        ),
        batch=replace(
            scenario.batch, analyze_calls=1, replay_window=20,
            replay_tasks=40,
        ),
        load=replace(
            load,
            latency_txs=60,
            slice_txs=min(load.slice_txs, 30),
            ladder=ladder and replace(
                ladder, rates=ladder.rates[:1] + ladder.rates[-1:],
                seconds=ladder.seconds / 6.0, bracketing=False,
            ),
        ),
        setup_repeats=1,
        min_rounds=2,
    )
