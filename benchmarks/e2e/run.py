#!/usr/bin/env python3
"""One benchmark for the batch pipeline and the node network.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick]

builds the workload's seeded inputs, checks that the program's outputs
are correct, measures, and prints every metric by name with its unit;
the last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  ``--trace 0`` (the default)
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones, from a separate run with timing wrappers installed.
Without ``--workload`` every workload runs, each in a process of its
own.  ``--quick`` is the smoke test: tiny sizes, every workload, traced
and untraced, and a check that the names printed are the names
``BENCHMARK.json`` declares.

The program under test is the ``src/repro`` tree of the checkout this
file sits in; nothing is measured through an installed copy.  See
``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing")
if os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes feed set and dict orders all over the program; pin
    # them so two runs of one seed do the same work.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import batch  # noqa: E402
import drift  # noqa: E402
import layers  # noqa: E402
import node_driver  # noqa: E402
import scenarios  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in (*SPEC["end_to_end"], *SPEC["per_layer"])
}
E2E_NAMES = [metric["name"] for metric in SPEC["end_to_end"]]
LAYER_NAMES = [metric["name"] for metric in SPEC["per_layer"]]

# The driver wants every end-to-end metric from every workload; one a
# workload does not measure (``Scenario.measures``) reads this.
NOT_MEASURED = 1.0


class Gate:
    """The correctness gate: operations attempted, failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what} failed")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


def say(text: str = "") -> None:
    print(text, flush=True)


# -- the pieces both kinds of run share ---------------------------------------


def set_up(scenario, seed: int, repeats: int, span=None):
    """Build the inputs *repeats* times; keep the last, time them all."""
    times = []
    inputs = None
    for _ in range(repeats):
        inputs = None
        gc.collect()
        started = time.perf_counter()
        inputs = batch.build_inputs(scenario.chain, seed, span=span)
        times.append(time.perf_counter() - started)
    if len(inputs.node_txs) < scenario.txs_needed:
        sys.exit(
            f"error: seed {seed} gives {len(inputs.node_txs)} transactions, "
            f"{scenario.name} needs {scenario.txs_needed}"
        )
    # Everything built so far lives as long as the run does; taking it
    # out of the collector's sight keeps gen-2 passes out of the slices.
    gc.collect()
    gc.freeze()
    return inputs, times


def replay_gate(gate: Gate, scenario, inputs):
    """Every block through every engine, and every engine's roots
    against sequential's, block by block."""
    spec = scenario.batch
    blocks = [block for block in inputs.replay_blocks if block.tasks]
    result = batch.replay(inputs, blocks, spec.engines, spec.cores)
    bad = batch.root_disagreements(result)
    required = set()
    for engine, heights in bad.items():
        if engine not in spec.tolerated:
            required |= heights
    gate.count(
        len(blocks), len(required),
        "replayed blocks (roots differ from sequential's)",
    )
    say(
        f"  replay gate: {len(blocks)} blocks, "
        f"{sum(len(block.tasks) for block in blocks)} tasks x "
        f"{len(spec.engines)} engines; blocks with differing roots per engine: "
        f"{ {e: len(h) for e, h in sorted(bad.items())} or 'none'}"
    )
    return result


def check_analysis(gate: Gate, inputs, history, estimates) -> None:
    records = history.records
    gate.require(
        len(records) == len(inputs.block_inputs) == len(estimates),
        "analysis returned a record count other than the block count",
    )
    gate.require(
        sum(record.num_transactions for record in records) == inputs.txs,
        "analysis saw a transaction count other than the inputs'",
    )
    gate.require(
        all(0.0 < estimate.best <= estimate.cores + 1e-9 for estimate in estimates),
        "a modelled speed-up left (0, cores]",
    )


def open_loop_phase(scenario, inputs, seed: int, txs: int):
    """*txs* transactions arriving at the scenario's reference rate."""
    return [node_driver.poisson_phase(
        inputs.node_txs[:txs], rate=scenario.load.reference_rate, seed=seed
    )]


def slice_phase(scenario, inputs, seed: int, start: int = 0):
    """One throughput slice's traffic: the reference rate on the
    simulated clock, where waiting costs nothing; everything at once
    on TCP, where the slice is timed in processor seconds."""
    txs = inputs.node_txs[start:start + scenario.load.slice_txs]
    if scenario.net.transport == "tcp":
        return [node_driver.burst_phase(txs, seed=seed)]
    return [node_driver.poisson_phase(
        txs, rate=scenario.load.reference_rate, seed=seed
    )]


def throughput_run(net, inputs, phases):
    """One fresh network carrying *phases*: the seconds that count, and
    the run.  On TCP most of the wall time is consensus timers, which
    no processor speeds up, so what counts is processor seconds from
    the first submit to the last commit; on the simulated clock the
    wall time is all processor."""
    started = time.perf_counter()
    run = node_driver.run_network(net, inputs.profile, phases)
    if net.transport == "tcp":
        phase = run.phases[0]
        return phase.cpu_last_commit - phase.cpu_first_submit, run
    return time.perf_counter() - started, run


def check_network(gate: Gate, run, what: str) -> None:
    for phase in run.phases:
        gate.count(phase.injected, phase.failed, f"{what} transactions")
        gate.require(
            phase.injected == phase.on_every_chain + phase.failed,
            f"{what}: injected != committed + failed",
        )
    gate.require(run.roots_agree, f"{what}: nodes ended on different chains")


def run_ladder(scenario, inputs, seed: int) -> list[dict]:
    net = scenario.net
    ladder = scenario.load.ladder
    rungs = []
    for rate in ladder.rates:
        count = int(rate * ladder.seconds)
        run = node_driver.run_network(net, inputs.profile, [
            node_driver.poisson_phase(
                inputs.node_txs[:count], rate=rate, seed=seed
            )
        ])
        verdict = node_driver.rung_verdict(run.phases[0], net, ladder)
        verdict["rate"] = rate
        verdict["roots_agree"] = run.roots_agree
        rungs.append(verdict)
    return rungs


def max_rate_ok(gate: Gate, ladder, rungs: list[dict]) -> float:
    """The rate of the highest rung below the first failing one."""
    gate.require(rungs[0]["ok"], "rate ladder: the bottom rung fails")
    gate.require(
        not (ladder.bracketing and rungs[-1]["ok"]),
        "rate ladder: the top rung passes, so the capacity is not bracketed",
    )
    best = 0.0
    for rung in rungs:
        if not rung["ok"]:
            break
        gate.require(
            rung["roots_agree"],
            f"rung {rung['rate']}: nodes ended on different chains",
        )
        best = rung["rate"]
    return best


def print_ladder(scenario, rungs: list[dict]) -> None:
    net = scenario.net
    limit = scenario.load.ladder.latency_limit_intervals * net.block_interval
    say(
        f"  rate ladder ({net.consensus}, simulated clock; p95 limit "
        f"{limit * 1e3:.0f} ms):"
    )
    for rung in rungs:
        if rung["samples"]:
            say(
                f"    {rung['rate']:7.1f}/s  {'pass' if rung['ok'] else 'FAIL'}"
                f"  p50 {rung['p50_ms']:9.1f} ms  p95 {rung['p95_ms']:9.1f} ms"
                f"  thirds {rung['first_third_ms']:8.1f} -> {rung['last_third_ms']:8.1f} ms"
                f"  backlog {'growing' if rung['backlog_growing'] else 'steady '}"
                f"  failed {rung['failed']}/{rung['injected']}"
                f"  in time {rung['within_limit'] * 100:6.2f} %"
                f"  committed {rung['committed_per_s']:.3f}/s"
            )
        else:
            say(f"    {rung['rate']:7.1f}/s  FAIL  nothing committed")


def echo(scenario, seed: int, seconds: float, trace: int) -> None:
    say(f"workload {scenario.name}: {scenario.why}")
    say("  scenario " + json.dumps(
        {"seed": seed, "seconds": seconds, "trace": trace, **scenario.as_dict()},
        sort_keys=True,
    ))


def finish(gate: Gate, metrics: dict, names: list[str]) -> int:
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    gate.require(
        not missing and not extra,
        f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}",
    )
    say("  metrics:")
    for name in names:
        if name in metrics:
            say(f"    {name:42s} {metrics[name]:16.6f} {UNITS[name]}")
    say(f"  attempted {gate.attempted}  failed {gate.failed}  correct {gate.correct}")
    for problem in gate.problems:
        say(f"  PROBLEM: {problem}")
    say(json.dumps({
        "correct": gate.correct,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]}
            for name in names if name in metrics
        },
    }))
    return 0 if gate.correct else 1


# -- the untraced run: end-to-end metrics --------------------------------------


def run_end_to_end(scenario, seed: int, seconds: float) -> int:
    gate = Gate()
    load = scenario.load
    spec = scenario.batch
    measures = scenario.measures
    echo(scenario, seed, seconds, 0)

    inputs, setup_times = set_up(scenario, seed, scenario.setup_repeats)
    say(
        f"  set-up: {inputs.txs} transactions in {len(inputs.block_inputs)} blocks; "
        f"builds {' '.join(f'{t:.3f}' for t in setup_times)} s (fastest reported)"
    )
    metrics = dict.fromkeys(E2E_NAMES, NOT_MEASURED)
    metrics["setup_s"] = min(setup_times)
    measuring_since = time.perf_counter()

    # Exact, untimed: the gate and the simulated speed-ups.
    if "exec_speedup_best" in measures:
        best, best_engine = batch.best_speedup(replay_gate(gate, scenario, inputs))
        say(f"  best simulated speed-up {best:.4f} ({best_engine})")
        history, estimates = batch.analyze(inputs, spec.cores)
        check_analysis(gate, inputs, history, estimates)
        metrics["exec_speedup_best"] = best

    if "max_rate_ok" in measures:
        rungs = run_ladder(scenario, inputs, seed)
        print_ladder(scenario, rungs)
        metrics["max_rate_ok"] = max_rate_ok(gate, load.ladder, rungs)

    # What the timed phase interleaves: one series per wall-clock metric.
    slices = []
    if "analyze_tx_per_s" in measures:
        def analyze_slice():
            for _ in range(spec.analyze_calls):
                batch.analyze(inputs, spec.cores)

        slices.append((
            drift.SliceSeries("analyze_tx_per_s", spec.analyze_calls * inputs.txs),
            analyze_slice,
        ))
    if "replay_tx_per_s" in measures:
        replay_blocks = batch.window_blocks(
            inputs.replay_blocks, spec.replay_tasks, spec.replay_window
        )
        replay_tasks = sum(len(block.tasks) for block in replay_blocks)

        def replay_slice():
            batch.replay(inputs, replay_blocks, spec.engines, spec.cores)

        slices.append((
            drift.SliceSeries("replay_tx_per_s", len(spec.engines) * replay_tasks),
            replay_slice,
        ))
    bad_slices = []
    if "node_tx_per_s" in measures:
        # One throughput slice is a fresh network carrying a few dozen
        # transactions; slice after slice takes the next stretch of the
        # client traffic, so a run's median is over every kind of
        # transaction its seed drew.
        stretches = itertools.cycle([
            slice_phase(scenario, inputs, seed, start)
            for start in range(
                0, len(inputs.node_txs) - load.slice_txs + 1, load.slice_txs
            )
        ])

        def node_slice():
            seconds, result = throughput_run(
                scenario.net, inputs, next(stretches)
            )
            bad_slices.append(
                result.phases[0].failed or not result.roots_agree
            )
            return seconds

        slices.append(
            (drift.SliceSeries("node_tx_per_s", load.slice_txs), node_slice)
        )

    # The network, measured: open loop at the reference rate.  On the
    # simulated clock one run is exact.  On TCP some 15 ms of a 39 ms
    # median is processor time at whatever speed the host has that
    # minute, and the rest depends on how the arrivals fall against the
    # proposer's timer, so the open loop runs ``latency_runs`` times,
    # spread over the timed phase, and the median run is reported.
    on_tcp = scenario.net.transport == "tcp"
    phases = open_loop_phase(scenario, inputs, seed, load.latency_txs)
    p50s, p95s = [], []
    for left in range(load.latency_runs, 0, -1):
        started = time.perf_counter()
        run = node_driver.run_network(scenario.net, inputs.profile, phases)
        took = time.perf_counter() - started
        check_network(gate, run, "open-loop")
        latency = run.phases[0]
        p50s.append(statistics.median(latency.latencies) * 1e3)
        p95s.append(drift.percentile(latency.latencies, 0.95) * 1e3)
        say(
            f"  open loop at {load.reference_rate}/s over {scenario.net.transport}"
            f"{' (loopback, no injected delay)' if on_tcp else ''}: "
            f"{len(latency.commits)} latency samples, "
            f"{len(latency.commits) // 20} beyond p95; "
            f"p50 {p50s[-1]:.3f} ms, p95 {p95s[-1]:.3f} ms; generator lag p95 "
            f"{drift.percentile(latency.generator_lag, 0.95) * 1e3:.3f} ms; "
            f"heights {run.heights}"
        )
        if scenario.name == "node-virtual":
            again = node_driver.run_network(scenario.net, inputs.profile, phases)
            gate.require(
                again.snapshot() == run.snapshot(),
                "two runs of one seed gave different latencies or snapshots",
            )
        # Wall-clock metrics: interleaved drift-corrected slices, in
        # equal shares of what the open loops still to come will leave.
        spent = time.perf_counter() - measuring_since + (left - 1) * took
        drift.timed_phase(
            slices,
            seconds=(seconds - spent) / left,
            min_rounds=-(-scenario.min_rounds // load.latency_runs),
        )
    metrics["commit_p50_ms"] = statistics.median(p50s)
    metrics["commit_p95_ms"] = statistics.median(p95s)
    gate.require(
        not any(bad_slices),
        "a throughput slice lost transactions or split the chain",
    )

    say("  slices (work/s from the median drift-corrected slice; raw beside it):")
    for series, _call in slices:
        info = series.diagnostics()
        say(
            f"    {series.name:16s} {info['slices']:3d} slices  "
            f"corrected {info['corrected_median_s'] * 1e3:8.2f} ms  "
            f"raw {info['raw_median_s'] * 1e3:8.2f} ms  "
            f"rate {series.rate():12.1f}/s  raw rate {info['raw_rate']:12.1f}/s  "
            f"drift {info['drift_min']:.2f}-{info['drift_max']:.2f}  "
            f"odd/even gap {info['odd_even_gap'] * 100:.1f} %"
        )
        metrics[series.name] = series.rate()
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    say(
        f"  not measured on this workload (reads {NOT_MEASURED}): "
        + " ".join(name for name in E2E_NAMES if name not in measures)
    )
    return finish(gate, metrics, E2E_NAMES)


# -- the traced run: per-layer metrics -----------------------------------------

ANALYZE_PASSES = 3
REPLAY_PASSES = 3
SINGLE_BLOCK_CALLS = 50


def section_layers(tracer, name: str, busy: float | None = None) -> dict:
    """Self seconds per layer inside the last span called *name*.

    The section's own self time is the ``bench`` layer.  Given the
    processor seconds the section used, the part of ``bench`` the
    process spent waiting (timers, sockets) is split off as ``idle``.
    """
    root = tracer.last(name)
    by_layer = layers.layer_shares(tracer.self_times(root))
    if busy is not None:
        _name, started, ended, _parent, _ident = tracer.spans[root]
        idle = min(max(0.0, (ended - started) - busy), by_layer.get("bench", 0.0))
        by_layer["bench"] = by_layer.get("bench", 0.0) - idle
        by_layer["idle"] = idle
    return by_layer


def run_per_layer(scenario, seed: int) -> int:
    from repro import obs
    from repro.core.scheduling import lpt_schedule
    from repro.core.tdg import account_tdg, utxo_tdg
    import repro.node.node as node_module

    gate = Gate()
    spec = scenario.batch
    net = scenario.net
    echo(scenario, seed, 0.0, 1)
    tracer = layers.Tracer()
    span = tracer.span

    with layers.installed(tracer):
        with span("bench.setup"):
            inputs, _times = set_up(scenario, seed, 1, span=span)
        txs = inputs.txs
        data_model = inputs.profile.data_model

        with span("bench.analyze"):
            for _ in range(ANALYZE_PASSES):
                history, estimates = batch.analyze(inputs, spec.cores, span=span)
        check_analysis(gate, inputs, history, estimates)

        # The partition step the executors' grouped policies stand on,
        # called directly: the analysis pipeline does not schedule.
        make_tdg = utxo_tdg if data_model == "utxo" else account_tdg
        tdgs = [make_tdg(item.payload) for item in inputs.block_inputs]
        with span("bench.schedule"):
            for tdg in tdgs:
                sizes = [float(size) for size in tdg.group_sizes()]
                if sizes:
                    with span("core.schedule"):
                        lpt_schedule(sizes, spec.cores)

        replay_blocks = batch.window_blocks(
            inputs.replay_blocks, spec.replay_tasks, spec.replay_window
        )
        replay_tasks = sum(len(block.tasks) for block in replay_blocks)
        with span("bench.replay"):
            for engine in spec.engines:
                for _ in range(REPLAY_PASSES):
                    with span(f"execution.{engine}"):
                        batch.replay(inputs, replay_blocks, (engine,), spec.cores)
        gate_result = replay_gate(gate, scenario, inputs)

        # What a node pays per block when blocks are small.
        small = batch.window_blocks(inputs.replay_blocks, 10, 10)[0]
        single_block = []
        for _ in range(SINGLE_BLOCK_CALLS):
            started = time.perf_counter()
            node_module.replay_single_block(data_model, small, net.engine, net.cores)
            single_block.append(time.perf_counter() - started)
        # Half the untraced open loop, then one throughput slice's
        # traffic on the same network.
        half = scenario.load.latency_txs // 2
        phases = open_loop_phase(scenario, inputs, seed, half) + slice_phase(
            scenario, inputs, seed, start=half
        )
        node_from = len(tracer.spans)
        busy = time.process_time()
        with span("bench.node"):
            run = node_driver.run_network(net, inputs.profile, phases)
        busy = time.process_time() - busy
        check_network(gate, run, "traced open-loop")

    # The analysis passes and the open loop again, three ways in turn:
    # plain, under throw-away wrappers, and with repro.obs recording.
    def section(what: str) -> float:
        started = time.perf_counter()
        for _ in range(ANALYZE_PASSES):
            batch.analyze(inputs, spec.cores)
        again = node_driver.run_network(net, inputs.profile, phases)
        elapsed = time.perf_counter() - started
        check_network(gate, again, what)
        return elapsed

    plain, traced, recorded = [], [], []
    for _ in range(1 if net.transport == "tcp" else 3):
        plain.append(section("untraced open-loop"))
        with layers.installed(layers.Tracer()):
            traced.append(section("traced open-loop"))
        with obs.instrumented():
            recorded.append(section("obs-recorded open-loop"))

    pair_net = replace(net, nodes=2)
    pair_phase = slice_phase(scenario, inputs, seed)
    pair_seconds = []
    for _ in range(3):
        seconds, pair = throughput_run(pair_net, inputs, pair_phase)
        pair_seconds.append(seconds)
        check_network(gate, pair, "two-node")

    # -- numbers ---------------------------------------------------------------
    counts = tracer.counts
    total = tracer.total
    calls = tracer.calls

    def per(seconds: float, units: float, scale: float = 1e6) -> float:
        return seconds / units * scale if units else 0.0

    analysed = ANALYZE_PASSES * txs
    blocks = ANALYZE_PASSES * len(inputs.block_inputs)
    records = history.records
    weight = sum(record.num_transactions for record in records) or 1
    modelled = [
        (record.num_transactions, estimate)
        for record, estimate in zip(records, estimates)
        if record.num_transactions
    ]
    metrics = {
        "workload.build_s": total("workload.build"),
        "workload.txs": float(txs),
        "workload.tx_per_s": txs / total("workload.build"),
        "vm.trace_us_per_tx": per(total("vm.trace"), txs),
        "staticcheck.predict_tx_per_s": txs / total("staticcheck.predict"),
        "staticcheck.widened_share": inputs.widened / txs,
        "core.tdg_us_per_tx": per(total("core.tdg"), analysed),
        "core.metrics_us_per_tx": per(total("core.metrics"), analysed),
        "core.schedule_us_per_block": per(
            total("core.schedule"), calls("core.schedule")
        ),
        "core.speedup_model_us_per_block": per(total("core.speedup_model"), blocks),
        "core.edges_per_tx": sum(
            tdg.num_transactions - len(tdg.groups) for tdg in tdgs
        ) / weight,
        "core.conflict_rate_c": sum(
            record.metrics.num_conflicted for record in records
        ) / weight,
        "core.group_rate_l": sum(
            record.metrics.lcc_size for record in records
        ) / weight,
        "execution.eq1_bound": weight / sum(n / e.speculative for n, e in modelled),
        "execution.eq2_bound": weight / sum(n / e.group_bound for n, e in modelled),
        "execution.single_block_us": statistics.median(single_block) * 1e6,
    }
    for summary in gate_result.summaries():
        engine = summary.engine
        fastest = min(
            s[2] - s[1] for s in tracer.spans if s[0] == f"execution.{engine}"
        )
        metrics[f"execution.{engine}.tx_per_s"] = replay_tasks / fastest
        metrics[f"execution.{engine}.speedup"] = summary.speedup
        metrics[f"execution.{engine}.abort_ratio"] = (
            summary.aborted / summary.scheduled if summary.scheduled else 0.0
        )

    stats = run.node_stats
    committed = sum(phase.committed for phase in run.phases)
    frames = run.transport_stats
    received = frames.sent - frames.lost + frames.duplicated
    chain_blocks = max(1, len(run.chain) - 1)
    chain_span = run.chain[-1].header.timestamp - run.chain[0].header.timestamp
    lag = [value for phase in run.phases for value in phase.generator_lag]
    node_self = section_layers(tracer, "bench.node", busy)
    node_busy = sum(node_self.values()) - node_self["idle"]

    def per_call(name: str) -> float:
        """Microseconds per call of *name* inside the node section (the
        chain builder in set-up calls some of the same functions)."""
        return per(total(name, node_from), calls(name, node_from))

    rounds = calls("consensus.pbft_round", node_from)
    metrics.update({
        "mempool.submit_us": per_call("mempool.submit"),
        "mempool.pack_us_per_tx": per(
            total("mempool.pack", node_from), counts["mempool.packed"]
        ),
        "mempool.rejected": counts["mempool.rejected"],
        "mempool.evicted": counts["mempool.evicted"],
        "chain.build_block_us_per_tx": per(
            total("chain.build_block", node_from), counts["chain.built_txs"]
        ),
        "chain.forkchoice_receive_us": per_call("chain.forkchoice_receive"),
        "chain.reorgs": float(sum(s.reorgs for s in stats)),
        "chain.orphaned": float(sum(s.orphaned for s in stats)),
        "network.seen_add_us": per_call("network.seen_add"),
        "network.duplicate_drop_share": sum(
            s.duplicate_txs + s.duplicate_blocks for s in stats
        ) / max(1, received),
        "consensus.pow_slot_us": per_call("consensus.pow_slot"),
        "consensus.pbft_round_us": per_call("consensus.pbft_round"),
        "consensus.pbft_msgs_per_round": per(counts["pbft.messages"], rounds, 1.0),
        "transport.tx_frame_bytes": per(counts["bytes.tx"], counts["frames.tx"], 1.0),
        "transport.block_frame_bytes_per_tx": per(
            counts["bytes.block"], counts["block_frame_txs"], 1.0
        ),
        "transport.encode_us": per_call("transport.encode"),
        "transport.decode_us": per_call("transport.decode"),
        "node.msgs_per_commit": frames.sent / max(1, committed),
        "node.block_txs_mean": committed / chain_blocks,
        "node.block_interval_ms": chain_span / chain_blocks * 1e3,
        "node.backlog_end": float(sum(run.pool_sizes)),
        "node.generator_lag_ms_p95": drift.percentile(lag, 0.95) * 1e3,
        "node.n2_tx_per_s": pair.phases[0].committed / min(pair_seconds),
        "obs.enabled_overhead_ratio": min(recorded) / min(plain),
        "bench.trace_overhead_ratio": min(traced) / min(plain),
    })
    named = {"execution": "execute", "mempool": "mempool", "chain": "chain",
             "transport": "transport", "obs": "obs"}
    for layer, short in named.items():
        metrics[f"node.{short}_share"] = node_self.get(layer, 0.0) / node_busy
    metrics["node.other_share"] = 1.0 - sum(
        metrics[f"node.{short}_share"] for short in named.values()
    )

    # -- artefacts -------------------------------------------------------------
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{scenario.name}.jsonl")
    ledger = {"workload": scenario.name, "seed": seed, "sections": {}}
    for section, work in (
        ("setup", txs), ("analyze", analysed),
        ("replay", len(spec.engines) * REPLAY_PASSES * replay_tasks),
        ("node", committed),
    ):
        by_layer = (
            node_self if section == "node"
            else section_layers(tracer, f"bench.{section}")
        )
        seconds = sum(by_layer.values())
        ledger["sections"][section] = {
            "seconds": seconds,
            "transactions": work,
            "layers": {
                layer: {
                    "self_s": self_s,
                    "share": self_s / seconds,
                    "us_per_tx": self_s / work * 1e6,
                }
                for layer, self_s in sorted(by_layer.items())
            },
        }
        gate.require(
            abs(seconds - total(f"bench.{section}")) <= 0.02 * seconds,
            f"ledger section {section}: layer shares do not add up to the section",
        )
    (OUT / f"ledger-{scenario.name}.json").write_text(json.dumps(ledger, indent=1))
    say(f"  {len(tracer.spans)} spans -> {OUT / ('trace-' + scenario.name + '.jsonl')}")
    say("  ledger (share of each traced section, us per transaction):")
    for section, body in ledger["sections"].items():
        say(f"    {section:8s} {body['seconds']:8.3f} s over {body['transactions']} transactions")
        for layer, row in sorted(body["layers"].items(), key=lambda kv: -kv[1]["share"]):
            say(f"      {layer:12s} {row['share'] * 100:6.2f} %  {row['us_per_tx']:10.2f} us/tx")
    return finish(gate, metrics, LAYER_NAMES)


# -- drivers -------------------------------------------------------------------


def child(workload: str, seed: int, seconds: float, trace: int, quick: bool):
    """Run one workload in a process of its own; return its exit code,
    its result line parsed, and everything it printed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result, done.stdout + done.stderr


def run_all(seed: int, seconds: float, traces: tuple[int, ...], quick: bool) -> int:
    from concurrent.futures import ThreadPoolExecutor

    jobs = [
        (workload, trace)
        for workload in scenarios.SCENARIOS for trace in traces
    ]

    def run(job):
        return child(job[0], seed, seconds, job[1], quick)

    if quick:
        # The smoke test times nothing, so it keeps both of the bench
        # host's processors busy.
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(run, jobs))
    else:
        outcomes = map(run, jobs)
    status = 0
    for (workload, trace), (code, result, text) in zip(jobs, outcomes):
        sys.stdout.write(text)
        status = status or code
        names = E2E_NAMES if trace == 0 else LAYER_NAMES
        if result is None or sorted(result["metrics"]) != sorted(names):
            say(
                f"FAILURE: {workload} --trace {trace} printed other "
                "names than BENCHMARK.json declares"
            )
            status = 1
    if quick:
        declared = [workload["name"] for workload in SPEC["workloads"]]
        if declared != list(scenarios.SCENARIOS):
            say("FAILURE: BENCHMARK.json and scenarios.py name different workloads")
            status = 1
        say("smoke test " + ("passed" if status == 0 else "FAILED"))
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(scenarios.SCENARIOS))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None:
        traces = (0, 1) if args.quick or args.trace else (0,)
        return run_all(args.seed, args.seconds, traces, args.quick)
    scenario = scenarios.SCENARIOS[args.workload]
    seconds = args.seconds
    if args.quick:
        scenario = scenarios.quick(scenario)
        seconds = 0.0
    if args.trace:
        return run_per_layer(scenario, args.seed)
    return run_end_to_end(scenario, args.seed, seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
