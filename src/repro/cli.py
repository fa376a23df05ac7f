"""Command-line interface for the reproduction.

Usage (also installed as the ``repro`` console script)::

    python -m repro.cli table1
    python -m repro.cli analyze --chain ethereum --blocks 120
    python -m repro.cli speedup --chain ethereum --cores 4,8,64
    python -m repro.cli compare --left ethereum --right ethereum_classic
    python -m repro.cli examples
    python -m repro.cli export --chain bitcoin --out ./data
    python -m repro.cli replay --chain ethereum --blocks 40 \
        --backend process --jobs 4 --out replay_trace.json \
        --prometheus-out replay.prom

Every command is deterministic under ``--seed`` — including the replay
fan-out (``replay --backend`` / ``--jobs``), whose output is identical
to a serial replay.  Analysis always walks the chain serially.  Unknown
``--chain`` names and numeric flags out of range (checked when the
arguments are parsed) exit with status 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

from repro.analysis.examples import (
    block_358624_block,
    figure_1a_block,
    figure_1b_block,
    figure_6_chain,
)
from repro.analysis.figures import (
    conflict_series,
    figure10,
    load_series,
)
from repro.analysis.report import (
    format_rate,
    render_series_table,
    render_table,
    render_table1,
)
from repro.workload.generator import generate_chain
from repro.workload.profiles import ALL_PROFILES, PROFILES_BY_NAME


# Traces ``node run`` drills into, stage by stage.
SLOWEST_TRACES = 3


class CLIError(Exception):
    """A user-facing CLI failure: printed to stderr, exit status 2."""


def _bounded(convert, admits, requirement: str):
    """An argparse ``type``: *convert* the flag's text and keep it only
    if *admits* it, so a bad value exits 2 with a message naming the
    flag, before any command runs."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if admits(value):
                return value
        raise argparse.ArgumentTypeError(
            f"must be {requirement}, got {text!r}"
        )
    return parse


positive_int = _bounded(int, lambda v: v >= 1, "an integer >= 1")
non_negative_int = _bounded(int, lambda v: v >= 0, "an integer >= 0")
positive_float = _bounded(
    float, lambda v: 0 < v < math.inf, "a finite number > 0"
)
non_negative_float = _bounded(
    float, lambda v: 0 <= v < math.inf, "a finite number >= 0"
)


def _core_counts(text: str) -> tuple[int, ...]:
    """``speedup --cores``: comma-separated integers >= 1."""
    try:
        return tuple(positive_int(part) for part in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers >= 1, got {text!r}"
        ) from None


def _resolve_profile(name: str):
    """Profile lookup with a clear, nonzero-exit error for bad names."""
    try:
        return PROFILES_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES_BY_NAME))
        raise CLIError(
            f"unknown chain {name!r}; known chains: {known}"
        ) from None


def _add_generation_args(
    parser: argparse.ArgumentParser, *, default_blocks: int = 120
) -> None:
    known = ", ".join(sorted(PROFILES_BY_NAME))
    parser.add_argument(
        "--chain",
        required=True,
        metavar="NAME",
        help=f"which blockchain profile to simulate (one of: {known})",
    )
    parser.add_argument("--blocks", type=positive_int,
                        default=default_blocks,
                        help="number of blocks to simulate")
    parser.add_argument("--seed", type=int, default=0,
                        help="determinism seed")
    parser.add_argument("--scale", type=positive_float, default=1.0,
                        help="transaction-volume multiplier")
    parser.add_argument("--buckets", type=positive_int, default=16,
                        help="number of time buckets in printed series")


def _generate(args: argparse.Namespace):
    profile = _resolve_profile(args.chain)
    return generate_chain(
        profile,
        num_blocks=args.blocks,
        seed=args.seed,
        scale=args.scale,
    )


def cmd_table1(_args: argparse.Namespace) -> int:
    print(render_table1(ALL_PROFILES))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    chain = _generate(args)
    history = chain.history
    print(render_series_table(
        load_series(history, num_buckets=args.buckets).series,
        title=f"{args.chain}: transactions per block",
        value_format="{:10.1f}",
    ))
    print()
    print(render_series_table(
        conflict_series(
            history, metric="single", num_buckets=args.buckets
        ).series,
        title=f"{args.chain}: single-transaction conflict rate",
    ))
    print()
    print(render_series_table(
        conflict_series(
            history, metric="group", num_buckets=args.buckets
        ).series,
        title=f"{args.chain}: group conflict rate",
    ))
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    chain = _generate(args)
    panels = figure10(
        chain.history, cores=args.cores, num_buckets=args.buckets
    )
    print(render_series_table(
        panels["speculative"].series,
        title=f"{args.chain}: speculative speed-ups (Eq. 1)",
        value_format="{:10.3f}",
    ))
    print()
    print(render_series_table(
        panels["grouped"].series,
        title=f"{args.chain}: group-concurrency speed-ups (Eq. 2)",
        value_format="{:10.3f}",
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for name in (args.left, args.right):
        profile = _resolve_profile(name)
        chain = generate_chain(
            profile, num_blocks=args.blocks, seed=args.seed,
            scale=args.scale,
        )
        records = chain.history.non_empty_records()
        weight = sum(r.weight_tx for r in records) or 1.0
        single = sum(
            r.metrics.single_conflict_rate * r.weight_tx for r in records
        ) / weight
        group = sum(
            r.metrics.group_conflict_rate * r.weight_tx for r in records
        ) / weight
        rows.append((
            name,
            f"{chain.history.mean_transactions_per_block():9.1f}",
            format_rate(single),
            format_rate(group),
        ))
    print(render_table(
        ["chain", "mean txs", "single conflict", "group conflict"], rows,
        title="chain comparison (cf. paper Figs. 8-9)",
    ))
    return 0


def cmd_examples(_args: argparse.Namespace) -> int:
    a = figure_1a_block()
    b = figure_1b_block()
    transactions, tdg = figure_6_chain()
    print("paper worked examples:")
    print(f"  Fig. 1a (block 1000007): single "
          f"{format_rate(a.metrics.single_conflict_rate)}, group "
          f"{format_rate(a.metrics.group_conflict_rate)}  (paper: 40%/40%)")
    print(f"  Fig. 1b (block 1000124): single "
          f"{format_rate(b.single_conflict_rate_with_coinbase)}, group "
          f"{format_rate(b.group_conflict_rate_with_coinbase)}  "
          f"(paper: 87.5%/56.25%)")
    print(f"  Fig. 6 (block 500000): spend chain of {len(transactions)} "
          f"transactions, LCC {tdg.lcc_size}  (paper: 18)")
    extreme = block_358624_block()
    print(f"  §I (block 358624): {extreme.metrics.lcc_size} of "
          f"{extreme.tdg.num_transactions} transactions dependent  "
          f"(paper: 3217 of 3264)")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.datasets.export import (
        export_account_blocks,
        export_utxo_ledger,
    )
    from repro.workload.account_workload import build_account_chain
    from repro.workload.utxo_workload import build_utxo_chain

    profile = _resolve_profile(args.chain)
    if profile.data_model == "utxo":
        ledger = build_utxo_chain(
            profile, num_blocks=args.blocks, seed=args.seed,
            scale=args.scale,
        )
        store = export_utxo_ledger(ledger, chain=args.chain)
    else:
        builder = build_account_chain(
            profile, num_blocks=args.blocks, seed=args.seed,
            scale=args.scale,
        )
        store = export_account_blocks(
            builder.executed_blocks, chain=args.chain
        )
    written = store.export_csv(args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Generate the full per-figure report into a directory."""
    from pathlib import Path

    from repro.analysis.figures import figure7, figure8, figure9

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        path = out / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"wrote {path}")

    write("table1", render_table1(ALL_PROFILES))

    print("generating chains (this takes a minute at full volume)...")
    chains = {
        profile.name: generate_chain(
            profile,
            num_blocks=args.blocks,
            seed=args.seed,
            scale=args.scale,
        )
        for profile in ALL_PROFILES
    }
    histories = {name: chain.history for name, chain in chains.items()}

    for name in ("ethereum", "bitcoin"):
        history = histories[name]
        fig = "fig4" if name == "ethereum" else "fig5"
        parts = [
            render_series_table(
                load_series(history, num_buckets=args.buckets).series,
                title=f"{fig}a: {name} transactions per block",
                value_format="{:10.1f}",
            ),
            render_series_table(
                conflict_series(
                    history, metric="single", num_buckets=args.buckets
                ).series,
                title=f"{fig}b: {name} single-transaction conflict rate",
            ),
            render_series_table(
                conflict_series(
                    history, metric="group", num_buckets=args.buckets
                ).series,
                title=f"{fig}c: {name} group conflict rate",
            ),
        ]
        write(f"{fig}_{name}", "\n\n".join(parts))

    panels = figure7(histories, num_buckets=args.buckets)
    write(
        "fig7_all_chains",
        "\n\n".join(
            render_series_table(panels[metric].series,
                                title=f"fig7 {metric} conflict rate")
            for metric in ("single", "group")
        ),
    )
    eight = figure8(
        histories["ethereum"], histories["ethereum_classic"],
        num_buckets=args.buckets,
    )
    write(
        "fig8_eth_vs_etc",
        "\n\n".join(
            render_series_table(eight[k].series, title=f"fig8 {k}")
            for k in ("load", "single", "group")
        ),
    )
    nine = figure9(
        histories["bitcoin"], histories["bitcoin_cash"],
        num_buckets=args.buckets,
    )
    write(
        "fig9_btc_vs_bch",
        "\n\n".join(
            render_series_table(nine[k].series, title=f"fig9 {k}")
            for k in ("load", "single", "lcc_absolute")
        ),
    )
    ten = figure10(
        histories["ethereum"], cores=(4, 8, 64), num_buckets=args.buckets
    )
    write(
        "fig10_speedups",
        "\n\n".join(
            render_series_table(
                ten[k].series, title=f"fig10 {k}", value_format="{:10.3f}"
            )
            for k in ("speculative", "grouped")
        ),
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a chain through its engines; print R, bounds and digests.

    Every block replays through every requested engine on the chosen
    backend (``--backend serial|process``).  The printed table carries
    each engine's measured speed-up, the number of blocks on which it
    beat that block's Eq. 2 bound (``VIOLATION`` for an engine the
    bound binds, ``!`` for occ / dag, which may legitimately beat it)
    and its determinism digests.  One line under it gives the chain's
    Eq. 1 R, its Eq. 2 bound and the number of blocks whose LCC binds
    (``1/l < n``).  Both chain values are work-weighted harmonic means
    of the per-block values, the way the engines' chain R aggregates
    per-block R, so a strict engine's R never exceeds the Eq. 2 one.

    The command exits 1 when any two engines disagree on the committed
    state root — the same cross-executor differential check
    ``tests/execution/test_differential.py`` runs in CI.  ``--out``
    writes the replay's engines' events as a Chrome trace and
    ``--prometheus-out`` its metrics registry in the Prometheus text
    format.
    """
    from repro import obs
    from repro.core.speedup import group_speedup_bound, speculative_speedup
    from repro.execution.parallel_replay import (
        ENGINES,
        replay_block_inputs,
        replay_chain,
        validate_engines,
    )
    from repro.execution.registry import (
        EQ2_STRICT_EXECUTORS,
        PREDICTION_ENGINES,
    )
    from repro.obs.critical_path import task_conflict_profile
    from repro.obs.exporters import render_prometheus, write_chrome_trace
    from repro.obs.timeline import as_events

    profile = _resolve_profile(args.chain)
    if args.engines:
        requested = tuple(
            part.strip() for part in args.engines.split(",") if part.strip()
        )
    else:
        requested = ENGINES
    try:
        engines = validate_engines(requested)
    except ValueError as exc:
        raise CLIError(str(exc)) from None

    with obs.instrumented() as state:
        blocks = replay_block_inputs(
            profile, blocks=args.blocks, seed=args.seed, scale=args.scale,
            predict=not PREDICTION_ENGINES.isdisjoint(engines),
        )
        result = replay_chain(
            blocks, data_model=profile.data_model, engines=engines,
            cores=args.cores, backend=args.backend, jobs=args.jobs,
            chunk_size=args.chunk_size,
        )

    work = eq1_time = eq2_time = 0.0
    eq2_of: dict[int, float] = {}
    lcc_binds = 0
    for block in blocks:
        conflict = task_conflict_profile(block.tasks)
        cost = sum(task.cost for task in block.tasks)
        eq2 = eq2_of[block.height] = group_speedup_bound(
            args.cores, conflict.l
        )
        work += cost
        eq1_time += cost / speculative_speedup(
            conflict.x, args.cores, conflict.c
        )
        eq2_time += cost / eq2
        lcc_binds += conflict.lcc * args.cores > conflict.x

    def over_eq2(engine: str) -> str:
        count = sum(
            record.speedup > eq2_of[record.height] + 1e-9
            for record in result.for_engine(engine)
        )
        if not count:
            return "0"
        return f"{count} " + (
            "VIOLATION" if engine in EQ2_STRICT_EXECUTORS else "!"
        )

    summaries = result.summaries()
    print(render_table(
        ["engine", "blocks", "txs", "wall", "R", "> Eq.2", "commits",
         "aborts", "retries", "state root"],
        [
            (
                s.engine,
                str(s.blocks),
                str(s.tasks),
                f"{s.wall_time:9.1f}",
                f"{s.speedup:6.3f}",
                over_eq2(s.engine),
                str(s.committed),
                str(s.aborted),
                str(s.retried),
                s.state_root[:16],
            )
            for s in summaries
        ],
        title=(
            f"{args.chain}: executor replay on {args.cores} cores "
            f"({args.backend} backend, {args.blocks} blocks)"
        ),
    ))
    print(
        f"{args.chain} bounds: Eq. 1 R "
        f"{work / eq1_time if work else 1.0:.3f}; chain Eq. 2 bound "
        f"{work / eq2_time if work else float(args.cores):.3f}; "
        f"LCC binds on {lcc_binds} of {len(blocks)} blocks"
    )
    roots = {s.state_root for s in summaries}
    receipt_roots = {s.receipt_root for s in summaries}
    if len(roots) == 1 and len(receipt_roots) == 1:
        print(
            f"state roots agree across {len(summaries)} engine(s): "
            f"{next(iter(roots))[:16]}"
        )
        status = 0
    else:
        print(
            "DIVERGENCE: engines disagree on the committed state",
            file=sys.stderr,
        )
        for s in summaries:
            print(f"  {s.engine}: {s.state_root}", file=sys.stderr)
        status = 1
    if args.out:
        try:
            count = write_chrome_trace(args.out, as_events(state.rows))
        except OSError as exc:
            raise CLIError(f"cannot write trace file: {exc}") from None
        print(f"wrote {count} trace events to {args.out}")
    if args.prometheus_out:
        try:
            with open(args.prometheus_out, "w") as out:
                out.write(render_prometheus(state.registry) + "\n")
        except OSError as exc:
            raise CLIError(
                f"cannot write Prometheus file: {exc}"
            ) from None
        print(f"wrote Prometheus metrics to {args.prometheus_out}")
    return status


def _not_converged(result) -> int:
    print(
        f"error: network did not converge ({result.reason})",
        file=sys.stderr,
    )
    return 1


def _print_lifecycle_report(result, traces, events, executor: str) -> None:
    """Where a node run's transactions spent their time: the trace
    counts, the per-stage latency table and share bars, the slowest
    traces stage by stage and the proposers' per-lane Gantt chart."""
    from repro.analysis.report import render_gantt, render_stage_shares
    from repro.obs.lifecycle import (
        slowest_traces,
        stage_breakdown,
        stage_shares,
    )

    outcomes = [trace.outcome for trace in traces]
    print()
    print(
        f"lifecycle traces: {result.injected} admitted, "
        f"{outcomes.count('committed')} committed, "
        f"{outcomes.count('dropped')} dropped, "
        f"{outcomes.count(None)} open over {result.height} block(s)"
    )
    breakdown = stage_breakdown(traces)
    if not breakdown:
        print("(no traces recorded)")
        return
    shares = stage_shares(breakdown)
    print()
    print(render_table(
        ["stage", "count", "p50 s", "p95 s", "p99 s", "max s", "share"],
        [
            (
                stage,
                str(stats.count),
                f"{stats.p50:.3f}",
                f"{stats.p95:.3f}",
                f"{stats.p99:.3f}",
                f"{stats.max:.3f}",
                f"{100.0 * shares[stage]:.1f}%",
            )
            for stage, stats in breakdown.items()
        ],
        title="per-stage latency (simulated seconds since previous stage)",
    ))
    print()
    print(render_stage_shares(
        [(stage, shares[stage]) for stage in breakdown],
        title="share of total traced latency",
    ))
    print()
    slowest = slowest_traces(traces, limit=SLOWEST_TRACES)
    if slowest:
        print(f"slowest {SLOWEST_TRACES} trace(s):")
        for trace in slowest:
            print(
                f"  {trace.trace_id}  total {trace.total_latency:.3f}s "
                f"({trace.outcome})"
            )
            for stage, latency in trace.stage_latencies():
                print(f"    {stage:<12} +{latency:.3f}s")
    else:
        print(
            "(no closed traces to drill into — every traced "
            "transaction is still in flight)"
        )
    print()
    print(render_gantt(events, title=f"executor lanes ({executor})"))


def cmd_node(args: argparse.Namespace) -> int:
    """Run an N-node in-process network to a target height and explain it.

    ``repro node run`` boots N full nodes (mempool ingress, push-relay
    gossip, PoW/PBFT proposal, executor-replay validation with fork
    choice) over the chosen transport, injects the seeded chain
    workload through random ingress nodes, and runs until every node
    converges — same head, height at least ``--height``, every mempool
    drained — or the simulation budget runs out.  Every transaction is
    traced mempool → gossip → (sharding) → packing → consensus →
    execution; after the network summary the command prints where that
    latency went per stage, the slowest traces and the executor lanes.
    ``--out`` writes the stitched traces and the execution timeline as
    one Chrome trace file.

    ``--max-abort-rate`` gates the run-wide abort rate, aborted /
    (committed + aborted) over the blocks ``n0`` makes its head.

    Exit status: 0 when the network converged with byte-identical
    per-node chain state roots and no gate was breached; 1 on
    divergence, timeout, a root mismatch or an abort rate over the
    limit; 2 on bad arguments.
    """
    from repro import obs
    from repro.node import (
        FaultProfile,
        NetworkConfig,
        NodeNetwork,
        default_consensus,
        network_fingerprint,
    )
    from repro.obs.exporters import write_chrome_trace
    from repro.obs.lifecycle import join_shard_traces
    from repro.obs.timeline import as_events

    _resolve_profile(args.chain)
    try:
        faults = FaultProfile(
            latency=args.latency,
            loss=args.loss,
            duplicate=args.duplicate,
            reorder=args.reorder,
        )
        config = NetworkConfig(
            nodes=args.nodes,
            chain=args.chain,
            engine=args.executor,
            cores=args.cores,
            consensus=args.consensus or default_consensus(args.chain),
            transport=args.transport,
            height=args.height,
            seed=args.seed,
            scale=args.scale,
            workload_blocks=args.workload_blocks,
            block_interval=args.block_interval,
            block_weight=args.block_weight,
            faults=faults,
            max_sim_time=args.max_sim_time,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None

    quiet = args.quiet
    head_executions = {"committed": 0, "aborted": 0}

    def on_block(node_id: str, sample) -> None:
        if node_id == "n0":
            head_executions["committed"] += sample.committed
            head_executions["aborted"] += sample.aborted
        if not quiet:
            print(
                f"[{node_id}] block {sample.height}: "
                f"{sample.txs} txs, {sample.committed} committed, "
                f"{sample.aborted} aborted, "
                f"pool depth {sample.mempool_depth}, "
                f"lane-util {sample.lane_utilization:.2f}"
            )

    network = NodeNetwork(config, on_block=on_block)
    try:
        with obs.instrumented() as state:
            result = network.run()
    except ValueError as exc:
        raise CLIError(str(exc)) from None

    print()
    print(
        f"{config.nodes}-node {config.chain} network over "
        f"{config.transport} transport ({config.consensus}, "
        f"{args.executor} executor): {result.reason} "
        f"at height {result.height}"
    )
    print(
        f"  sim {result.sim_seconds:.2f}s  wall "
        f"{result.wall_seconds:.2f}s  injected {result.injected}  "
        f"committed {result.committed}  samples {result.samples}"
    )
    for snap in result.snapshots:
        print(
            f"  {snap.node_id}: height {snap.height} "
            f"head {snap.head_hash[:12]} root {snap.chain_root[:12]} "
            f"proposed {snap.proposed} applied {snap.applied} "
            f"reorgs {snap.reorgs} pool {len(snap.pool_hashes)}"
        )
    print(f"  fingerprint {network_fingerprint(result)[:16]}")

    if args.snapshot_out:
        import json

        try:
            with open(args.snapshot_out, "w", encoding="utf-8") as fh:
                json.dump(result.snapshot_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise CLIError(
                f"cannot write network snapshot: {exc}"
            ) from None
        print(f"wrote network snapshot to {args.snapshot_out}")

    traces = join_shard_traces(state.lifecycle.traces())
    events = as_events(state.rows)
    _print_lifecycle_report(result, traces, events, args.executor)
    if args.out:
        try:
            count = write_chrome_trace(
                args.out, events, lifecycle_traces=traces
            )
        except OSError as exc:
            raise CLIError(f"cannot write trace file: {exc}") from None
        print()
        print(f"wrote {count} trace events to {args.out}")

    status = 0
    if not result.converged:
        status = _not_converged(result)
    elif not result.roots_agree:
        print(
            "error: per-node chain state roots disagree",
            file=sys.stderr,
        )
        status = 1
    attempts = head_executions["committed"] + head_executions["aborted"]
    abort_rate = head_executions["aborted"] / attempts if attempts else 0.0
    if args.max_abort_rate is not None and abort_rate > args.max_abort_rate:
        print(
            f"SLO BREACH: abort-rate: abort_rate={abort_rate:.4g} "
            f"violates <= {args.max_abort_rate:g}",
            file=sys.stderr,
        )
        status = 1
    return status


def cmd_regress(args: argparse.Namespace) -> int:
    """Compare a fresh deterministic snapshot against the baseline.

    Exit 0 when every key is within tolerance, 1 on any regression,
    2 on usage errors (missing baseline, unknown chain, bad schema).
    With ``--update`` the baseline file is (re)written instead.
    """
    from repro.obs.regress import (
        DEFAULT_EXECUTORS,
        build_snapshot,
        compare_snapshots,
        load_snapshot,
        tolerances_from_spec,
        write_snapshot,
    )

    if args.update:
        try:
            snapshot = build_snapshot(
                chain=args.chain, blocks=args.blocks, cores=args.cores,
                seed=args.seed,
            )
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        write_snapshot(args.baseline, snapshot)
        print(f"wrote baseline snapshot to {args.baseline}")
        return 0

    try:
        baseline = load_snapshot(args.baseline)
    except FileNotFoundError:
        raise CLIError(
            f"baseline {args.baseline!r} not found; create it with "
            "--update"
        ) from None
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    try:
        tolerances = tolerances_from_spec(baseline.pop("tolerances", {}))
    except ValueError as exc:
        raise CLIError(str(exc)) from None

    workload = baseline.get("workload", {})
    try:
        fresh = build_snapshot(
            chain=workload.get("chain", args.chain),
            blocks=int(workload.get("blocks", args.blocks)),
            cores=int(workload.get("cores", args.cores)),
            seed=int(workload.get("seed", args.seed)),
            executors=tuple(
                workload.get("executors") or DEFAULT_EXECUTORS
            ),
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    if args.snapshot_out:
        write_snapshot(args.snapshot_out, fresh)
        print(f"wrote fresh snapshot to {args.snapshot_out}")
    report = compare_snapshots(baseline, fresh, tolerances=tolerances)
    print(report.render())
    return 0 if report.ok else 1


def cmd_staticcheck(args: argparse.Namespace) -> int:
    """Lint a workload's contract registry with the static analyzer.

    Deploys the profile's contract population (no chain is mined) and
    runs the abstract interpreter over every registered program.  Exit
    status 1 when any contract has errors (or, with ``--strict``, any
    finding at all), 0 when the registry is clean.
    """
    import dataclasses

    from repro.staticcheck import lint_registry, render_lint_report
    from repro.workload.account_workload import AccountWorkloadBuilder

    profile = _resolve_profile(args.chain)
    if profile.data_model != "account":
        raise CLIError(
            f"chain {args.chain!r} is a {profile.data_model} chain with "
            "no contract code; pick an account chain"
        )
    if args.dynamic:
        if args.dynamic > profile.num_contracts:
            raise CLIError(
                f"--dynamic {args.dynamic} exceeds the profile's "
                f"{profile.num_contracts} contracts"
            )
        profile = dataclasses.replace(
            profile, num_dynamic_contracts=args.dynamic
        )
    builder = AccountWorkloadBuilder(profile=profile, seed=args.seed)
    if args.with_defects:
        from repro.vm.opcodes import Instruction, Op

        # Hand-built defective programs (the assembler rejects these
        # now, so they are registered as raw instruction tuples): dead
        # code behind an unconditional jump, a guaranteed stack
        # underflow, and an out-of-range jump target.
        builder.registry.register(
            "defect_unreachable",
            (
                Instruction(op=Op.JUMP, operand=2),
                Instruction(op=Op.SSTORE, operand="dead"),
                Instruction(op=Op.STOP, operand=None),
            ),
        )
        builder.registry.register(
            "defect_underflow", (Instruction(op=Op.POP, operand=None),)
        )
        builder.registry.register(
            "defect_jump_range", (Instruction(op=Op.JUMP, operand=99),)
        )
    report = lint_registry(builder.registry)
    print(render_lint_report(report))
    return report.exit_code(strict=args.strict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On Exploiting Transaction Concurrency To "
            "Speed Up Blockchains' (ICDCS 2020)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("table1", help="print paper Table I")
    sub.set_defaults(func=cmd_table1)

    sub = subparsers.add_parser(
        "analyze", help="simulate a chain and print its conflict series"
    )
    _add_generation_args(sub)
    sub.set_defaults(func=cmd_analyze)

    sub = subparsers.add_parser(
        "speedup", help="print Fig. 10-style speed-up series"
    )
    _add_generation_args(sub)
    sub.add_argument("--cores", type=_core_counts, default=(4, 8, 64),
                     help="comma-separated core counts (default: 4,8,64)")
    sub.set_defaults(func=cmd_speedup)

    sub = subparsers.add_parser(
        "compare", help="compare two chains (Figs. 8-9 style)"
    )
    sub.add_argument("--left", required=True)
    sub.add_argument("--right", required=True)
    sub.add_argument("--blocks", type=positive_int, default=80)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scale", type=positive_float, default=0.5)
    sub.set_defaults(func=cmd_compare)

    sub = subparsers.add_parser(
        "examples", help="print the paper's worked examples"
    )
    sub.set_defaults(func=cmd_examples)

    sub = subparsers.add_parser(
        "export", help="export a simulated chain to CSV tables"
    )
    _add_generation_args(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_export)

    from repro.core.parallel import BACKENDS
    from repro.execution.registry import ENGINES

    sub = subparsers.add_parser(
        "replay",
        help="replay a chain through the engines; print per-engine "
             "speed-ups beside the Eq. 1 / Eq. 2 bounds and state-root "
             "digests (exit 1 on cross-engine divergence)",
    )
    known = ", ".join(sorted(PROFILES_BY_NAME))
    sub.add_argument(
        "--chain", required=True, metavar="NAME",
        help=f"which blockchain profile to replay (one of: {known})",
    )
    sub.add_argument(
        "--engines", default="", metavar="A,B,...",
        help="comma-separated engine subset (default: all of "
             f"{', '.join(ENGINES)})",
    )
    sub.add_argument("--blocks", type=positive_int, default=20,
                     help="number of blocks to replay")
    sub.add_argument("--seed", type=int, default=0,
                     help="determinism seed")
    sub.add_argument("--scale", type=positive_float, default=1.0,
                     help="transaction-volume multiplier")
    sub.add_argument("--cores", type=positive_int, default=4,
                     help="simulated cores handed to each engine")
    sub.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="backend of the replay fan-out (default: serial; the "
             "process backend replays identically, see "
             "docs/parallel_pipeline.md)",
    )
    sub.add_argument(
        "--jobs", type=positive_int, default=None, metavar="N",
        help="replay worker count for the process backend "
             "(default: usable CPU count)",
    )
    sub.add_argument(
        "--chunk-size", type=positive_int, default=None, metavar="BLOCKS",
        help="blocks per replay work unit (default: balanced)",
    )
    sub.add_argument(
        "--out", default="",
        help="write the merged replay events as a Chrome trace here",
    )
    sub.add_argument(
        "--prometheus-out", default="",
        help="write the replay's metrics in the Prometheus text format",
    )
    sub.set_defaults(func=cmd_replay)

    sub = subparsers.add_parser(
        "node",
        help="run an N-node network (mempool ingress, gossip, "
             "consensus, executor-replay validation) to a target "
             "height; print where each transaction's latency went",
    )
    sub.add_argument(
        "action", choices=("run",),
        help="node subcommand (currently only 'run')",
    )
    sub.add_argument(
        "--chain", required=True, metavar="NAME",
        help=f"which blockchain profile to run (one of: {known})",
    )
    sub.add_argument(
        "--executor", default="occ", choices=ENGINES,
        help="execution engine for proposal and validation replay "
             "(default: occ)",
    )
    sub.add_argument(
        "--transport", default="virtual", choices=("virtual", "tcp"),
        help="virtual = deterministic simulated clock + seeded "
             "faults; tcp = real asyncio loopback sockets "
             "(default: virtual)",
    )
    sub.add_argument(
        "--consensus", default=None, choices=("pow", "pbft"),
        help="block proposal schedule (default: pbft for sharded "
             "chains, pow otherwise)",
    )
    sub.add_argument("--nodes", type=positive_int, default=4,
                     help="network size (default: 4)")
    sub.add_argument("--height", type=positive_int, default=5,
                     help="target chain height (default: 5)")
    sub.add_argument("--seed", type=int, default=2020,
                     help="determinism seed")
    sub.add_argument("--scale", type=positive_float, default=1.0,
                     help="transaction-volume multiplier")
    sub.add_argument("--cores", type=positive_int, default=2,
                     help="simulated executor cores per node")
    sub.add_argument(
        "--workload-blocks", type=positive_int, default=6, metavar="N",
        help="seeded workload size in source blocks (default: 6)",
    )
    sub.add_argument(
        "--block-interval", type=positive_float, default=2.0, metavar="SECONDS",
        help="target seconds between blocks (default: 2.0)",
    )
    sub.add_argument(
        "--block-weight", type=positive_int, default=400, metavar="W",
        help="block weight budget for packing (default: 400)",
    )
    sub.add_argument(
        "--latency", type=positive_float, default=0.01, metavar="SECONDS",
        help="virtual-transport base link latency (default: 0.01)",
    )
    sub.add_argument(
        "--loss", type=non_negative_float, default=0.0, metavar="FRAC",
        help="virtual-transport frame loss probability (default: 0)",
    )
    sub.add_argument(
        "--duplicate", type=non_negative_float, default=0.0, metavar="FRAC",
        help="virtual-transport duplication probability (default: 0)",
    )
    sub.add_argument(
        "--reorder", type=non_negative_float, default=0.0, metavar="FRAC",
        help="virtual-transport reorder probability (default: 0)",
    )
    sub.add_argument(
        "--max-sim-time", type=positive_float, default=600.0, metavar="SECONDS",
        help="simulated-time budget before giving up with exit 1 "
             "(default: 600)",
    )
    sub.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-block stream; print only the summary",
    )
    sub.add_argument(
        "--snapshot-out", default="", metavar="PATH",
        help="write the deterministic network snapshot as JSON "
             "(CI artifact)",
    )
    sub.add_argument(
        "--out", default="", metavar="PATH",
        help="write a Chrome trace (execution + lifecycle flows) here",
    )
    sub.add_argument(
        "--max-abort-rate", type=non_negative_float, default=None,
        metavar="FRAC",
        help="fail (exit 1) when n0's run-wide abort rate, aborted / "
             "(committed + aborted), exceeds this fraction",
    )
    sub.set_defaults(func=cmd_node)

    sub = subparsers.add_parser(
        "regress",
        help="diff a fresh deterministic snapshot against the checked-in "
             "baseline (exit 1 on regression)",
    )
    sub.add_argument(
        "--baseline", default="tests/obs/baseline/regress_baseline.json",
        help="baseline snapshot path",
    )
    sub.add_argument(
        "--update", action="store_true",
        help="(re)write the baseline from the current code instead of "
             "comparing",
    )
    sub.add_argument(
        "--snapshot-out", default="",
        help="also write the fresh snapshot here (CI artifact)",
    )
    sub.add_argument("--chain", default="ethereum",
                     help="workload chain (with --update)")
    sub.add_argument("--blocks", type=positive_int, default=10,
                     help="workload blocks (with --update)")
    sub.add_argument("--cores", type=positive_int, default=4,
                     help="simulated cores (with --update)")
    sub.add_argument("--seed", type=int, default=2020,
                     help="determinism seed (with --update)")
    sub.set_defaults(func=cmd_regress)

    sub = subparsers.add_parser(
        "staticcheck",
        help="lint a workload's contract registry with the static "
             "analyzer (exit 1 on errors)",
    )
    known = ", ".join(sorted(PROFILES_BY_NAME))
    sub.add_argument(
        "--chain", required=True, metavar="NAME",
        help=f"account-chain profile to lint (one of: {known})",
    )
    sub.add_argument("--seed", type=int, default=0,
                     help="determinism seed")
    sub.add_argument(
        "--dynamic", type=non_negative_int, default=0, metavar="N",
        help="deploy N dynamic-operand contracts (⊤-widening cases)",
    )
    sub.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors for the exit status",
    )
    sub.add_argument(
        "--with-defects", action="store_true",
        help="seed known-defective programs (for CI smoke tests)",
    )
    sub.set_defaults(func=cmd_staticcheck)

    sub = subparsers.add_parser(
        "report",
        help="regenerate every paper table/figure into a directory",
    )
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--blocks", type=positive_int, default=120)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scale", type=positive_float, default=0.5)
    sub.add_argument("--buckets", type=positive_int, default=16)
    sub.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # A usage error (status 2, printed by argparse) or ``--help`` (0).
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout left (``repro ... | head``).  Point stdout
        # at devnull so the exit flush cannot raise again; see the
        # SIGPIPE note in the Python docs' ``signal`` module.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
