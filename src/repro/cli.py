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
fan-out (``--backend`` / ``--jobs`` on ``replay`` and on ``speedup`` /
``compare --measured``), whose output is identical to a serial replay.
Analysis always walks the chain serially.  Unknown ``--chain`` names,
bad ``--jobs`` and friends exit with status 2 and a one-line message.
"""

from __future__ import annotations

import argparse
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


class CLIError(Exception):
    """A user-facing CLI failure: printed to stderr, exit status 2."""


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
    parser.add_argument("--blocks", type=int, default=default_blocks,
                        help="number of blocks to simulate")
    parser.add_argument("--seed", type=int, default=0,
                        help="determinism seed")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="transaction-volume multiplier")
    parser.add_argument("--buckets", type=int, default=16,
                        help="number of time buckets in printed series")


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    from repro.core.parallel import BACKENDS

    parser.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="backend of the executor-replay fan-out; analysis always "
             "runs serially (the process backend replays identically; "
             "see docs/parallel_pipeline.md)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="replay worker count for the process backend "
             "(default: usable CPU count)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="BLOCKS",
        help="blocks per replay work unit (default: balanced)",
    )


def _parallel_kwargs(args: argparse.Namespace) -> dict:
    """Validate --backend/--jobs/--chunk-size into replay kwargs.

    Raises :class:`CLIError` (exit 2) instead of a raw traceback on
    ``--jobs 0`` and friends, mirroring the unknown-chain handling.
    """
    from repro.core.parallel import validate_backend, validate_jobs

    try:
        backend = validate_backend(args.backend)
        jobs = validate_jobs(args.jobs, backend=backend)
        chunk_size = args.chunk_size
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(
                f"chunk size must be >= 1, got {chunk_size}"
            )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    return {"backend": backend, "jobs": jobs, "chunk_size": chunk_size}


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
    try:
        cores = tuple(int(part) for part in args.cores.split(","))
    except ValueError:
        print(f"error: --cores must be comma-separated integers, "
              f"got {args.cores!r}", file=sys.stderr)
        return 2
    if not cores or any(n < 1 for n in cores):
        print("error: core counts must be positive", file=sys.stderr)
        return 2
    parallel = _parallel_kwargs(args)
    chain = _generate(args)
    panels = figure10(chain.history, cores=cores, num_buckets=args.buckets)
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
    if args.measured:
        from repro.execution.parallel_replay import ENGINES, replay_profile

        profile = _resolve_profile(args.chain)
        per_core = {}
        for n in cores:
            result = replay_profile(
                profile, blocks=args.blocks, seed=args.seed,
                scale=args.scale, engines=ENGINES, cores=n, **parallel,
            )
            per_core[n] = {s.engine: s for s in result.summaries()}
        print()
        print(render_table(
            ["engine", *(f"{n} cores" for n in cores)],
            [
                (engine,
                 *(f"{per_core[n][engine].speedup:7.3f}" for n in cores))
                for engine in ENGINES
            ],
            title=(
                f"{args.chain}: measured replay speed-ups "
                f"({parallel['backend']} backend)"
            ),
        ))
        roots = {
            per_core[n][engine].state_root
            for n in cores for engine in ENGINES
        }
        if len(roots) == 1:
            print("state roots identical across all engines and core "
                  "counts")
        else:
            print("warning: engines disagree on committed state roots",
                  file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    parallel = _parallel_kwargs(args)
    headers = ["chain", "mean txs", "single conflict", "group conflict"]
    if args.measured:
        headers += ["spec R", "group R"]
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
        row = (
            name,
            f"{chain.history.mean_transactions_per_block():9.1f}",
            format_rate(single),
            format_rate(group),
        )
        if args.measured:
            from repro.execution.parallel_replay import replay_profile

            result = replay_profile(
                profile, blocks=args.blocks, seed=args.seed,
                scale=args.scale, engines=("speculative", "grouped"),
                cores=args.cores, **parallel,
            )
            row = row + (
                f"{result.summary('speculative').speedup:6.3f}",
                f"{result.summary('grouped').speedup:6.3f}",
            )
        rows.append(row)
    title = "chain comparison (cf. paper Figs. 8-9)"
    if args.measured:
        title += f"; measured R on {args.cores} cores"
    print(render_table(headers, rows, title=title))
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


def cmd_timeline(args: argparse.Namespace) -> int:
    """Replay a chain through one executor; emit a Chrome trace.

    Every block's run comes back with its schedule; its events are
    exported as Chrome trace-event JSON (``--out`` or stdout) and a
    per-block measured-vs-analytical table (Eq. 1 / Eq. 2) is printed —
    to stderr when the JSON goes to stdout, so the trace stays parseable.
    """
    from repro.execution.parallel_replay import replay_block_inputs
    from repro.execution.registry import PREDICTION_ENGINES, run_engine
    from repro.execution.schedule import timeline_rows
    from repro.obs.critical_path import (
        compare_to_bounds,
        profile_events,
        task_conflict_profile,
    )
    from repro.obs.exporters import write_chrome_trace
    from repro.obs.timeline import as_events

    profile = _resolve_profile(args.chain)
    if args.cores < 1:
        raise CLIError("--cores must be at least 1")
    if args.blocks < 1:
        raise CLIError("--blocks must be at least 1")

    info = sys.stderr if not args.out else sys.stdout
    rows = []
    event_rows = []
    for block in replay_block_inputs(
        profile, blocks=args.blocks, seed=args.seed, scale=args.scale,
        predict=args.executor in PREDICTION_ENGINES,
    ):
        if not block.tasks:
            continue
        height = block.height
        conflict = task_conflict_profile(block.tasks)
        report = run_engine(args.executor, block, args.cores)
        block_rows = timeline_rows(report, height)
        event_rows += block_rows
        block_profile = profile_events(as_events(block_rows))
        comparison = compare_to_bounds(report, conflict)
        flag = "" if comparison.within_eq2 else (
            " !" if not comparison.strict else " VIOLATION"
        )
        rows.append((
            str(height), str(conflict.x),
            f"{comparison.measured:.3f}", f"{comparison.eq1:.3f}",
            f"{comparison.eq2:.3f}{flag}",
            f"{block_profile.critical_chain_cost:.1f}",
            f"{block_profile.mean_utilization:.2f}",
        ))
    events = as_events(event_rows)
    if args.out:
        try:
            count = write_chrome_trace(args.out, events)
        except OSError as exc:
            raise CLIError(f"cannot write trace file: {exc}") from None
        print(f"wrote {count} trace events to {args.out}", file=info)
    else:
        import json

        from repro.obs.exporters import chrome_trace_events

        print(json.dumps(
            {"traceEvents": chrome_trace_events(events),
             "displayTimeUnit": "ms"},
        ))
    if not rows:
        print(
            "(no executable transactions in the replayed blocks — "
            "empty timeline; try more --blocks or a larger --scale)",
            file=info,
        )
        return 0
    print(render_table(
        ["block", "txs", "measured R", "Eq.1 R", "Eq.2 bound",
         "crit path", "util"],
        rows,
        title=(
            f"{args.chain} / {args.executor} on {args.cores} lanes "
            "(! = bound legitimately exceeded; see docs/observability.md)"
        ),
    ), file=info)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Fan a chain's executor replay over workers; print per-engine digests.

    Every block replays through every requested engine on the chosen
    backend (``--backend serial|process``).  The printed table
    carries each engine's measured speed-up and determinism digests;
    the command exits 1 when any two engines disagree on the committed
    state root — the same cross-executor differential check
    ``tests/execution/test_differential.py`` runs in CI.  ``--out``
    writes the replay's engines' events as a Chrome trace and
    ``--prometheus-out`` its metrics registry in the Prometheus text
    format.
    """
    from repro import obs
    from repro.execution.parallel_replay import (
        ENGINES,
        replay_profile,
        validate_engines,
    )
    from repro.obs.exporters import render_prometheus, write_chrome_trace
    from repro.obs.timeline import as_events

    profile = _resolve_profile(args.chain)
    if args.cores < 1:
        raise CLIError("--cores must be at least 1")
    if args.blocks < 1:
        raise CLIError("--blocks must be at least 1")
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
    parallel = _parallel_kwargs(args)

    with obs.instrumented() as state:
        result = replay_profile(
            profile, blocks=args.blocks, seed=args.seed, scale=args.scale,
            engines=engines, cores=args.cores, **parallel,
        )
    summaries = result.summaries()
    print(render_table(
        ["engine", "blocks", "txs", "wall", "R", "commits", "aborts",
         "retries", "state root"],
        [
            (
                s.engine,
                str(s.blocks),
                str(s.tasks),
                f"{s.wall_time:9.1f}",
                f"{s.speedup:6.3f}",
                str(s.committed),
                str(s.aborted),
                str(s.retried),
                s.state_root[:16],
            )
            for s in summaries
        ],
        title=(
            f"{args.chain}: executor replay on {args.cores} cores "
            f"({parallel['backend']} backend, {args.blocks} blocks)"
        ),
    ))
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


def _lifecycle_network(args: argparse.Namespace, **fields):
    """The node network ``lifecycle`` and ``monitor`` run, from their
    shared options (a bad value raises :class:`CLIError`, exit 2)."""
    from repro.node import lifecycle_config

    if args.mempool_weight is not None:
        fields["mempool_weight"] = args.mempool_weight
    try:
        return lifecycle_config(
            args.chain,
            blocks=args.blocks,
            seed=args.seed,
            scale=args.scale,
            cores=args.cores,
            nodes=args.nodes,
            engine=args.executor,
            **fields,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _not_converged(result) -> int:
    print(
        f"error: network did not converge ({result.reason})",
        file=sys.stderr,
    )
    return 1


def cmd_lifecycle(args: argparse.Namespace) -> int:
    """Run the full pipeline; print the per-stage latency breakdown.

    The seeded workload runs on a virtual node network
    (:func:`repro.node.lifecycle_config`): every transaction flows
    mempool → gossip → (sharding) → packing → consensus → execution
    under lifecycle tracing; the report shows where end-to-end latency
    goes per stage (count/p50/p95/p99 and the share of total traced
    time), the slowest traces stage by stage, and the proposers'
    per-lane Gantt chart.  ``--out`` additionally writes the stitched
    traces and execution timeline as one Chrome trace file.  Exits 1
    when the network does not converge.
    """
    from repro import obs
    from repro.analysis.report import render_gantt, render_stage_shares
    from repro.node import NodeNetwork
    from repro.obs.exporters import write_chrome_trace
    from repro.obs.lifecycle import (
        join_shard_traces,
        slowest_traces,
        stage_breakdown,
        stage_shares,
    )
    from repro.obs.timeline import as_events

    _resolve_profile(args.chain)
    if args.top < 1:
        raise CLIError("--top must be at least 1")
    config = _lifecycle_network(args)
    try:
        with obs.instrumented() as state:
            result = NodeNetwork(config).run()
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    traces = join_shard_traces(state.lifecycle.traces())
    outcomes = [trace.outcome for trace in traces]

    print(
        f"{args.chain} / {args.executor}: {result.injected} admitted, "
        f"{outcomes.count('committed')} committed, "
        f"{outcomes.count('dropped')} dropped, "
        f"{outcomes.count(None)} open over {args.blocks} block(s) on "
        f"{config.nodes} nodes ({result.reason})"
    )
    breakdown = stage_breakdown(traces)
    if not breakdown:
        print("(no traces recorded)")
        return 0 if result.converged else _not_converged(result)
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
    slowest = slowest_traces(traces, limit=args.top)
    if slowest:
        print(f"slowest {args.top} trace(s):")
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
    events = as_events(state.rows)
    gantt = render_gantt(
        events, title=f"executor lanes ({args.executor})"
    )
    print()
    print(gantt)
    if args.out:
        try:
            count = write_chrome_trace(
                args.out, events, lifecycle_traces=traces
            )
        except OSError as exc:
            raise CLIError(f"cannot write trace file: {exc}") from None
        print()
        print(f"wrote {count} trace events to {args.out}")
    return 0 if result.converged else _not_converged(result)


def cmd_monitor(args: argparse.Namespace) -> int:
    """Stream the pipeline through the sliding-window SLO monitor.

    Runs the same seeded node network as ``lifecycle`` but watches it
    live: after each block the followed node (``--follow-node``) makes
    its head, the monitor folds that node's :class:`BlockSample` into
    its ring buffer and (unless ``--once``) re-renders the windowed
    dashboard — abort rate, stage percentiles, lane
    utilization, mempool depth, and block wall-clock percentiles.
    ``--once`` prints only the final window (the CI snapshot mode);
    ``--snapshot-out`` writes the aggregate + rule verdicts as JSON.

    Exit status: 0 when no *hard* rule breached and the network
    converged, 1 on a hard breach (only ``--max-abort-rate`` installs
    one; the wall-clock gate from ``--wall-p95`` is always advisory) or
    a network that does not converge, 2 on bad arguments.
    """
    from repro import obs
    from repro.node import NodeNetwork
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.monitor import (
        StreamingMonitor,
        default_rules,
        monitor_snapshot,
        render_monitor,
    )

    _resolve_profile(args.chain)
    if args.window < 1:
        raise CLIError("--window must be at least 1")
    if args.max_abort_rate is not None and args.max_abort_rate < 0:
        raise CLIError("--max-abort-rate must be non-negative")
    if args.wall_p95 is not None and args.wall_p95 <= 0:
        raise CLIError("--wall-p95 must be positive")
    config = _lifecycle_network(
        args, transport=args.transport, max_sim_time=args.max_sim_time,
    )
    follow_id = args.follow_node
    if follow_id not in (f"n{i}" for i in range(config.nodes)):
        raise CLIError(
            f"--follow-node {follow_id!r} is not in the network "
            f"(nodes are n0..n{config.nodes - 1})"
        )
    rules = default_rules(
        max_abort_rate=args.max_abort_rate,
        wall_p95_budget=args.wall_p95,
    )
    registry = MetricsRegistry()
    monitor = StreamingMonitor(
        window=args.window, rules=rules, registry=registry
    )
    live = not args.once

    def on_block(node_id: str, sample) -> None:
        if node_id != follow_id:
            return
        aggregate = monitor.observe_block(sample)
        if live:
            print(render_monitor(
                aggregate,
                monitor.evaluate(aggregate),
                title=f"{args.chain} block {sample.height}",
            ))
            print()

    try:
        with obs.instrumented(registry=registry):
            result = NodeNetwork(config, on_block=on_block).run()
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    print(
        f"network {result.reason} at height {result.height} "
        f"(sim {result.sim_seconds:.2f}s, "
        f"{result.committed} committed)"
    )

    aggregate = monitor.aggregate()
    results = monitor.evaluate(aggregate)
    if monitor.blocks_seen == 0:
        print(
            "(no blocks produced transactions — nothing to monitor; "
            "try more --blocks or a larger --scale)"
        )
        return 0 if result.converged else _not_converged(result)
    if not live:
        print(render_monitor(
            aggregate, results,
            title=f"{args.chain} / {args.executor}",
        ))
    if args.snapshot_out:
        import json

        try:
            with open(args.snapshot_out, "w", encoding="utf-8") as fh:
                json.dump(
                    monitor_snapshot(aggregate, results), fh, indent=2
                )
                fh.write("\n")
        except OSError as exc:
            raise CLIError(
                f"cannot write monitor snapshot: {exc}"
            ) from None
        print(f"wrote monitor snapshot to {args.snapshot_out}")
    breaches = monitor.hard_breaches(results)
    if breaches:
        for breach in breaches:
            print(
                f"SLO BREACH: {breach.rule.name}: "
                f"{breach.rule.metric}={breach.value:.4g} violates "
                f"{breach.rule.op} {breach.rule.threshold:g}",
                file=sys.stderr,
            )
        return 1
    return 0 if result.converged else _not_converged(result)


def cmd_node(args: argparse.Namespace) -> int:
    """Run an N-node in-process network to a target height.

    ``repro node run`` boots N full nodes (mempool ingress, push-relay
    gossip, PoW/PBFT proposal, executor-replay validation with fork
    choice) over the chosen transport, injects the seeded chain
    workload through random ingress nodes, and runs until every node
    converges — same head, height at least ``--height``, every mempool
    drained — or the simulation budget runs out.

    Exit status: 0 when the network converged with byte-identical
    per-node chain state roots; 1 on divergence, timeout, or a root
    mismatch; 2 on bad arguments.
    """
    from repro import obs
    from repro.node import (
        FaultProfile,
        NetworkConfig,
        NodeNetwork,
        network_fingerprint,
    )

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
            consensus=args.consensus,
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

    def on_block(node_id: str, sample) -> None:
        if not quiet:
            print(
                f"[{node_id}] block {sample.height}: "
                f"{sample.txs} txs, {sample.committed} committed, "
                f"{sample.aborted} aborted, "
                f"pool depth {sample.mempool_depth}"
            )

    network = NodeNetwork(config, on_block=on_block)
    try:
        with obs.instrumented():
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

    if not result.converged:
        return _not_converged(result)
    if not result.roots_agree:
        print(
            "error: per-node chain state roots disagree",
            file=sys.stderr,
        )
        return 1
    return 0


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
    if args.dynamic < 0:
        raise CLIError("--dynamic must be non-negative")
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
    _add_parallel_args(sub)
    sub.add_argument("--cores", default="4,8,64",
                     help="comma-separated core counts")
    sub.add_argument(
        "--measured", action="store_true",
        help="also replay every engine at each core count and print "
             "measured speed-ups beside the Eq. 1 / Eq. 2 bounds",
    )
    sub.set_defaults(func=cmd_speedup)

    sub = subparsers.add_parser(
        "compare", help="compare two chains (Figs. 8-9 style)"
    )
    sub.add_argument("--left", required=True)
    sub.add_argument("--right", required=True)
    sub.add_argument("--blocks", type=int, default=80)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scale", type=float, default=0.5)
    _add_parallel_args(sub)
    sub.add_argument("--cores", type=int, default=4,
                     help="simulated cores for --measured replays")
    sub.add_argument(
        "--measured", action="store_true",
        help="add measured speculative/grouped speed-up columns from a "
             "replay of each chain",
    )
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

    sub = subparsers.add_parser(
        "timeline",
        help="replay one executor and trace its schedule; emit a "
             "Chrome trace and measured-vs-analytical bounds",
    )
    known = ", ".join(sorted(PROFILES_BY_NAME))
    sub.add_argument(
        "--chain", required=True, metavar="NAME",
        help=f"which blockchain profile to replay (one of: {known})",
    )
    from repro.execution.registry import ENGINES

    sub.add_argument(
        "--executor", default="speculative", choices=ENGINES,
        help="execution engine to record (default: speculative)",
    )
    sub.add_argument(
        "--cores", type=int, default=4, metavar="N",
        help="simulated worker lanes / cores (default: 4)",
    )
    sub.add_argument("--blocks", type=int, default=20,
                     help="number of blocks to replay")
    sub.add_argument("--seed", type=int, default=0,
                     help="determinism seed")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="transaction-volume multiplier")
    sub.add_argument(
        "--out", default="",
        help="write the Chrome trace JSON here (default: stdout)",
    )
    sub.set_defaults(func=cmd_timeline)

    sub = subparsers.add_parser(
        "replay",
        help="fan the per-block executor replay over workers; print "
             "per-engine speed-ups and state-root digests (exit 1 on "
             "cross-engine divergence)",
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
    sub.add_argument("--blocks", type=int, default=20,
                     help="number of blocks to replay")
    sub.add_argument("--seed", type=int, default=0,
                     help="determinism seed")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="transaction-volume multiplier")
    sub.add_argument("--cores", type=int, default=4,
                     help="simulated cores handed to each engine")
    _add_parallel_args(sub)
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
        "lifecycle",
        help="trace every transaction mempool→gossip→consensus→commit; "
             "print the per-stage latency breakdown",
    )
    known = ", ".join(sorted(PROFILES_BY_NAME))
    sub.add_argument(
        "--chain", required=True, metavar="NAME",
        help=f"which blockchain profile to run (one of: {known})",
    )
    sub.add_argument(
        "--executor", default="dag", choices=ENGINES,
        help="execution engine for the commit stage (default: dag)",
    )
    sub.add_argument("--blocks", type=int, default=5,
                     help="workload blocks, and the chain height the "
                          "network runs to")
    sub.add_argument("--seed", type=int, default=0,
                     help="determinism seed")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="transaction-volume multiplier")
    sub.add_argument("--cores", type=int, default=4,
                     help="simulated cores for the executor")
    sub.add_argument("--nodes", type=int, default=4,
                     help="node network size (default: 4)")
    sub.add_argument(
        "--mempool-weight", type=int, default=None, metavar="W",
        help="mempool capacity; small values force evictions "
             "(default: unbounded)",
    )
    sub.add_argument("--top", type=int, default=3, metavar="N",
                     help="slowest traces to drill into (default: 3)")
    sub.add_argument(
        "--out", default="",
        help="write a Chrome trace (execution + lifecycle flows) here",
    )
    sub.set_defaults(func=cmd_lifecycle)

    sub = subparsers.add_parser(
        "monitor",
        help="stream the pipeline through a sliding-window SLO "
             "monitor (abort rate, stage percentiles, lane "
             "utilization, mempool depth)",
    )
    sub.add_argument(
        "--chain", required=True, metavar="NAME",
        help=f"which blockchain profile to run (one of: {known})",
    )
    sub.add_argument(
        "--executor", default="dag", choices=ENGINES,
        help="execution engine for the commit stage (default: dag)",
    )
    sub.add_argument("--blocks", type=int, default=8,
                     help="workload blocks, and the chain height the "
                          "network runs to")
    sub.add_argument("--seed", type=int, default=0,
                     help="determinism seed")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="transaction-volume multiplier")
    sub.add_argument("--cores", type=int, default=4,
                     help="simulated cores for the executor")
    sub.add_argument("--nodes", type=int, default=4,
                     help="node network size (default: 4)")
    sub.add_argument(
        "--mempool-weight", type=int, default=None, metavar="W",
        help="mempool capacity; small values force evictions "
             "(default: unbounded)",
    )
    sub.add_argument(
        "--window", type=int, default=8, metavar="BLOCKS",
        help="sliding-window size in blocks (default: 8)",
    )
    sub.add_argument(
        "--once", action="store_true",
        help="print only the final window instead of re-rendering "
             "after every block (CI snapshot mode)",
    )
    sub.add_argument(
        "--max-abort-rate", type=float, default=None, metavar="FRAC",
        help="hard SLO: fail (exit 1) when the windowed abort rate "
             "exceeds this fraction",
    )
    sub.add_argument(
        "--wall-p95", type=float, default=None, metavar="SECONDS",
        help="advisory SLO: report (never fail) when the windowed "
             "block wall-clock p95 exceeds this many real seconds",
    )
    sub.add_argument(
        "--snapshot-out", default="", metavar="PATH",
        help="write the final window aggregate + rule verdicts as "
             "JSON (CI artifact)",
    )
    sub.add_argument(
        "--follow-node", default="n0", metavar="ID",
        help="which node's block stream to follow (default: n0)",
    )
    sub.add_argument(
        "--transport", default="virtual", choices=("virtual", "tcp"),
        help="network transport (default: virtual)",
    )
    sub.add_argument(
        "--max-sim-time", type=float, default=600.0, metavar="SECONDS",
        help="simulated-time budget before giving up with exit 1 "
             "(default: 600)",
    )
    sub.set_defaults(func=cmd_monitor)

    sub = subparsers.add_parser(
        "node",
        help="run a long-running N-node network (mempool ingress, "
             "gossip, consensus, executor-replay validation) to a "
             "target height",
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
        "--consensus", default="pow", choices=("pow", "pbft"),
        help="block proposal schedule (default: pow)",
    )
    sub.add_argument("--nodes", type=int, default=4,
                     help="network size (default: 4)")
    sub.add_argument("--height", type=int, default=5,
                     help="target chain height (default: 5)")
    sub.add_argument("--seed", type=int, default=2020,
                     help="determinism seed")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="transaction-volume multiplier")
    sub.add_argument("--cores", type=int, default=2,
                     help="simulated executor cores per node")
    sub.add_argument(
        "--workload-blocks", type=int, default=6, metavar="N",
        help="seeded workload size in source blocks (default: 6)",
    )
    sub.add_argument(
        "--block-interval", type=float, default=2.0, metavar="SECONDS",
        help="target seconds between blocks (default: 2.0)",
    )
    sub.add_argument(
        "--block-weight", type=int, default=400, metavar="W",
        help="block weight budget for packing (default: 400)",
    )
    sub.add_argument(
        "--latency", type=float, default=0.01, metavar="SECONDS",
        help="virtual-transport base link latency (default: 0.01)",
    )
    sub.add_argument(
        "--loss", type=float, default=0.0, metavar="FRAC",
        help="virtual-transport frame loss probability (default: 0)",
    )
    sub.add_argument(
        "--duplicate", type=float, default=0.0, metavar="FRAC",
        help="virtual-transport duplication probability (default: 0)",
    )
    sub.add_argument(
        "--reorder", type=float, default=0.0, metavar="FRAC",
        help="virtual-transport reorder probability (default: 0)",
    )
    sub.add_argument(
        "--max-sim-time", type=float, default=600.0, metavar="SECONDS",
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
    sub.add_argument("--blocks", type=int, default=10,
                     help="workload blocks (with --update)")
    sub.add_argument("--cores", type=int, default=4,
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
        "--dynamic", type=int, default=0, metavar="N",
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
    sub.add_argument("--blocks", type=int, default=120)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scale", type=float, default=0.5)
    sub.add_argument("--buckets", type=int, default=16)
    sub.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
