"""Parallel execution engines vs. the paper's analytical models.

The paper predicts speed-ups analytically (§V) but builds no engine.
This example builds one synthetic Ethereum block, then actually
schedules it on a simulated multicore with four engines:

* sequential (today's clients),
* fully speculative two-phase execution (Saraph-Herlihy, Eq. 1),
* optimistic concurrency control with retries (Dickerson et al. style),
* TDG-informed group scheduling (Eq. 2's bound, made concrete).

Run:  python examples/parallel_execution.py
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.core.speedup import group_speedup_bound, speculative_speedup
from repro.core.tdg import account_tdg
from repro.execution import run_engine, tasks_from_tdg
from repro.workload import build_account_chain
from repro.workload.profiles import ETHEREUM

CORES = 8


def main() -> None:
    builder = build_account_chain(ETHEREUM, num_blocks=60, seed=9, scale=1.0)
    # Pick the fullest block of the run.
    block, executed = max(
        builder.executed_blocks, key=lambda pair: len(pair[1])
    )
    tdg = account_tdg(executed)
    x = tdg.num_transactions
    c = tdg.num_conflicted / x
    l = tdg.lcc_size / x
    print(
        f"block {block.height}: {x} transactions, "
        f"{len(tdg.groups)} dependency groups, "
        f"conflict rate c={c:.2f}, group rate l={l:.2f}"
    )

    tasks = tasks_from_tdg(tdg)
    rows = []
    for engine in ("sequential", "speculative", "occ", "grouped"):
        report = run_engine(engine, tasks, CORES)
        rows.append(
            (
                report.executor,
                f"{report.wall_time:.1f}",
                f"{report.speedup:.2f}x",
                report.reexecuted,
                report.aborts,
                report.rounds,
            )
        )
    print()
    print(
        render_table(
            ["engine", "wall time", "speed-up", "re-executed", "aborts",
             "rounds"],
            rows,
            title=f"Simulated execution on {CORES} cores",
        )
    )

    print()
    print("analytical predictions for this block:")
    print(f"  Eq. 1 (speculative):  {speculative_speedup(x, CORES, c):.2f}x")
    print(f"  Eq. 2 (group bound):  {group_speedup_bound(CORES, l):.2f}x")


if __name__ == "__main__":
    main()
