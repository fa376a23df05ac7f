"""Extension: the execution engine validates the analytical models.

The paper stops at analytical predictions ("we have not designed and
implemented an execution engine").  This bench goes one step further:
it runs the simulated engines over real synthetic Ethereum blocks and
compares measured speed-ups against Eqs. 1-2, block by block.

Checks: the speculative engine's wall time matches the exact Eq. 1
accounting; the grouped engine respects (and approaches) the
min(n, 1/l) bound; OCC sits in between.
"""

from __future__ import annotations

import math

from _common import get_chain, write_output

from repro.analysis.report import render_table
from repro.core.speedup import group_speedup_bound
from repro.core.tdg import account_tdg
from repro.execution.engine import tasks_from_tdg
from repro.execution.registry import run_engine

CORES = 8


def _blocks(min_txs=30, limit=25):
    chain = get_chain("ethereum")
    selected = []
    for block, executed in chain.account_builder.executed_blocks:
        regular = [item for item in executed if not item.is_coinbase]
        if len(regular) >= min_txs:
            selected.append((block.height, executed))
        if len(selected) >= limit:
            break
    return selected


def _run_engines(blocks):
    rows = []
    for height, executed in blocks:
        tdg = account_tdg(executed)
        tasks = tasks_from_tdg(tdg)
        x = tdg.num_transactions
        c = tdg.num_conflicted / x
        l = tdg.lcc_size / x
        spec = run_engine("speculative", tasks, CORES)
        grouped = run_engine("grouped", tasks, CORES)
        occ = run_engine("occ", tasks, CORES)
        rows.append(
            {
                "height": height,
                "x": x,
                "c": c,
                "l": l,
                "spec": spec,
                "grouped": grouped,
                "occ": occ,
            }
        )
    return rows


def test_execution_engine_vs_models(benchmark, obs_session):
    blocks = _blocks()
    assert blocks, "no sufficiently large blocks generated"
    rows = benchmark(_run_engines, blocks)

    table_rows = []
    for row in rows:
        bound = group_speedup_bound(CORES, row["l"])
        table_rows.append(
            (
                row["height"],
                row["x"],
                f"{row['c']:.2f}",
                f"{row['l']:.2f}",
                f"{row['spec'].speedup:.2f}",
                f"{row['occ'].speedup:.2f}",
                f"{row['grouped'].speedup:.2f}",
                f"{bound:.2f}",
            )
        )
    write_output(
        "execution_engine",
        render_table(
            ["block", "x", "c", "l", "speculative", "occ", "grouped",
             "Eq.2 bound"],
            table_rows,
            title=f"Simulated engines vs. analytical models ({CORES} cores)",
        ),
    )

    for row in rows:
        x, c, l = row["x"], row["c"], row["l"]
        # Speculative wall time == exact Eq. 1 accounting.
        expected = math.ceil(x / CORES) + round(c * x)
        assert row["spec"].wall_time == expected

        # Grouped engine never beats the paper's bound, and with the
        # LPT schedule it comes close (within the Graham factor).
        bound = group_speedup_bound(CORES, l)
        assert row["grouped"].speedup <= bound + 1e-9
        assert row["grouped"].speedup >= bound / 1.6

        # TDG-informed scheduling never loses to sequential execution;
        # speculation sometimes does (the paper's <1x cases).
        assert row["grouped"].speedup >= 1.0

        # OCC completes everything with bounded rounds.
        assert row["occ"].rounds <= row["x"]

    # Aggregate: grouped wins on average (Fig. 10's message).
    mean_spec = sum(r["spec"].speedup for r in rows) / len(rows)
    mean_grouped = sum(r["grouped"].speedup for r in rows) / len(rows)
    assert mean_grouped > mean_spec


def test_execution_engine_gas_weighted_costs(benchmark):
    """Beyond the paper's unit-cost assumption: gas-proportional costs.

    The analytical models assume every transaction takes one time unit;
    real transactions differ by orders of magnitude (a transfer vs. a
    contract creation).  Re-running the engines with gas-proportional
    task costs shows the unit-cost model's bias: heavy unconflicted
    transactions (creations) lengthen the parallel phase, so measured
    speed-ups drop below the unit-cost predictions while the grouped
    engine still dominates the speculative one.
    """
    from repro.execution.engine import tasks_from_account_block

    blocks = _blocks()

    def run():
        rows = []
        for _height, executed in blocks:
            tasks = tasks_from_account_block(executed, unit_cost=False)
            spec = run_engine("speculative", tasks, CORES)
            grouped = run_engine("grouped", tasks, CORES)
            rows.append((spec, grouped))
        return rows

    rows = benchmark(run)
    table_rows = [
        (
            index,
            report_pair[0].num_tasks,
            f"{report_pair[0].speedup:.2f}",
            f"{report_pair[1].speedup:.2f}",
        )
        for index, report_pair in enumerate(rows)
    ]
    write_output(
        "execution_engine_gas",
        render_table(
            ["block", "tasks", "speculative", "grouped"],
            table_rows,
            title=(
                f"Gas-proportional task costs ({CORES} cores): "
                "heterogeneity vs. the unit-cost assumption"
            ),
        ),
    )
    for spec, grouped in rows:
        assert grouped.speedup >= spec.speedup - 1e-9
        assert grouped.speedup >= 1.0 - 1e-9
    mean_grouped = sum(g.speedup for _s, g in rows) / len(rows)
    assert mean_grouped > 1.2
