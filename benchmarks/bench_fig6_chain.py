"""Fig. 6: the 18-transaction intra-block spend chain of block 500000.

Reconstructs the chain, renders it in the figure's style (short hashes,
output values in BTC), and shows that its transactions must execute
sequentially: even the 64-core grouped executor needs 18 time units.
The benchmark times chain construction + TDG + scheduling.
"""

from __future__ import annotations

from _common import write_output

from repro.analysis.examples import figure_6_chain
from repro.chain.hashing import short_hash
from repro.execution.engine import tasks_from_utxo_block
from repro.execution.registry import run_engine


def _build_and_schedule():
    transactions, tdg = figure_6_chain()
    tasks = tasks_from_utxo_block(transactions)
    report = run_engine("grouped", tasks, 64)
    return transactions, tdg, report


def test_fig6_chain(benchmark):
    transactions, tdg, report = benchmark(_build_and_schedule)

    lines = ["Fig. 6: intra-block TXO spend chain (block 500000 analogue)"]
    for step, tx in enumerate(transactions):
        main = tx.outputs[0]
        splinter = (
            f"  splinter {tx.outputs[1].value_in_coins():.5f} BTC"
            if len(tx.outputs) > 1
            else ""
        )
        lines.append(
            f"  {step:2d}  {short_hash(tx.tx_hash)}  "
            f"main {main.value_in_coins():.5f} BTC{splinter}"
        )
    lines.append("")
    lines.append(f"chain length: {tdg.lcc_size} (paper: 18)")
    lines.append(
        f"grouped executor on 64 cores: wall time {report.wall_time:.0f} "
        f"units for {report.num_tasks} transactions (fully sequential)"
    )
    write_output("fig6_chain", "\n".join(lines))

    assert len(transactions) == 18
    assert tdg.lcc_size == 18
    assert report.wall_time == 18.0
