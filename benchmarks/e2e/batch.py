"""Inputs and the batch half: chain build, analysis, executor replay.

Everything here calls public ``repro`` functions from outside and
times nothing itself; ``run.py`` wraps these calls in slices and
``layers.py`` in spans.

The inputs are built once per set-up from one chain build (the stock
``replay_block_inputs(predict=True)`` builds the chain twice, once for
tasks and once for predictions; the pieces it is made of are public,
so the benchmark composes them over a single build and keeps the
set-up inside its time budget).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, replace

from repro.core.parallel import (
    BlockInput,
    account_block_inputs,
    analyze_chain,
    utxo_block_inputs,
)
from repro.core.speedup import estimate_block_speedups
from repro.execution.engine import (
    tasks_from_account_block,
    tasks_from_utxo_block,
)
from repro.execution.parallel_replay import (
    ReplayBlock,
    ReplayResult,
    replay_chain,
)
from repro.node import NodeTx
from repro.staticcheck.interproc import ContractAnalyzer, code_bindings
from repro.staticcheck.predict import predict_block, predict_utxo_block
from repro.workload.account_workload import build_account_chain
from repro.workload.profiles import get_profile
from repro.workload.utxo_workload import build_utxo_chain


@dataclass
class Inputs:
    """What one set-up produces."""

    profile: object
    block_inputs: list[BlockInput]      # analysis pipeline
    replay_blocks: list[ReplayBlock]    # executors
    node_txs: list[NodeTx]              # client traffic
    txs: int                            # regular transactions
    widened: int                        # predictions that widened to T


def build_inputs(chain, seed: int, span=None) -> Inputs:
    """One set-up: chain, tasks, static predictions, client transactions.

    *span* is ``layers.Tracer.span`` in a traced run and a no-op
    context otherwise; the three stages are the ``workload``,
    ``execution`` and ``staticcheck`` layers' share of set-up.
    """
    span = span or _no_span
    profile = replace(get_profile(chain.profile), start_year=chain.start_year)
    with span("workload.build"):
        if profile.data_model == "utxo":
            ledger = build_utxo_chain(
                profile, num_blocks=chain.blocks, seed=seed,
                scale=chain.scale,
            )
            block_inputs = utxo_block_inputs(ledger)
        else:
            builder = build_account_chain(
                profile, num_blocks=chain.blocks, seed=seed,
                scale=chain.scale,
            )
            block_inputs = account_block_inputs(builder.executed_blocks)
    with span("execution.tasks"):
        make_tasks = (
            tasks_from_utxo_block if profile.data_model == "utxo"
            else tasks_from_account_block
        )
        tasks = [make_tasks(item.payload) for item in block_inputs]
    with span("staticcheck.predict"):
        if profile.data_model == "utxo":
            predictions = [
                predict_utxo_block(item.payload) for item in block_inputs
            ]
        else:
            analyzer = ContractAnalyzer(
                builder.registry, code_bindings(builder.state)
            )
            predictions = [
                predict_block([tx.tx for tx in item.payload], analyzer)
                for item in block_inputs
            ]
    replay_blocks = [
        ReplayBlock(
            height=item.height, tasks=tuple(block_tasks),
            payload=item.payload, predictions=tuple(block_predictions),
        )
        for item, block_tasks, block_predictions in zip(
            block_inputs, tasks, predictions
        )
    ]
    return Inputs(
        profile=profile,
        block_inputs=block_inputs,
        replay_blocks=replay_blocks,
        node_txs=_client_txs(replay_blocks, seed),
        txs=sum(len(block_tasks) for block_tasks in tasks),
        widened=sum(
            1 for block in predictions for p in block if p.is_widened
        ),
    )


def _client_txs(blocks: list[ReplayBlock], seed: int) -> list[NodeTx]:
    """Flatten blocks into loose client transactions, as
    ``repro.node.build_node_txs`` does: weight-proportional fees with a
    seeded multiplier, payload-less items dropped.

    The list starts at the middle block and wraps around: a UTXO
    chain's first blocks bootstrap from an empty set (1, 25, then
    hundreds of transactions, each spending the few outputs there
    are), and traffic drawn from them is nothing like the rest.
    """
    rng = random.Random(f"{seed}|fees")
    middle = len(blocks) // 2
    txs = []
    for block in blocks[middle:] + blocks[:middle]:
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


def spread_blocks(blocks: list[ReplayBlock], tasks: int) -> list[ReplayBlock]:
    """Non-empty blocks spread over the chain that together hold at
    least *tasks* tasks, in height order.

    Blocks are taken at the 1/2, 1/4, 3/4, 1/8, 3/8 ... points of the
    chain (the van der Corput sequence), so every era of the chain's
    history is sampled and a larger budget extends a smaller one.
    """
    filled = [block for block in blocks if block.tasks]
    chosen: dict[int, ReplayBlock] = {}
    held = 0
    step = 1
    while held < tasks and len(chosen) < len(filled):
        fraction, base, digits = 0.0, 0.5, step
        while digits:
            fraction += base * (digits & 1)
            digits >>= 1
            base /= 2.0
        index = int(fraction * len(filled))
        if index not in chosen:
            chosen[index] = filled[index]
            held += len(filled[index].tasks)
        step += 1
    return [chosen[index] for index in sorted(chosen)]


def head_of(block: ReplayBlock, tasks: int) -> ReplayBlock:
    """The first *tasks* tasks of *block* as a block of their own."""
    kept = {task.tx_hash for task in block.tasks[:tasks]}
    return ReplayBlock(
        height=block.height,
        tasks=block.tasks[:tasks],
        payload=tuple(item for item in block.payload if item.tx_hash in kept),
        predictions=tuple(p for p in block.predictions if p.tx_hash in kept),
    )


def window_blocks(
    blocks: list[ReplayBlock], tasks: int, window: int
) -> list[ReplayBlock]:
    """Blocks of exactly *window* tasks holding at least *tasks* in all.

    Block sizes are log-normal, and the static engines' cost per task
    grows with the block, so whole blocks would make the replay rate a
    function of which sizes a seed happened to draw.  These are the
    heads of blocks spread over the chain that are at least *window*
    long.
    """
    heads = [
        head_of(block, window)
        for block in blocks if len(block.tasks) >= window
    ]
    return spread_blocks(heads, tasks)


def analyze(inputs: Inputs, cores: int, span=None):
    """The paper's figure pipeline over the whole chain: TDG and
    metrics per block, then the speed-up models per block."""
    span = span or _no_span
    history = analyze_chain(
        inputs.block_inputs,
        data_model=inputs.profile.data_model,
        name=inputs.profile.name,
        backend="serial",
    )
    with span("core.speedup_model"):
        estimates = [
            estimate_block_speedups(record.metrics, cores)
            for record in history.records
        ]
    return history, estimates


def replay(inputs: Inputs, blocks, engines, cores: int) -> ReplayResult:
    return replay_chain(
        blocks,
        data_model=inputs.profile.data_model,
        engines=engines,
        cores=cores,
        backend="serial",
    )


def root_disagreements(result: ReplayResult) -> dict[str, set[int]]:
    """Per engine, the heights whose roots differ from sequential's."""
    reference = {
        record.height: (record.state_root, record.receipt_root)
        for record in result.for_engine("sequential")
    }
    bad: dict[str, set[int]] = {}
    for record in result.records:
        if (record.state_root, record.receipt_root) != reference[record.height]:
            bad.setdefault(record.engine, set()).add(record.height)
    return bad


def best_speedup(result: ReplayResult) -> tuple[float, str]:
    """Highest simulated speed-up among engines that agree with
    sequential on both chain roots."""
    sequential = result.summary("sequential")
    best = (0.0, "")
    for summary in result.summaries():
        if (summary.state_root, summary.receipt_root) != (
            sequential.state_root, sequential.receipt_root
        ):
            continue
        best = max(best, (summary.speedup, summary.engine))
    return best


def _no_span(_name: str):
    return nullcontext()
