"""Parallel execution engines validating the paper's speed-up models."""

from repro.execution.engine import (
    ExecutionReport,
    TxTask,
    conflict_groups,
    tasks_from_account_block,
    tasks_from_tdg,
    tasks_from_utxo_block,
)
from repro.execution.dag import (
    DAGSchedule,
    DependencyDAG,
    run_dag,
    task_dag,
)
from repro.execution.parallel_replay import (
    BlockReplay,
    EngineSummary,
    ReplayBlock,
    ReplayResult,
    replay_block_inputs,
    replay_chain,
)
from repro.execution.registry import (
    ENGINES,
    BlockConflicts,
    run_engine,
    validate_engines,
)
from repro.execution.simulator import CoreSimulator, SimulatedRun
from repro.execution.speculative import split_conflicted

__all__ = [
    "ExecutionReport",
    "TxTask",
    "conflict_groups",
    "tasks_from_account_block",
    "tasks_from_tdg",
    "tasks_from_utxo_block",
    "DAGSchedule",
    "DependencyDAG",
    "run_dag",
    "task_dag",
    "ENGINES",
    "BlockConflicts",
    "BlockReplay",
    "EngineSummary",
    "ReplayBlock",
    "ReplayResult",
    "replay_block_inputs",
    "replay_chain",
    "CoreSimulator",
    "SimulatedRun",
    "run_engine",
    "split_conflicted",
    "validate_engines",
]
