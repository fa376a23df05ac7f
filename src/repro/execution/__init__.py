"""Parallel execution engines validating the paper's speed-up models."""

from repro.execution.engine import (
    ExecutionReport,
    SequentialExecutor,
    TxTask,
    conflict_groups,
    tasks_from_account_block,
    tasks_from_tdg,
    tasks_from_utxo_block,
)
from repro.execution.dag import (
    DAGExecutor,
    DAGSchedule,
    DependencyDAG,
    run_dag,
    task_dag,
)
from repro.execution.grouped import GroupedExecutor, StaticGroupedExecutor
from repro.execution.occ import OCCExecutor
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
    make_executor,
    run_engine,
    validate_engines,
)
from repro.execution.simulator import CoreSimulator, SimulatedRun
from repro.execution.speculative import (
    InformedSpeculativeExecutor,
    SpeculativeExecutor,
    StaticInformedExecutor,
    split_conflicted,
)

__all__ = [
    "ExecutionReport",
    "SequentialExecutor",
    "TxTask",
    "conflict_groups",
    "tasks_from_account_block",
    "tasks_from_tdg",
    "tasks_from_utxo_block",
    "DAGExecutor",
    "DAGSchedule",
    "DependencyDAG",
    "run_dag",
    "task_dag",
    "GroupedExecutor",
    "OCCExecutor",
    "ENGINES",
    "BlockReplay",
    "EngineSummary",
    "ReplayBlock",
    "ReplayResult",
    "replay_block_inputs",
    "replay_chain",
    "CoreSimulator",
    "SimulatedRun",
    "InformedSpeculativeExecutor",
    "SpeculativeExecutor",
    "StaticGroupedExecutor",
    "StaticInformedExecutor",
    "make_executor",
    "run_engine",
    "split_conflicted",
    "validate_engines",
]
