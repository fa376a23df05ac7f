"""The engine registry: every engine name, and the one way to run one.

Eight engines replay a block, and they do not all eat the same input:
``dag`` builds a dependency DAG from the block's raw payload, the two
prediction engines (``static-informed``, ``static-grouped``) want the
block's static access predictions next to its task list, and the rest
take the task list alone.  That three-way split is decided here, in
:func:`run_engine`, and nowhere else — the replay fan-out, the node's
validation path, the regress snapshot, the lifecycle pipeline and the
CLI all hand it a block and an engine name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.execution.dag import account_dag, run_dag, utxo_dag
from repro.execution.engine import ExecutionReport, SequentialExecutor
from repro.execution.grouped import GroupedExecutor
from repro.execution.occ import OCCExecutor
from repro.execution.speculative import (
    InformedSpeculativeExecutor,
    SpeculativeExecutor,
)
from repro.execution.static_grouped import StaticGroupedExecutor
from repro.execution.static_informed import StaticInformedExecutor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.execution.parallel_replay import ReplayBlock

ENGINES = (
    "sequential",
    "speculative",
    "speculative-informed",
    "occ",
    "grouped",
    "static-informed",
    "static-grouped",
    "dag",
)

# Engines whose input includes the block's static access predictions.
_PREDICTION_EXECUTORS: dict[str, Callable[..., object]] = {
    "static-informed": StaticInformedExecutor,
    "static-grouped": StaticGroupedExecutor,
}
PREDICTION_ENGINES = frozenset(_PREDICTION_EXECUTORS)

# Task-list engines by name; ``dag`` is not constructible (it consumes
# the raw payload, see run_engine).
_TASK_EXECUTORS: dict[str, Callable[[int], object]] = {
    "sequential": lambda cores: SequentialExecutor(),
    "speculative": SpeculativeExecutor,
    "speculative-informed": InformedSpeculativeExecutor,
    "occ": OCCExecutor,
    "grouped": GroupedExecutor,
}


def validate_engines(engines: Sequence[str]) -> tuple[str, ...]:
    """Normalise *engines* (order-preserving) or raise ValueError."""
    chosen = tuple(engines)
    if not chosen:
        raise ValueError("engines must name at least one engine")
    known = ", ".join(ENGINES)
    for name in chosen:
        if name not in ENGINES:
            raise ValueError(
                f"unknown engine {name!r}; expected one of: {known}"
            )
    if len(set(chosen)) != len(chosen):
        raise ValueError("engines must not repeat")
    return chosen


def make_executor(name: str, cores: int, predictions: Mapping | None = None):
    """Instantiate one of the task executors by registry name.

    ``dag`` is not constructible here — it consumes the raw payload via
    :func:`run_engine`, not a task list.  Unknown names raise
    :class:`ValueError` listing the choices.  *predictions* (``tx_hash``
    → :class:`~repro.staticcheck.predict.PredictedAccess`) feeds the
    two :data:`PREDICTION_ENGINES`; other executors ignore it, and with
    no predictions those two degrade soundly to sequential block order.
    """
    if name in PREDICTION_ENGINES:
        return _PREDICTION_EXECUTORS[name](
            cores, predictions=predictions or {}
        )
    try:
        return _TASK_EXECUTORS[name](cores)
    except KeyError:
        known = ", ".join(ENGINES)
        raise ValueError(
            f"unknown executor {name!r}; expected one of: {known}"
        ) from None


def run_engine(
    engine: str, data_model: str, block: "ReplayBlock", cores: int
) -> ExecutionReport:
    """Run *block* through *engine* on *cores* simulated cores.

    Flight-recorder events and ``exec.*`` metrics land wherever the
    caller's observability scope points; the caller also owns the
    ``recorder.block(height)`` bracket.
    """
    if engine == "dag":
        dag = (
            utxo_dag(block.payload) if data_model == "utxo"
            else account_dag(block.payload)
        )
        return run_dag(dag, cores)
    predictions = None
    if engine in PREDICTION_ENGINES:
        predictions = {
            prediction.tx_hash: prediction
            for prediction in block.predictions
        }
    return make_executor(engine, cores, predictions).run(block.tasks)


__all__ = [
    "ENGINES",
    "PREDICTION_ENGINES",
    "make_executor",
    "run_engine",
    "validate_engines",
]
