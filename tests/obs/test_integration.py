"""Observability must not perturb results: an instrumented pipeline run
produces identical ``BlockMetrics`` to an uninstrumented one, and the
instrumented run leaves the expected counters behind."""

from __future__ import annotations

from repro import obs
from repro.workload.generator import generate_chain

CHAIN_ARGS = dict(num_blocks=6, seed=3, scale=0.5)


def _record_tuples(history):
    return [
        (
            record.height,
            record.num_transactions,
            record.metrics,
            record.gas_used,
            record.size_bytes,
        )
        for record in history.records
    ]


class TestResultsUnperturbed:
    def test_account_chain_metrics_identical(self):
        baseline = generate_chain("ethereum", **CHAIN_ARGS)
        with obs.instrumented() as state:
            instrumented = generate_chain("ethereum", **CHAIN_ARGS)
        assert _record_tuples(instrumented.history) == _record_tuples(
            baseline.history
        )
        # And the instrumented run actually recorded something.
        counters = state.registry.snapshot()["counters"]
        assert counters["pipeline.blocks{model=account}"] == 6.0
        assert counters["tdg.builds{model=account}"] == 6.0

    def test_utxo_chain_metrics_identical(self):
        baseline = generate_chain("bitcoin", **CHAIN_ARGS)
        with obs.instrumented() as state:
            instrumented = generate_chain("bitcoin", **CHAIN_ARGS)
        assert _record_tuples(instrumented.history) == _record_tuples(
            baseline.history
        )
        counters = state.registry.snapshot()["counters"]
        assert counters["pipeline.blocks{model=utxo}"] == 6.0
        assert counters["tdg.builds{model=utxo}"] == 6.0

    def test_disabled_run_records_nothing_globally(self):
        generate_chain("ethereum", **CHAIN_ARGS)
        assert obs.get_registry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestExecutorsUnperturbed:
    def test_reports_identical_with_and_without_instrumentation(self):
        from repro.execution.engine import tasks_from_account_block
        from repro.execution.registry import run_engine

        chain = generate_chain("ethereum", **CHAIN_ARGS)
        _block, executed = chain.account_builder.executed_blocks[-1]
        tasks = tasks_from_account_block(executed)

        def run_all():
            return tuple(
                run_engine(engine, tasks, 8)
                for engine in ("speculative", "occ", "grouped")
            )

        baseline = run_all()
        with obs.instrumented():
            instrumented = run_all()
        assert instrumented == baseline
