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


class TestParallelInstrumentation:
    """Instrumented parallel runs emit the ``pipeline.parallel.*``
    family and still match an uninstrumented serial run exactly."""

    def test_process_backend_counters_and_identical_output(self):
        baseline = generate_chain("bitcoin", **CHAIN_ARGS)
        with obs.instrumented() as state:
            parallel = generate_chain(
                "bitcoin", **CHAIN_ARGS, backend="process", jobs=2,
                chunk_size=2,
            )
        assert _record_tuples(parallel.history) == _record_tuples(
            baseline.history
        )
        snapshot = state.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["pipeline.parallel.runs{backend=process}"] == 1.0
        assert counters["pipeline.parallel.blocks{backend=process}"] == 6.0
        assert counters["pipeline.parallel.chunks{backend=process}"] == 3.0
        assert snapshot["gauges"][
            "pipeline.parallel.jobs{backend=process}"
        ] == 2.0
        # One chunk-time observation per chunk.
        chunk_seconds = snapshot["histograms"][
            "pipeline.parallel.chunk_seconds{backend=process}"
        ]
        assert chunk_seconds["count"] == 3

    def test_worker_counters_merge_into_the_parent(self):
        """Each worker records the per-block counters privately; the
        parent's registry holds them all after the join."""
        with obs.instrumented() as state:
            generate_chain(
                "ethereum", **CHAIN_ARGS, backend="process", jobs=2,
                chunk_size=3,
            )
        snapshot = state.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["pipeline.blocks{model=account}"] == 6.0
        assert counters["tdg.builds{model=account}"] == 6.0
        assert counters["pipeline.parallel.chunks{backend=process}"] == 2.0
        assert snapshot["histograms"][
            "pipeline.parallel.chunk_seconds{backend=process}"
        ]["count"] == 2

    def test_uninstrumented_parallel_run_records_nothing(self):
        generate_chain(
            "bitcoin", **CHAIN_ARGS, backend="process", jobs=2
        )
        assert obs.get_registry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestExecutorsUnperturbed:
    def test_reports_identical_with_and_without_instrumentation(self):
        from repro.execution.engine import tasks_from_account_block
        from repro.execution.grouped import GroupedExecutor
        from repro.execution.occ import OCCExecutor
        from repro.execution.speculative import SpeculativeExecutor

        chain = generate_chain("ethereum", **CHAIN_ARGS)
        _block, executed = chain.account_builder.executed_blocks[-1]
        tasks = tasks_from_account_block(executed)

        def run_all():
            return (
                SpeculativeExecutor(8).run(tasks),
                OCCExecutor(8).run(tasks),
                GroupedExecutor(8).run(tasks),
            )

        baseline = run_all()
        with obs.instrumented():
            instrumented = run_all()
        assert instrumented == baseline
