"""Lifecycle tracer unit and property tests: causal chains, monotonic
clamping, terminal sealing, flight-rows stitching, aggregation, and
trace-context pickling across process-pool workers."""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.lifecycle import (
    COMMITTED,
    DROPPED,
    NOOP_LIFECYCLE,
    STAGES,
    TERMINAL_STAGES,
    LifecycleTracer,
    StitchedTrace,
    TraceContext,
    slowest_traces,
    stage_breakdown,
    stage_shares,
    stitch_execution_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import as_events
from tests.obs.test_timeline import row


class TestTraceContext:
    def test_child_links_parent(self):
        root = TraceContext(trace_id="tx1", span_id=1)
        child = root.child(7)
        assert child.trace_id == "tx1"
        assert child.span_id == 7
        assert child.parent_id == 1

    def test_pickle_round_trip(self):
        context = TraceContext(trace_id="tx1", span_id=3, parent_id=1)
        assert pickle.loads(pickle.dumps(context)) == context


def _derive_child(context: TraceContext) -> TraceContext:
    """Module-level so a spawn-based pool can pickle it."""
    return context.child(context.span_id + 100)


class TestTraceContextAcrossProcesses:
    def test_contexts_survive_process_pool_workers(self):
        """The context rides to a worker and back with the chain intact
        — the property block-level chunk workers rely on."""
        contexts = [
            TraceContext(trace_id=f"tx{i}", span_id=i) for i in range(8)
        ]
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                children = list(pool.map(_derive_child, contexts))
        except (OSError, PermissionError):  # no sem_open in sandbox
            children = [
                _derive_child(pickle.loads(pickle.dumps(context)))
                for context in contexts
            ]
        assert [child.trace_id for child in children] == [
            context.trace_id for context in contexts
        ]
        assert all(
            child.parent_id == context.span_id
            for child, context in zip(children, contexts)
        )


class TestLifecycleTracer:
    def test_begin_mints_admitted_root(self):
        tracer = LifecycleTracer()
        context = tracer.begin("tx1", fee=10)
        assert context.trace_id == "tx1"
        assert context.parent_id is None
        trace = tracer.trace("tx1")
        assert trace.stages == ("admitted",)
        assert trace.events[0].attrs == {"fee": 10}

    def test_begin_twice_rejected(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1")
        with pytest.raises(ValueError, match="already exists"):
            tracer.begin("tx1")
        tracer.close("tx1")
        with pytest.raises(ValueError, match="already exists"):
            tracer.begin("tx1")

    def test_record_builds_causal_chain(self):
        tracer = LifecycleTracer()
        root = tracer.begin("tx1")
        relayed = tracer.record("tx1", "relayed", hop=1)
        included = tracer.record("tx1", "included")
        assert relayed.parent_id == root.span_id
        assert included.parent_id == relayed.span_id
        events = tracer.trace("tx1").events
        assert [e.parent_id for e in events] == [
            None, root.span_id, relayed.span_id,
        ]

    def test_unknown_stage_rejected(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1")
        with pytest.raises(ValueError, match="unknown lifecycle stage"):
            tracer.record("tx1", "teleported")

    def test_unknown_tx_counted_not_raised(self):
        registry = MetricsRegistry()
        tracer = LifecycleTracer(registry=registry)
        assert tracer.record("ghost", "included") is None
        assert registry.counter("lifecycle.unknown").value == 1.0

    def test_late_event_after_close_counted(self):
        registry = MetricsRegistry()
        tracer = LifecycleTracer(registry=registry)
        tracer.begin("tx1")
        tracer.close("tx1")
        assert tracer.record("tx1", "included") is None
        assert registry.counter("lifecycle.late_events").value == 1.0

    def test_timestamps_clamped_monotonic(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1", at=10.0)
        tracer.record("tx1", "included", at=3.0)  # before admission
        trace = tracer.trace("tx1")
        assert trace.is_monotonic()
        assert trace.events[-1].at == 10.0

    def test_terminal_stage_seals_trace(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1")
        tracer.record("tx1", COMMITTED)
        assert tracer.open_count == 0
        assert tracer.trace("tx1").outcome == "committed"

    def test_close_requires_terminal_stage(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1")
        with pytest.raises(ValueError, match="not terminal"):
            tracer.close("tx1", "included")

    def test_close_reports_whether_open(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1")
        assert tracer.close("tx1", DROPPED, reason="evicted") is True
        assert tracer.close("tx1", DROPPED) is False

    def test_clock_advance(self):
        tracer = LifecycleTracer()
        tracer.set_clock(5.0)
        assert tracer.advance(2.5) == 7.5
        tracer.begin("tx1")
        assert tracer.trace("tx1").started_at == 7.5
        with pytest.raises(ValueError):
            tracer.advance(-1.0)

    def test_traces_closed_first_then_open(self):
        tracer = LifecycleTracer()
        tracer.begin("open1")
        tracer.begin("done1")
        tracer.close("done1")
        assert [t.trace_id for t in tracer.traces()] == ["done1", "open1"]

    def test_clear_resets_ids_and_clock(self):
        tracer = LifecycleTracer()
        tracer.advance(9.0)
        tracer.begin("tx1")
        tracer.clear()
        assert tracer.clock == 0.0
        assert tracer.traces() == []
        assert tracer.begin("tx1").span_id == 1

    def test_stage_metrics_observed(self):
        registry = MetricsRegistry()
        tracer = LifecycleTracer(registry=registry)
        tracer.begin("tx1", at=0.0)
        tracer.record("tx1", "included", at=2.0)
        tracer.close("tx1", at=5.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["lifecycle.opened"] == 1.0
        assert snapshot["counters"][
            "lifecycle.closed{outcome=committed}"
        ] == 1.0
        assert snapshot["histograms"][
            "lifecycle.stage.included"
        ]["sum"] == 2.0
        assert snapshot["histograms"][
            "lifecycle.stage.committed"
        ]["sum"] == 3.0


class TestNoopLifecycleTracer:
    def test_everything_is_a_no_op(self):
        assert NOOP_LIFECYCLE.enabled is False
        context = NOOP_LIFECYCLE.begin("tx1")
        assert context.span_id == 0
        assert NOOP_LIFECYCLE.record("tx1", "included") is None
        assert NOOP_LIFECYCLE.close("tx1") is False
        assert NOOP_LIFECYCLE.advance(5.0) == 0.0
        assert NOOP_LIFECYCLE.traces() == []


class TestStitchedTrace:
    def test_requires_events(self):
        with pytest.raises(ValueError):
            StitchedTrace(trace_id="tx1", events=())

    def test_stage_latencies_decompose_total(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1", at=1.0)
        tracer.record("tx1", "included", at=4.0)
        tracer.close("tx1", at=9.0)
        trace = tracer.trace("tx1")
        assert trace.stage_latencies() == [
            ("included", 3.0), ("committed", 5.0),
        ]
        assert sum(l for _, l in trace.stage_latencies()) == pytest.approx(
            trace.total_latency
        )

    def test_as_dict_round_trips_outcome(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1")
        tracer.close("tx1", DROPPED)
        doc = tracer.trace("tx1").as_dict()
        assert doc["outcome"] == "dropped"
        assert [e["stage"] for e in doc["events"]] == [
            "admitted", "dropped",
        ]


class TestStitchExecutionEvents:
    def _events(self):
        rows = [
            row("schedule", "tx1", executor="occ", clock=0.0, block=1),
            row("start", "tx1", executor="occ", lane=0, clock=0.0, cost=2.0,
                block=1),
            row("abort", "tx1", executor="occ", lane=0, clock=2.0, block=1),
            row("retry", "tx1", executor="occ", clock=2.0, round_index=1,
                block=1),
            row("commit", "tx1", executor="occ", lane=0, clock=4.0,
                round_index=1, block=1),
        ]
        return as_events(rows)

    def test_kinds_map_to_stages_and_commit_closes(self):
        tracer = LifecycleTracer()
        tracer.begin("tx1", at=100.0)
        stitched = stitch_execution_events(
            tracer, self._events(), at=100.0,
            cost_unit_seconds=0.5,
        )
        assert stitched == 4  # start is skipped
        trace = tracer.trace("tx1")
        assert trace.stages == (
            "admitted", "scheduled", "aborted", "retried", "committed",
        )
        assert trace.outcome == "committed"
        # Logical clock 4.0 at 0.5 s/unit lands the commit at 102.0.
        assert trace.ended_at == pytest.approx(102.0)
        assert trace.is_monotonic()

    def test_unknown_tasks_do_not_count(self):
        tracer = LifecycleTracer()  # no trace begun
        stitched = stitch_execution_events(
            tracer, self._events(), at=0.0
        )
        assert stitched == 0

    def test_disabled_tracer_short_circuits(self):
        assert stitch_execution_events(
            NOOP_LIFECYCLE, self._events(), at=0.0
        ) == 0

    def test_cost_unit_must_be_positive(self):
        with pytest.raises(ValueError):
            stitch_execution_events(
                LifecycleTracer(), [], at=0.0, cost_unit_seconds=0.0
            )


def _trace(tx_hash, *stamps):
    """A closed trace visiting (stage, at) pairs after admission at 0."""
    tracer = LifecycleTracer()
    tracer.begin(tx_hash, at=0.0)
    for stage, at in stamps:
        tracer.record(tx_hash, stage, at=at)
    return tracer.trace(tx_hash)


class TestAggregation:
    def test_breakdown_shares_sum_to_one(self):
        traces = [
            _trace("a", ("included", 1.0), ("committed", 4.0)),
            _trace("b", ("included", 2.0), ("committed", 6.0)),
        ]
        breakdown = stage_breakdown(traces)
        assert breakdown["included"].count == 2
        assert breakdown["included"].total == pytest.approx(3.0)
        assert breakdown["committed"].total == pytest.approx(7.0)
        shares = stage_shares(breakdown)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["committed"] == pytest.approx(0.7)

    def test_breakdown_percentiles_ordered(self):
        traces = [
            _trace(f"t{i}", ("committed", float(i))) for i in range(1, 21)
        ]
        stats = stage_breakdown(traces)["committed"]
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max
        assert stats.max == 20.0
        assert stats.mean == pytest.approx(10.5)

    def test_empty_breakdown_and_shares(self):
        assert stage_breakdown([]) == {}
        assert stage_shares({}) == {}

    def test_slowest_traces_orders_closed_only(self):
        fast = _trace("fast", ("committed", 1.0))
        slow = _trace("slow", ("committed", 9.0))
        open_trace = _trace("open", ("included", 99.0))
        picked = slowest_traces([fast, open_trace, slow], limit=2)
        assert [t.trace_id for t in picked] == ["slow", "fast"]
        with pytest.raises(ValueError):
            slowest_traces([], limit=0)


# Any interleaving of stage records with arbitrary timestamps must
# still yield one monotonic trace per transaction — the paper-facing
# invariant ISSUE 6 asks the property test to pin down.
_NON_TERMINAL = [s for s in STAGES if s not in TERMINAL_STAGES + ("admitted",)]


class TestTraceProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),       # tx index
                st.sampled_from(_NON_TERMINAL),              # stage
                st.floats(min_value=0.0, max_value=1e4,
                          allow_nan=False),                  # timestamp
            ),
            max_size=40,
        ),
        admissions=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=5, max_size=5,
        ),
    )
    def test_one_monotonic_trace_per_tx(self, steps, admissions):
        tracer = LifecycleTracer()
        for index, at in enumerate(admissions):
            tracer.begin(f"tx{index}", at=at)
        for index, stage, at in steps:
            tracer.record(f"tx{index}", stage, at=at)
        for index in range(5):
            tracer.close(f"tx{index}")
        traces = tracer.traces()
        assert len(traces) == 5
        assert {t.trace_id for t in traces} == {
            f"tx{i}" for i in range(5)
        }
        for trace in traces:
            assert trace.is_monotonic()
            assert trace.outcome == "committed"
            assert trace.events[0].stage == "admitted"
            # The causal chain is linear: each event's parent is the
            # previous event's span.
            for earlier, later in zip(trace.events, trace.events[1:]):
                assert later.parent_id == earlier.span_id
