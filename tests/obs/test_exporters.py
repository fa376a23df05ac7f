"""Exporters: Prometheus text and Chrome trace events."""

from __future__ import annotations

import json

import pytest

from repro.obs.exporters import (
    COST_UNIT_US,
    TRACE_SCHEMA_VERSION,
    chrome_trace_events,
    render_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import as_events
from tests.obs.test_timeline import row


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("exec.occ.aborts").inc(7)
    registry.gauge("mempool.size", chain="btc").set(42)
    for value in (1.0, 2.0, 3.0):
        registry.histogram("exec.wall_time", executor="occ").observe(value)
    return registry


class TestPrometheus:
    def test_counter_gauge_histogram_lines(self):
        registry = _populated_registry()
        text = render_prometheus(registry)
        assert "# TYPE exec_occ_aborts_total counter" in text
        assert "exec_occ_aborts_total 7" in text
        assert '''mempool_size{chain="btc"} 42''' in text
        assert "# TYPE exec_wall_time summary" in text
        assert '''exec_wall_time{executor="occ",quantile="0.5"} 2''' in text
        assert '''exec_wall_time_count{executor="occ"} 3''' in text

    def test_counters_drop_unsuffixed_names_by_default(self):
        registry = _populated_registry()
        lines = render_prometheus(registry).splitlines()
        assert not any(
            line.startswith("exec_occ_aborts ") for line in lines
        )

    def test_already_suffixed_counter_not_doubled(self):
        registry = MetricsRegistry()
        registry.counter("gossip.messages_total").inc(5)
        text = render_prometheus(registry)
        assert "gossip_messages_total 5" in text
        assert "gossip_messages_total_total" not in text


class TestPrometheusSanitization:
    def test_metric_names_coerced_to_charset(self):
        registry = MetricsRegistry()
        registry.counter("exec.occ.aborts").inc(1)
        registry.counter("weird metric-name!").inc(2)
        registry.counter("1starts_with_digit").inc(3)
        registry.counter("legal:colon_name").inc(4)
        text = render_prometheus(registry)
        assert "exec_occ_aborts_total 1" in text
        assert "weird_metric_name__total 2" in text
        assert "_1starts_with_digit_total 3" in text
        # Colons are legal in names.
        assert "legal:colon_name_total 4" in text

    def test_label_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter(
            "m", **{"label.with-dots": "v", "ok_label": "w"}
        ).inc(1)
        text = render_prometheus(registry)
        assert 'label_with_dots="v"' in text
        assert 'ok_label="w"' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "m", tricky='a"b\\c\nd'
        ).inc(1)
        text = render_prometheus(registry)
        # Escaped: backslash -> \\, quote -> \", newline -> \n — and
        # the rendered output itself stays one line per sample.
        assert 'tricky="a\\"b\\\\c\\nd"' in text
        payload_lines = [
            line for line in text.splitlines() if "tricky" in line
        ]
        assert len(payload_lines) == 1

    def test_empty_histogram_renders_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("exec.wall_time")  # created, never observed
        text = render_prometheus(registry)
        assert "exec_wall_time_count 0" in text
        assert "exec_wall_time_sum 0" in text
        assert "quantile" not in text


class TestChromeTrace:
    def _rows(self):
        rows = [
            row("schedule", "tx0", executor="spec", clock=0.0, block=5),
            row("start", "tx0", executor="spec", lane=0, clock=0.0, cost=2.0,
                block=5),
            row("commit", "tx0", executor="spec", lane=0, clock=2.0, cost=2.0,
                block=5),
            row("start", "tx1", executor="spec", lane=1, clock=0.0, cost=1.0,
                block=5),
            row("abort", "tx1", executor="spec", lane=1, clock=1.0, cost=1.0,
                block=5),
            row("retry", "tx1", executor="spec", clock=1.0, round_index=1,
                block=5),
        ]
        return rows

    def test_slices_instants_and_metadata(self):
        events = chrome_trace_events(as_events(self._rows()))
        by_phase = {}
        for event in events:
            by_phase.setdefault(event["ph"], []).append(event)
        # Metadata: one process name + two lane threads + the queue.
        names = {
            (m["name"], m["args"]["name"]) for m in by_phase["M"]
        }
        assert ("process_name", "spec") in names
        assert ("thread_name", "queue") in names
        assert ("thread_name", "lane 0") in names
        assert ("thread_name", "lane 1") in names
        # Slices: tx0 committed on tid 1, tx1 aborted on tid 2.
        slices = {s["name"]: s for s in by_phase["X"]}
        assert slices["tx0"]["tid"] == 1
        assert slices["tx0"]["dur"] == 2.0 * COST_UNIT_US
        assert slices["tx0"]["args"]["outcome"] == "commit"
        assert slices["tx1"]["tid"] == 2
        assert slices["tx1"]["args"]["outcome"] == "abort"
        assert slices["tx1"]["args"]["block"] == 5
        # Instants land on the queue thread (tid 0).
        assert {i["tid"] for i in by_phase["i"]} == {0}
        assert {i["cat"] for i in by_phase["i"]} == {"schedule", "retry"}

    def test_clock_unit_scaling(self):
        events = chrome_trace_events(
            as_events(self._rows()), clock_unit_us=10.0
        )
        (tx0,) = [e for e in events if e.get("name") == "tx0"]
        assert tx0["dur"] == 20.0

    def test_blocks_laid_out_side_by_side(self):
        rows = []
        for height in (1, 2):
            rows.append(row("start", f"b{height}", executor="e", lane=0,
                            clock=0.0, cost=1.0, block=height))
            rows.append(row("commit", f"b{height}", executor="e", lane=0,
                            clock=1.0, cost=1.0, block=height))
        slices = [
            e for e in chrome_trace_events(as_events(rows))
            if e["ph"] == "X"
        ]
        ts = {s["name"]: s["ts"] for s in slices}
        # Block 2 starts after block 1's extent, not on top of it.
        assert ts["b2"] == ts["b1"] + 1.0 * COST_UNIT_US

    def test_write_chrome_trace_file_shape(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, as_events(self._rows()))
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["schema_version"] == \
            TRACE_SCHEMA_VERSION
        assert document["otherData"]["clock_unit_us"] == COST_UNIT_US

    def test_unpaired_finish_skipped_not_raised(self):
        rows = [
            row("commit", "ghost", executor="e", lane=0, clock=1.0),
        ]
        assert [
            e["ph"] for e in chrome_trace_events(as_events(rows))
        ] == ["M"]  # only the process metadata, no slice


def _dag_rows_with_edge():
    """Two tasks, a handoff a->b, plus one dangling edge."""
    rows = [
        row("start", "a", executor="dag", lane=0, clock=0.0, cost=2.0, block=1),
        row("commit", "a", executor="dag", lane=0, clock=2.0, block=1),
        row("start", "b", executor="dag", lane=1, clock=2.0, cost=1.0, block=1),
        row("commit", "b", executor="dag", lane=1, clock=3.0, block=1),
        row("edge", "a->b", executor="dag", clock=2.0, block=1),
        row("edge", "a->ghost", executor="dag", clock=2.0, block=1),
    ]
    return rows


class TestEdgeFlowEvents:
    def test_edges_become_flow_pairs_bound_to_slices(self):
        events = chrome_trace_events(
            as_events(_dag_rows_with_edge()), clock_unit_us=1.0
        )
        flows = [e for e in events if e.get("cat") == "handoff"]
        # One resolvable edge -> one s/f pair; the dangling edge
        # (missing successor slice) is skipped, not drawn.
        assert [e["ph"] for e in flows] == ["s", "f"]
        start, finish = flows
        assert start["args"] == {"from": "a", "to": "b", "block": 1}
        assert start["id"] == finish["id"]
        assert finish["bp"] == "e"
        # The arrow leaves a's commit and lands on b's start.
        assert start["ts"] == 2.0
        assert finish["ts"] == 2.0
        assert start["tid"] == 1   # a on lane 0
        assert finish["tid"] == 2  # b on lane 1

    def test_edge_events_emit_no_slices_or_instants(self):
        events = chrome_trace_events(
            as_events(_dag_rows_with_edge()), clock_unit_us=1.0
        )
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"a", "b"}


class TestLifecycleTraceEvents:
    def _traces(self):
        from repro.obs.lifecycle import LifecycleTracer

        tracer = LifecycleTracer()
        tracer.begin("tx1", at=0.0)
        tracer.record("tx1", "included", at=2.0)
        tracer.close("tx1", at=3.0)
        tracer.begin("lonely", at=1.0)
        return tracer.traces()

    def test_stage_swimlanes_and_flow_chain(self):
        from repro.obs.exporters import (
            LIFECYCLE_PID,
            lifecycle_trace_events,
        )

        events = lifecycle_trace_events(self._traces(), second_us=10.0)
        assert all(e["pid"] == LIFECYCLE_PID for e in events)
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"admitted", "included", "committed"}
        slices = [e for e in events if e["ph"] == "X"
                  and e["name"] == "tx1"]
        # Slices extend to the next stage event: 0->2, 2->3, terminal 0.
        assert [(e["ts"], e["dur"]) for e in slices] == [
            (0.0, 20.0), (20.0, 10.0), (30.0, 0.0),
        ]
        flow = [e for e in events if e.get("cat") == "lifecycle"
                and e["ph"] in ("s", "t", "f")]
        assert [e["ph"] for e in flow] == ["s", "t", "f"]
        assert len({e["id"] for e in flow}) == 1
        assert flow[-1]["bp"] == "e"

    def test_single_event_trace_gets_no_flow(self):
        from repro.obs.exporters import lifecycle_trace_events

        events = lifecycle_trace_events(self._traces())
        lonely = [e for e in events if e.get("name") == "lonely"]
        assert [e["ph"] for e in lonely] == ["X"]

    def test_empty_traces_emit_nothing(self):
        from repro.obs.exporters import lifecycle_trace_events

        assert lifecycle_trace_events([]) == []

    def test_write_chrome_trace_joins_lifecycle_process(self, tmp_path):
        from repro.obs.exporters import LIFECYCLE_PID

        path = tmp_path / "joined.json"
        rows = _dag_rows_with_edge()
        count = write_chrome_trace(
            path, as_events(rows), lifecycle_traces=self._traces()
        )
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert count == len(events)
        pids = {e["pid"] for e in events}
        assert LIFECYCLE_PID in pids and len(pids) > 1
        assert document["otherData"]["second_us"] == 1000.0
