"""Exporters: Prometheus text and Chrome trace events.

Two consumers, two formats:

* :func:`render_prometheus` — the standard text exposition format, so
  snapshots can be scraped or diffed with existing tooling
  (``repro replay --prometheus-out``).
* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the
  flight recorder's timeline as Chrome trace-event JSON, loadable in
  ``chrome://tracing`` or Perfetto (executors as processes, lanes as
  threads, one slice per task execution).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Sequence

from repro.obs.lifecycle import StitchedTrace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timeline import EDGE_SEPARATOR, QUEUE_LANE, TimelineEvent

TRACE_SCHEMA_VERSION = 1


# -- Prometheus text format ---------------------------------------------------


_NAME_OK = re.compile(r"[a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name to the exposition-format charset.

    Metric names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``: every
    out-of-charset character (dots, dashes, spaces, quotes, ...) becomes
    ``_``, and a leading digit gains a ``_`` prefix.
    """
    sanitized = "".join(
        ch if _NAME_OK.fullmatch(ch) else "_" for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_label_name(name: str) -> str:
    """Label names follow the metric-name rule, minus colons."""
    sanitized = "".join(
        ch if _LABEL_OK.fullmatch(ch) else "_" for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format.

    Backslash, double quote and newline are the three characters the
    format escapes; everything else passes through verbatim.
    """
    return (
        value.replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _prom_labels(labels: tuple[tuple[str, str], ...],
                 extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    rendered = ",".join(
        f'{_prom_label_name(key)}="{_prom_label_value(value)}"'
        for key, value in items
    )
    return f"{{{rendered}}}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters follow the Prometheus naming convention: a ``_total``
    suffix is appended unless the metric name already carries one.

    Histograms are exported as summaries: ``<name>{quantile="0.5"}`` lines plus
    ``_sum`` and ``_count``.  A histogram with no observations renders
    only ``_sum``/``_count`` — quantiles of an empty distribution are
    undefined, and fabricating zeros would read as measurements.
    """
    lines: list[str] = []
    for metric in registry.iter_metrics():
        name = _prom_name(metric.name)
        if isinstance(metric, Counter):
            total_name = (
                name if name.endswith("_total") else f"{name}_total"
            )
            labels = _prom_labels(metric.labels)
            lines.append(f"# TYPE {total_name} counter")
            lines.append(f"{total_name}{labels} {metric.value:g}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(
                f"{name}{_prom_labels(metric.labels)} {metric.value:g}"
            )
        elif isinstance(metric, Histogram):
            summary = metric.summary()
            lines.append(f"# TYPE {name} summary")
            if summary["count"]:
                for quantile, key in (("0.5", "p50"), ("0.9", "p90"),
                                      ("0.99", "p99")):
                    label_str = _prom_labels(
                        metric.labels, (("quantile", quantile),)
                    )
                    lines.append(f"{name}{label_str} {summary[key]:g}")
            base = _prom_labels(metric.labels)
            lines.append(f"{name}_sum{base} {summary['sum']:g}")
            lines.append(f"{name}_count{base} {summary['count']:g}")
    return "\n".join(lines)


# -- Chrome trace-event format ------------------------------------------------

# One simulated cost unit renders as 1 ms (1000 µs) on the trace
# timeline — wide enough that unit-cost transactions are visible in
# chrome://tracing / Perfetto without zooming.
COST_UNIT_US = 1000.0

_QUEUE_TID = 0


def _lane_tid(lane: int) -> int:
    """Map event lanes onto trace thread ids (queue gets tid 0)."""
    return _QUEUE_TID if lane == QUEUE_LANE else lane + 1


def chrome_trace_events(
    events: Sequence[TimelineEvent],
    *,
    clock_unit_us: float = COST_UNIT_US,
) -> list[dict[str, object]]:
    """Convert flight-recorder events into Chrome trace-event dicts.

    The mapping, loadable in ``chrome://tracing`` or Perfetto:

    * each executor becomes a *process* (``pid`` in first-appearance
      order, named via ``process_name`` metadata);
    * each lane becomes a *thread* (``tid = lane + 1``; the queue
      pseudo-lane is ``tid 0``), named via ``thread_name`` metadata;
    * each start→commit/abort pair becomes a complete (``"X"``) slice
      whose ``args`` carry the block, round and outcome;
    * ``schedule``/``retry`` events become thread-scoped instants
      (``"i"``) on the queue thread;
    * ``edge`` events (``task = "pred->succ"``) become flow event pairs
      (``"s"`` at the predecessor's commit, ``"f"`` at the successor's
      start), drawing the DAG executor's handoff chains as arrows.

    Executors replay every block from logical clock 0, so blocks are
    laid out side by side: each block gets a global offset equal to the
    cumulative extent of the blocks recorded before it (shared across
    executors, keeping per-block columns comparable).
    """
    # Global per-block offsets, first-appearance order.
    extents: dict[int | None, float] = {}
    block_order: list[int | None] = []
    for event in events:
        if event.block not in extents:
            block_order.append(event.block)
            extents[event.block] = 0.0
        end = event.clock + (event.cost if event.kind == "start" else 0.0)
        extents[event.block] = max(extents[event.block], end)
    offsets: dict[int | None, float] = {}
    cursor = 0.0
    for block in block_order:
        offsets[block] = cursor
        cursor += extents[block]

    out: list[dict[str, object]] = []
    pid_of: dict[str, int] = {}
    named_threads: set[tuple[int, int]] = set()
    open_starts: dict[tuple[str, str, int, int], TimelineEvent] = {}
    # For edge flows: each task's executed slice extent + placement,
    # keyed by (executor, block, task).  Filled as slices close; the
    # edge pass below runs after every slice exists.
    slice_bounds: dict[
        tuple[str, int | None, str], tuple[float, float, int, int]
    ] = {}
    edge_events: list[TimelineEvent] = []

    def pid_for(executor: str) -> int:
        pid = pid_of.get(executor)
        if pid is None:
            pid = len(pid_of) + 1
            pid_of[executor] = pid
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": executor},
            })
        return pid

    def name_thread(pid: int, tid: int) -> None:
        if (pid, tid) in named_threads:
            return
        named_threads.add((pid, tid))
        label = "queue" if tid == _QUEUE_TID else f"lane {tid - 1}"
        out.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": label},
        })

    for event in events:
        pid = pid_for(event.executor)
        ts = (offsets[event.block] + event.clock) * clock_unit_us
        if event.kind == "start":
            key = (event.executor, event.task, event.round, event.lane)
            open_starts[key] = event
        elif event.kind in ("commit", "abort"):
            key = (event.executor, event.task, event.round, event.lane)
            begun = open_starts.pop(key, None)
            if begun is None:
                continue
            tid = _lane_tid(event.lane)
            name_thread(pid, tid)
            start_ts = (offsets[event.block] + begun.clock) * clock_unit_us
            out.append({
                "ph": "X",
                "name": event.task,
                "cat": "execution",
                "pid": pid,
                "tid": tid,
                "ts": start_ts,
                "dur": max(0.0, ts - start_ts),
                "args": {
                    "block": event.block,
                    "round": event.round,
                    "cost": event.cost,
                    "outcome": event.kind,
                },
            })
            slice_bounds[(event.executor, event.block, event.task)] = (
                start_ts, ts, pid, tid
            )
        elif event.kind == "edge":
            edge_events.append(event)
        else:  # schedule / retry — queue-side instants
            tid = _lane_tid(QUEUE_LANE)
            name_thread(pid, tid)
            out.append({
                "ph": "i",
                "name": f"{event.kind} {event.task}",
                "cat": event.kind,
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": {"block": event.block, "round": event.round},
            })

    # Edge pass: every slice is closed by now, so each dependency can
    # bind its arrow to real slice endpoints.  Edges whose endpoints
    # never executed (shouldn't happen, but event rows are plain
    # logs, not validated graphs) are skipped rather than drawn dangling.
    for flow_id, event in enumerate(edge_events, start=1):
        pred, sep, succ = event.task.partition(EDGE_SEPARATOR)
        if not sep:
            continue
        pred_bounds = slice_bounds.get((event.executor, event.block, pred))
        succ_bounds = slice_bounds.get((event.executor, event.block, succ))
        if pred_bounds is None or succ_bounds is None:
            continue
        _, pred_end, pred_pid, pred_tid = pred_bounds
        succ_start, _, succ_pid, succ_tid = succ_bounds
        common = {
            "cat": "handoff",
            "name": "dependency",
            "id": flow_id,
            "args": {"from": pred, "to": succ, "block": event.block},
        }
        out.append({
            "ph": "s", "pid": pred_pid, "tid": pred_tid,
            "ts": pred_end, **common,
        })
        out.append({
            "ph": "f", "bp": "e", "pid": succ_pid, "tid": succ_tid,
            "ts": succ_start, **common,
        })
    return out


# The lifecycle pseudo-process sits far above executor pids so the two
# id spaces never collide in a joined trace file.
LIFECYCLE_PID = 1000

# Lifecycle timestamps are simulated seconds; render them at 1 ms of
# trace time per simulated second so multi-minute block intervals stay
# navigable next to the (cost-unit-scaled) execution slices.
SECOND_US = 1000.0


def lifecycle_trace_events(
    traces: Sequence[StitchedTrace],
    *,
    second_us: float = SECOND_US,
    pid: int = LIFECYCLE_PID,
) -> list[dict[str, object]]:
    """Convert stitched lifecycle traces into Chrome trace-event dicts.

    One ``lifecycle`` pseudo-process; each stage of the vocabulary is a
    thread, so the view reads as a swimlane per pipeline stage.  Each
    trace renders as one ``"X"`` slice per stage event (extending to the
    next event) plus a flow chain (``"s"``/``"t"``/``"f"`` sharing the
    trace's id) arrowing the transaction's hop from stage to stage —
    ``repro node run --out`` joins these to the proposers' executor
    timelines, so a transaction can be followed from admission to
    commit.
    """
    from repro.obs.lifecycle import STAGES

    out: list[dict[str, object]] = []
    if not traces:
        return out
    out.append({
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": "lifecycle"},
    })
    tid_of = {stage: index for index, stage in enumerate(STAGES)}
    used_tids: set[int] = set()
    for flow_id, trace in enumerate(traces, start=1):
        events = trace.events
        for index, event in enumerate(events):
            tid = tid_of[event.stage]
            if tid not in used_tids:
                used_tids.add(tid)
                out.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tid, "args": {"name": event.stage},
                })
            ts = event.at * second_us
            next_at = (
                events[index + 1].at if index + 1 < len(events)
                else event.at
            )
            out.append({
                "ph": "X",
                "name": trace.trace_id,
                "cat": "lifecycle",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "dur": max(0.0, (next_at - event.at) * second_us),
                "args": {"stage": event.stage, **event.attrs},
            })
            if len(events) < 2:
                continue
            phase = ("s" if index == 0
                     else "f" if index == len(events) - 1 else "t")
            flow: dict[str, object] = {
                "ph": phase,
                "cat": "lifecycle",
                "name": "tx",
                "id": flow_id,
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": {"trace_id": trace.trace_id,
                         "stage": event.stage},
            }
            if phase == "f":
                flow["bp"] = "e"
            out.append(flow)
    return out


def write_chrome_trace(
    path: str | Path,
    events: Sequence[TimelineEvent],
    *,
    clock_unit_us: float = COST_UNIT_US,
    lifecycle_traces: Sequence[StitchedTrace] = (),
    second_us: float = SECOND_US,
) -> int:
    """Write *events* as a Chrome trace JSON file; returns event count.

    The file is the object form (``{"traceEvents": [...]}``) with
    ``displayTimeUnit: "ms"``, which both catapult and Perfetto accept.
    *lifecycle_traces*, when given, join the file as a separate
    ``lifecycle`` process (see :func:`lifecycle_trace_events`).
    """
    trace_events = chrome_trace_events(events, clock_unit_us=clock_unit_us)
    trace_events.extend(
        lifecycle_trace_events(lifecycle_traces, second_us=second_us)
    )
    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema_version": TRACE_SCHEMA_VERSION,
                      "clock_unit_us": clock_unit_us,
                      "second_us": second_us},
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))
    return len(trace_events)


__all__ = [
    "COST_UNIT_US",
    "LIFECYCLE_PID",
    "SECOND_US",
    "TRACE_SCHEMA_VERSION",
    "chrome_trace_events",
    "lifecycle_trace_events",
    "render_prometheus",
    "write_chrome_trace",
]
