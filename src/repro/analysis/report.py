"""Plain-text rendering of tables and series for the bench harness.

The benches regenerate every paper table and figure as text: tables are
boxed ASCII, series are printed as aligned rows (year, value per line)
so the trends — who is above whom, where the crossovers happen — can be
read directly from bench output and diffed between runs.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.aggregation import BucketedSeries
from repro.workload.profiles import ChainProfile


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render an ASCII table with column auto-sizing."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines: list[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append(separator)
    for row in cells:
        lines.append(
            " | ".join(v.ljust(widths[i]) for i, v in enumerate(row))
        )
    return "\n".join(lines)


def render_table1(profiles: Sequence[ChainProfile]) -> str:
    """Reproduce the paper's Table I from the profile catalogue."""
    rows = [
        (
            profile.display_name,
            profile.data_model.upper() if profile.data_model == "utxo"
            else "Account",
            profile.consensus,
            "Yes" if profile.smart_contracts else "No",
            profile.data_source,
        )
        for profile in profiles
    ]
    return render_table(
        ["Blockchain", "Data model", "Consensus", "Smart contracts",
         "Data source"],
        rows,
        title="Table I: Comparison of seven public blockchains",
    )


def render_series_table(
    series_by_label: dict[str, BucketedSeries],
    *,
    title: str = "",
    position_label: str = "year",
    value_format: str = "{:10.4f}",
) -> str:
    """Render several series side by side, aligned on bucket index.

    Series produced from the same history share bucket positions; when
    they differ (e.g. two chains with different calendar spans) each
    row shows the first series' position and per-series values by
    bucket index, with blanks where a series is shorter.
    """
    if not series_by_label:
        raise ValueError("no series given")
    labels = list(series_by_label)
    length = max(len(series) for series in series_by_label.values())
    headers = [position_label, *labels]
    rows: list[list[object]] = []
    reference = series_by_label[labels[0]]
    for index in range(length):
        if index < len(reference.positions):
            position = f"{reference.positions[index]:.2f}"
        else:
            position = ""
        row: list[object] = [position]
        for label in labels:
            series = series_by_label[label]
            if index < len(series.values):
                row.append(value_format.format(series.values[index]))
            else:
                row.append("")
        rows.append(row)
    return render_table(headers, rows, title=title)


_SPARK_LEVELS = " .:-=+*#%@"


def render_sparkline(
    series: BucketedSeries,
    *,
    label: str = "",
    width: int | None = None,
    low: float | None = None,
    high: float | None = None,
) -> str:
    """Render a series as a one-line character sparkline.

    Values are mapped onto ten density levels between *low* and *high*
    (defaulting to the series' own range).  Useful for compact CLI
    output where a full table is overkill.
    """
    values = list(series.values)
    if width is not None:
        if width < 1:
            raise ValueError("width must be positive")
        if len(values) > width:
            # Downsample by averaging consecutive chunks.
            chunk = len(values) / width
            values = [
                sum(values[int(i * chunk):int((i + 1) * chunk)] or [0.0])
                / max(1, len(values[int(i * chunk):int((i + 1) * chunk)]))
                for i in range(width)
            ]
    lo = min(values) if low is None else low
    hi = max(values) if high is None else high
    span = hi - lo
    chars = []
    for value in values:
        if span <= 0:
            level = 0
        else:
            normalised = (value - lo) / span
            level = int(round(normalised * (len(_SPARK_LEVELS) - 1)))
            level = min(len(_SPARK_LEVELS) - 1, max(0, level))
        chars.append(_SPARK_LEVELS[level])
    line = "".join(chars)
    prefix = f"{label} " if label else ""
    return f"{prefix}[{line}] {lo:.3g}..{hi:.3g}"


# Slice fill characters cycle per task so adjacent tasks on a lane are
# visually separable without colour.
_GANTT_FILLS = "#=%@*+"


def render_gantt(
    events: Sequence[object],
    *,
    width: int = 64,
    title: str = "",
) -> str:
    """Render flight-recorder events as a per-lane ASCII Gantt chart.

    One row per (executor, lane): the lane's task executions painted
    onto a fixed-width time axis spanning the overall makespan, with
    the lane's busy fraction at the end of the row.  Queue-side events
    (negative lanes) are skipped — this chart shows where lanes spend
    their time, which is the per-lane view the critical-path profiler
    summarises numerically.

    *events* duck-types :class:`repro.obs.timeline.TimelineEvent`
    (``kind``/``executor``/``lane``/``clock``/``cost`` attributes); this
    module stays import-free of :mod:`repro.obs` because the obs
    exporters import these renderers.
    """
    if width < 8:
        raise ValueError("width must be at least 8")
    starts = [
        event for event in events
        if event.kind == "start" and event.lane >= 0  # type: ignore[attr-defined]
    ]
    # Executors replay every block from logical clock 0; lay blocks out
    # side by side (same global-offset rule as the Chrome exporter) so
    # a multi-block recording reads as one continuous timeline.
    extents: dict[object, float] = {}
    block_order: list[object] = []
    for event in starts:
        block = event.block  # type: ignore[attr-defined]
        if block not in extents:
            block_order.append(block)
            extents[block] = 0.0
        end = float(event.clock) + float(event.cost)  # type: ignore[attr-defined]
        extents[block] = max(extents[block], end)
    offsets: dict[object, float] = {}
    cursor = 0.0
    for block in block_order:
        offsets[block] = cursor
        cursor += extents[block]
    slices: dict[tuple[str, int], list[tuple[float, float]]] = {}
    makespan = 0.0
    for event in starts:
        offset = offsets[event.block]  # type: ignore[attr-defined]
        start = offset + float(event.clock)  # type: ignore[attr-defined]
        end = start + float(event.cost)  # type: ignore[attr-defined]
        key = (str(event.executor), int(event.lane))  # type: ignore[attr-defined]
        slices.setdefault(key, []).append((start, end))
        makespan = max(makespan, end)
    if not slices or makespan <= 0:
        return f"{title}\n(no lane executions recorded)" if title \
            else "(no lane executions recorded)"
    lines: list[str] = []
    if title:
        lines.append(title)
    label_width = max(
        len(f"{executor}/lane {lane}") for executor, lane in slices
    )
    scale = width / makespan
    for executor, lane in sorted(slices):
        row = [" "] * width
        busy = 0.0
        for index, (start, end) in enumerate(
            sorted(slices[(executor, lane)])
        ):
            busy += end - start
            fill = _GANTT_FILLS[index % len(_GANTT_FILLS)]
            first = min(width - 1, int(start * scale))
            last = min(width - 1, max(first, int(end * scale) - 1))
            for position in range(first, last + 1):
                row[position] = fill
        label = f"{executor}/lane {lane}".ljust(label_width)
        utilization = 100.0 * busy / makespan
        lines.append(f"{label} |{''.join(row)}| {utilization:5.1f}%")
    end_label = f"{makespan:g}"
    lines.append(
        " " * (label_width + 1) + "0"
        + " " * max(1, width - len(end_label)) + end_label
    )
    return "\n".join(lines)


_SHARE_BAR_WIDTH = 32


def render_stage_shares(
    shares: Sequence[tuple[str, float]],
    *,
    title: str = "",
) -> str:
    """Render (stage, fraction) pairs as labelled percentage bars.

    Used by the lifecycle report and ``analysis.report`` consumers to
    show where end-to-end transaction latency goes; fractions are
    expected to sum to ~1 but are rendered as given.
    """
    if not shares:
        return "(no stage shares)"
    lines: list[str] = []
    if title:
        lines.append(title)
    label_width = max(len(stage) for stage, _ in shares)
    for stage, fraction in shares:
        filled = int(round(fraction * _SHARE_BAR_WIDTH))
        filled = min(_SHARE_BAR_WIDTH, max(0, filled))
        bar = "#" * filled + " " * (_SHARE_BAR_WIDTH - filled)
        lines.append(
            f"{stage.ljust(label_width)} |{bar}| {100.0 * fraction:5.1f}%"
        )
    return "\n".join(lines)


def format_rate(value: float) -> str:
    """Format a conflict rate as a percentage string."""
    return f"{100.0 * value:.1f}%"


def format_speedup(value: float) -> str:
    return f"{value:.2f}x"
