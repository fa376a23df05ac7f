"""Analysis layer: figure builders, worked examples, report rendering."""

from repro.analysis.examples import (
    ExampleBlock,
    block_358624_block,
    figure_1a_block,
    figure_1b_block,
    figure_6_chain,
)
from repro.analysis.figures import (
    DEFAULT_BUCKETS,
    FigureData,
    absolute_lcc_series,
    conflict_series,
    figure10,
    figure4,
    figure5,
    figure7,
    figure8,
    figure9,
    load_series,
)
from repro.analysis.report import render_sparkline
from repro.analysis.stats import (
    ConfidenceInterval,
    bootstrap_ci,
    difference_ci,
    metric_ci,
    series_with_ci,
    weighted_mean,
)
from repro.analysis.report import (
    format_rate,
    format_speedup,
    render_series_table,
    render_table,
    render_table1,
)

__all__ = [
    "ExampleBlock",
    "block_358624_block",
    "figure_1a_block",
    "figure_1b_block",
    "figure_6_chain",
    "DEFAULT_BUCKETS",
    "FigureData",
    "absolute_lcc_series",
    "conflict_series",
    "figure10",
    "figure4",
    "figure5",
    "figure7",
    "figure8",
    "figure9",
    "load_series",
    "render_sparkline",
    "ConfidenceInterval",
    "bootstrap_ci",
    "difference_ci",
    "metric_ci",
    "series_with_ci",
    "weighted_mean",
    "format_rate",
    "format_speedup",
    "render_series_table",
    "render_table",
    "render_table1",
]
