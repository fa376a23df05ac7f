"""Tests for the figure builders and text rendering."""

from __future__ import annotations

import pytest

from repro.analysis.figures import (
    absolute_lcc_series,
    conflict_series,
    figure10,
    figure4,
    figure7,
    figure8,
    figure9,
    load_series,
)
from repro.analysis.report import (
    format_rate,
    format_speedup,
    render_series_table,
    render_table,
    render_table1,
)
from repro.workload.profiles import ALL_PROFILES


class TestLoadSeries:
    def test_account_chain_has_all_txs_series(self, ethereum_history):
        data = load_series(ethereum_history)
        assert set(data.series) == {"regular_txs", "all_txs"}
        # Internal transactions make "all" strictly larger on average.
        regular = data.series["regular_txs"].overall_mean
        all_txs = data.series["all_txs"].overall_mean
        assert all_txs > regular

    def test_utxo_chain_has_input_txos_series(self, bitcoin_history):
        data = load_series(bitcoin_history)
        assert set(data.series) == {"regular_txs", "input_txos"}

    def test_positions_increase(self, ethereum_history):
        data = load_series(ethereum_history)
        positions = data.series["regular_txs"].positions
        assert all(b > a for a, b in zip(positions, positions[1:]))


class TestConflictSeries:
    def test_metric_validation(self, ethereum_history):
        with pytest.raises(ValueError):
            conflict_series(ethereum_history, metric="both")

    def test_account_variants(self, ethereum_history):
        data = conflict_series(ethereum_history, metric="single")
        assert set(data.series) == {"tx_weighted", "gas_weighted"}

    def test_rates_in_unit_interval(self, ethereum_history):
        for metric in ("single", "group"):
            data = conflict_series(ethereum_history, metric=metric)
            for series in data.series.values():
                assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_group_rate_below_single_rate(self, ethereum_history):
        single = conflict_series(ethereum_history, metric="single")
        group = conflict_series(ethereum_history, metric="group")
        assert (
            group.series["tx_weighted"].overall_mean
            <= single.series["tx_weighted"].overall_mean
        )


class TestCompositeFigures:
    def test_figure4_panels(self, ethereum_history):
        load, single, group = figure4(ethereum_history)
        assert load.figure == "load"
        assert single.figure == "conflict-single"
        assert group.figure == "conflict-group"

    def test_figure7_covers_all_chains(
        self, ethereum_history, bitcoin_history
    ):
        panels = figure7(
            {"ethereum": ethereum_history, "bitcoin": bitcoin_history}
        )
        assert set(panels) == {"single", "group"}
        assert set(panels["single"].series) == {"ethereum", "bitcoin"}

    def test_figure8_and_9_shapes(self, ethereum_history, bitcoin_history):
        eight = figure8(ethereum_history, ethereum_history)
        assert set(eight) == {"load", "single", "group"}
        nine = figure9(bitcoin_history, bitcoin_history)
        assert "lcc_absolute" in nine

    def test_absolute_lcc_series(self, bitcoin_history):
        data = absolute_lcc_series(bitcoin_history)
        assert all(v >= 0 for v in data.series["lcc_size"].values)


class TestFigure10:
    def test_core_sweep_labels(self, ethereum_history):
        panels = figure10(ethereum_history, cores=(4, 8, 64))
        assert set(panels["speculative"].series) == {
            "4_cores", "8_cores", "64_cores",
        }

    def test_group_speedups_dominate_speculative(self, ethereum_history):
        """Fig. 10's headline contrast: group >> single-tx speed-ups."""
        panels = figure10(ethereum_history, cores=(8,))
        speculative = panels["speculative"].series["8_cores"].overall_mean
        grouped = panels["grouped"].series["8_cores"].overall_mean
        assert grouped > speculative

    def test_group_speedups_bounded_by_cores(self, ethereum_history):
        panels = figure10(ethereum_history, cores=(4, 64))
        assert all(
            v <= 4.0 + 1e-9
            for v in panels["grouped"].series["4_cores"].values
        )

    def test_more_cores_never_reduce_group_speedup(self, ethereum_history):
        panels = figure10(ethereum_history, cores=(4, 64))
        four = panels["grouped"].series["4_cores"].values
        sixty_four = panels["grouped"].series["64_cores"].values
        assert all(b >= a for a, b in zip(four, sixty_four))


class TestReportRendering:
    def test_render_table_alignment(self):
        text = render_table(
            ["a", "longheader"], [["1", "2"], ["333", "4"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "longheader" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_render_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_table1_contains_all_chains(self):
        text = render_table1(ALL_PROFILES)
        for profile in ALL_PROFILES:
            assert profile.display_name in text
        assert "PoW+Sharding" in text

    def test_render_series_table(self, ethereum_history):
        data = conflict_series(ethereum_history, metric="single")
        text = render_series_table(data.series, title="rates")
        assert "tx_weighted" in text
        assert "gas_weighted" in text

    def test_render_series_table_empty(self):
        with pytest.raises(ValueError):
            render_series_table({})

    def test_formatters(self):
        assert format_rate(0.1234) == "12.3%"
        assert format_speedup(5.678) == "5.68x"


class _Event:
    """Duck-typed stand-in for a flight-recorder TimelineEvent."""

    def __init__(self, kind, executor, lane, clock, cost, block=1):
        self.kind = kind
        self.executor = executor
        self.lane = lane
        self.clock = clock
        self.cost = cost
        self.block = block


class TestRenderGantt:
    def _events(self):
        return [
            _Event("start", "dag", 0, 0.0, 4.0),
            _Event("start", "dag", 1, 0.0, 2.0),
            _Event("start", "dag", 1, 2.0, 2.0),
            _Event("schedule", "dag", -1, 0.0, 0.0),  # queue: skipped
        ]

    def test_rows_per_lane_with_busy_percent(self):
        from repro.analysis.report import render_gantt

        chart = render_gantt(self._events(), width=16, title="lanes")
        lines = chart.splitlines()
        assert lines[0] == "lanes"
        assert lines[1].startswith("dag/lane 0")
        assert lines[2].startswith("dag/lane 1")
        # Both lanes are busy for the whole makespan.
        assert lines[1].rstrip().endswith("100.0%")
        assert lines[2].rstrip().endswith("100.0%")
        # Lane 1 runs two tasks -> two distinct fill characters.
        row = lines[2].split("|")[1]
        assert len(set(row)) == 2
        # Axis ends at the makespan.
        assert lines[-1].strip().startswith("0")
        assert lines[-1].rstrip().endswith("4")

    def test_multi_block_runs_lay_out_sequentially(self):
        from repro.analysis.report import render_gantt

        events = [
            _Event("start", "dag", 0, 0.0, 2.0, block=1),
            _Event("start", "dag", 0, 0.0, 2.0, block=2),
        ]
        chart = render_gantt(events, width=16)
        row = chart.splitlines()[0].split("|")[1]
        # Blocks replay from clock 0 but render side by side, so the
        # lane is solid across both and the axis spans their sum.
        assert " " not in row
        assert chart.splitlines()[-1].rstrip().endswith("4")

    def test_empty_and_validation(self):
        from repro.analysis.report import render_gantt

        assert "no lane executions" in render_gantt([])
        with pytest.raises(ValueError):
            render_gantt(self._events(), width=4)


class TestRenderStageShares:
    def test_bars_scale_with_fraction(self):
        from repro.analysis.report import render_stage_shares

        text = render_stage_shares(
            [("consensus", 0.75), ("scheduled", 0.25)], title="shares"
        )
        lines = text.splitlines()
        assert lines[0] == "shares"
        assert lines[1].rstrip().endswith("75.0%")
        assert lines[1].count("#") == 24
        assert lines[2].count("#") == 8

    def test_empty_shares(self):
        from repro.analysis.report import render_stage_shares

        assert render_stage_shares([]) == "(no stage shares)"
