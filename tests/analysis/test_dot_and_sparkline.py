"""Tests for sparkline rendering."""

from __future__ import annotations

import pytest

from repro.analysis.report import render_sparkline
from repro.core.aggregation import BucketedSeries


def _series(values):
    n = len(values)
    return BucketedSeries(
        positions=tuple(float(i) for i in range(n)),
        values=tuple(values),
        weights=tuple(1.0 for _ in range(n)),
        counts=tuple(1 for _ in range(n)),
    )


class TestSparkline:
    def test_monotone_series(self):
        line = render_sparkline(_series([0.0, 0.5, 1.0]), label="x")
        assert line.startswith("x [")
        body = line.split("[")[1].split("]")[0]
        assert body[0] == " " and body[-1] == "@"

    def test_constant_series(self):
        line = render_sparkline(_series([0.4, 0.4, 0.4]))
        body = line.split("[")[1].split("]")[0]
        assert set(body) == {" "}

    def test_downsampling(self):
        line = render_sparkline(_series([float(i) for i in range(100)]),
                                width=10)
        body = line.split("[")[1].split("]")[0]
        assert len(body) == 10

    def test_fixed_bounds(self):
        line = render_sparkline(
            _series([0.5]), low=0.0, high=1.0
        )
        body = line.split("[")[1].split("]")[0]
        middle = len(" .:-=+*#%@") // 2
        assert body in {" .:-=+*#%@"[middle - 1], " .:-=+*#%@"[middle]}

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_sparkline(_series([1.0]), width=0)
