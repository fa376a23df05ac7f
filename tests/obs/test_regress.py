"""Regression gate: deterministic snapshots, tolerance bands, and the
checked-in baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.execution import run_engine
from repro.obs.regress import (
    EXACT,
    SNAPSHOT_SCHEMA_VERSION,
    Tolerance,
    build_snapshot,
    compare_snapshots,
    deterministic_metrics,
    flatten_snapshot,
    load_snapshot,
    tolerances_from_spec,
    write_snapshot,
)

BASELINE = (
    Path(__file__).resolve().parent / "baseline" / "regress_baseline.json"
)


@pytest.fixture(scope="module")
def small_snapshot():
    return build_snapshot(chain="ethereum", blocks=3, seed=5)


class TestSnapshotBuild:
    def test_deterministic_across_runs(self, small_snapshot):
        again = build_snapshot(chain="ethereum", blocks=3, seed=5)
        assert json.dumps(small_snapshot, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_shape(self, small_snapshot):
        assert small_snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert small_snapshot["workload"]["chain"] == "ethereum"
        for executor in ("speculative", "occ", "grouped", "dag"):
            assert executor in small_snapshot["bounds"]
        timeline = small_snapshot["timeline"]
        assert timeline["speculative"]["events"] > 0
        assert timeline["speculative"]["executions"] > 0

    def test_strict_executors_never_exceed_eq2(self, small_snapshot):
        for name in ("speculative", "speculative-informed", "grouped"):
            assert small_snapshot["bounds"][name]["eq2_exceeded"] == 0

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError, match="unknown chain"):
            build_snapshot(chain="notachain", blocks=1)
        with pytest.raises(ValueError, match="blocks"):
            build_snapshot(blocks=0)
        with pytest.raises(ValueError, match="cores"):
            build_snapshot(blocks=1, cores=0)
        with pytest.raises(ValueError, match="unknown engine"):
            run_engine("warp-drive", [], 2)

    def test_realtime_metrics_reduced_to_counts(self):
        snapshot = {
            "counters": {"exec.runs": 3.0},
            "gauges": {},
            "histograms": {
                "pipeline.block_seconds": {
                    "count": 3, "sum": 0.123, "min": 0.01, "max": 0.08,
                },
                "exec.wall_time{executor=occ}": {
                    "count": 2, "sum": 10.0, "min": 4.0, "max": 6.0,
                },
            },
        }
        reduced = deterministic_metrics(snapshot)
        assert reduced["histograms"]["pipeline.block_seconds"] == {
            "count": 3
        }
        # Simulated-time histograms keep their full summary.
        assert reduced["histograms"][
            "exec.wall_time{executor=occ}"
        ]["sum"] == 10.0
        assert reduced["counters"] == {"exec.runs": 3.0}


class TestTolerances:
    def test_allowed_takes_max_of_abs_and_rel(self):
        band = Tolerance(rel=0.1, abs=2.0)
        assert band.allowed(100.0) == 10.0
        assert band.allowed(5.0) == 2.0
        assert EXACT.allowed(1e9) == 0.0

    def test_spec_parsing_rejects_unknown_keys(self):
        parsed = tolerances_from_spec(
            {"timeline.*": {"rel": 0.05}, "metrics.*": {"abs": 1}}
        )
        assert parsed["timeline.*"].rel == 0.05
        assert parsed["metrics.*"].abs == 1.0
        with pytest.raises(ValueError, match="unknown keys"):
            tolerances_from_spec({"x": {"relative": 0.1}})


class TestCompare:
    BASE = {"a": {"b": 10.0, "c": "text"}, "list": [1, 2]}

    def test_flatten(self):
        assert flatten_snapshot(self.BASE) == {
            "a.b": 10.0, "a.c": "text", "list": "1,2",
        }

    def test_identical_is_ok(self):
        report = compare_snapshots(self.BASE, self.BASE)
        assert report.ok
        assert not report.regressions

    def test_drift_in_both_directions_fails(self):
        for value, status in ((12.0, "high"), (8.0, "low")):
            fresh = {"a": {"b": value, "c": "text"}, "list": [1, 2]}
            report = compare_snapshots(self.BASE, fresh)
            assert not report.ok
            (entry,) = report.regressions
            assert (entry.key, entry.status) == ("a.b", status)

    def test_tolerance_band_absorbs_drift(self):
        fresh = {"a": {"b": 10.5, "c": "text"}, "list": [1, 2]}
        report = compare_snapshots(
            self.BASE, fresh,
            tolerances={"a.*": Tolerance(rel=0.10)},
        )
        assert report.ok

    def test_missing_key_is_a_regression(self):
        fresh = {"a": {"b": 10.0}, "list": [1, 2]}
        report = compare_snapshots(self.BASE, fresh)
        statuses = {e.key: e.status for e in report.regressions}
        assert statuses == {"a.c": "missing"}

    def test_new_key_is_informational(self):
        fresh = {"a": {"b": 10.0, "c": "text", "d": 1}, "list": [1, 2]}
        report = compare_snapshots(self.BASE, fresh)
        assert report.ok
        assert [e.key for e in report.new_keys] == ["a.d"]

    def test_changed_text_fails(self):
        fresh = {"a": {"b": 10.0, "c": "other"}, "list": [1, 2]}
        report = compare_snapshots(self.BASE, fresh)
        (entry,) = report.regressions
        assert entry.status == "changed"
        assert "REGRESSION [changed] a.c" in report.render()

    def test_render_summary_line(self):
        report = compare_snapshots(self.BASE, self.BASE)
        assert report.render().endswith(
            "3 keys compared, 0 regression(s), 0 new"
        )


class TestPersistence:
    def test_round_trip(self, tmp_path, small_snapshot):
        path = tmp_path / "snap.json"
        write_snapshot(path, small_snapshot)
        assert load_snapshot(path) == json.loads(
            json.dumps(small_snapshot)
        )

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError, match="schema version"):
            load_snapshot(path)


class TestCheckedInBaseline:
    def test_fresh_run_matches_baseline(self):
        """The gate's CI contract: default workload vs the repo baseline."""
        baseline = load_snapshot(BASELINE)
        tolerances = tolerances_from_spec(baseline.pop("tolerances", {}))
        workload = baseline["workload"]
        fresh = build_snapshot(
            chain=workload["chain"],
            blocks=workload["blocks"],
            cores=workload["cores"],
            seed=workload["seed"],
            executors=workload["executors"],
        )
        report = compare_snapshots(baseline, fresh, tolerances=tolerances)
        assert report.ok, report.render()

    def test_perturbed_baseline_detected(self):
        baseline = load_snapshot(BASELINE)
        baseline.pop("tolerances", None)
        flat_timeline = baseline["timeline"]
        executor = next(iter(flat_timeline))
        fresh = json.loads(json.dumps(baseline))
        fresh["timeline"][executor]["events"] += 1
        report = compare_snapshots(baseline, fresh)
        assert not report.ok
        assert any(e.status == "high" for e in report.regressions)
