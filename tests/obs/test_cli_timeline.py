"""CLI contract for ``repro.cli regress``: the checked-in baseline
passes, and the gate's exit codes."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

BASELINE = (
    Path(__file__).resolve().parent / "baseline" / "regress_baseline.json"
)


class TestRegressCommand:
    def test_checked_in_baseline_passes(self, capsys):
        code = main(["regress", "--baseline", str(BASELINE)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        baseline = json.loads(BASELINE.read_text())
        executor = next(iter(baseline["timeline"]))
        baseline["timeline"][executor]["events"] += 100
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(baseline))
        code = main(["regress", "--baseline", str(perturbed)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_tolerance_band_in_baseline_absorbs_drift(self, tmp_path):
        baseline = json.loads(BASELINE.read_text())
        executor = next(iter(baseline["timeline"]))
        baseline["timeline"][executor]["events"] += 1
        baseline["tolerances"] = {"timeline.*.events": {"abs": 2}}
        banded = tmp_path / "banded.json"
        banded.write_text(json.dumps(baseline))
        assert main(["regress", "--baseline", str(banded)]) == 0

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        code = main([
            "regress", "--baseline", str(tmp_path / "absent.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_update_writes_baseline_and_snapshot_out(self, tmp_path):
        target = tmp_path / "new_baseline.json"
        code = main([
            "regress", "--baseline", str(target), "--update",
            "--chain", "ethereum", "--blocks", "2", "--cores", "2",
            "--seed", "5",
        ])
        assert code == 0
        written = json.loads(target.read_text())
        assert written["workload"]["blocks"] == 2
        # The freshly written baseline immediately passes the gate.
        snap_out = tmp_path / "fresh.json"
        code = main([
            "regress", "--baseline", str(target),
            "--snapshot-out", str(snap_out),
        ])
        assert code == 0
        assert json.loads(snap_out.read_text())["workload"]["blocks"] == 2

