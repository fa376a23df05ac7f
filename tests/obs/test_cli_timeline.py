"""CLI contract for ``repro.cli timeline`` and ``repro.cli regress``:
Chrome-trace schema, bound invariants, and the gate's exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

BASELINE = (
    Path(__file__).resolve().parent / "baseline" / "regress_baseline.json"
)

# Chrome trace-event fields by phase type (the subset we emit).
COMMON_FIELDS = {"name", "ph", "pid", "tid"}


def _run_timeline(tmp_path, *extra):
    out = tmp_path / "trace.json"
    code = main([
        "timeline", "--chain", "ethereum", "--executor", "speculative",
        "--cores", "4", "--blocks", "4", "--seed", "0",
        "--out", str(out), *extra,
    ])
    return code, out


class TestTimelineCommand:
    def test_acceptance_invocation_emits_valid_chrome_trace(
        self, tmp_path, capsys
    ):
        code, out = _run_timeline(tmp_path)
        assert code == 0
        document = json.loads(out.read_text())
        assert set(document) == {
            "traceEvents", "displayTimeUnit", "otherData",
        }
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events, "trace is empty"
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "M"}
        for event in events:
            assert COMMON_FIELDS <= set(event)
            if event["ph"] == "X":  # complete slice
                assert event["dur"] >= 0
                assert event["ts"] >= 0
                assert event["args"]["outcome"] in ("commit", "abort")
            elif event["ph"] == "i":  # instant
                assert event["s"] == "t"
            else:  # metadata
                assert event["name"] in ("process_name", "thread_name")
        # Slices exist for the executor and land on worker lanes
        # (tid >= 1; tid 0 is the queue).
        slices = [e for e in events if e["ph"] == "X"]
        assert all(e["tid"] >= 1 for e in slices)

    def test_per_block_speedup_within_eq2(self, tmp_path, capsys):
        code, _out = _run_timeline(tmp_path)
        assert code == 0
        # With the trace in a file the per-block table goes to stdout;
        # every row of the strict speculative executor must be within
        # the Eq. 2 bound (no flags).
        out = capsys.readouterr().out
        assert "VIOLATION" not in out
        rows = [
            line for line in out.splitlines()
            if line and line[0].isdigit()
        ]
        assert len(rows) >= 3
        for row in rows:
            cells = [c.strip() for c in row.split("|")]
            measured, eq2 = float(cells[2]), float(cells[4])
            assert measured <= eq2 + 1e-9

    def test_stdout_json_mode(self, capsys):
        code = main([
            "timeline", "--chain", "ethereum", "--blocks", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["traceEvents"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["timeline", "--chain", "notachain"],
            ["timeline", "--chain", "ethereum", "--cores", "0"],
            ["timeline", "--chain", "ethereum", "--blocks", "0"],
        ],
        ids=["bad-chain", "bad-cores", "bad-blocks"],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


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


class TestDegenerateInputs:
    def test_empty_replay_exits_zero_with_note(self, capsys):
        # A scale so small no block carries an executable transaction:
        # the table/summary path must explain itself, not traceback.
        code = main([
            "timeline", "--chain", "ethereum", "--blocks", "1",
            "--seed", "0", "--scale", "0.001",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "empty timeline" in err
