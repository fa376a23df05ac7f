"""CLI contract for ``repro.cli monitor``: the exit-code matrix (0 on
healthy runs, 1 on a hard SLO breach, 2 on bad arguments), the
``--once`` snapshot mode, and the ``--snapshot-out`` JSON artifact."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def _run(capsys, *extra):
    code = main([
        "monitor", "--chain", "ethereum", "--blocks", "2",
        "--seed", "2020", "--cores", "2", *extra,
    ])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMonitorCommand:
    def test_once_renders_final_window(self, capsys):
        code, out, _err = _run(capsys, "--once")
        assert code == 0
        assert "window" in out
        assert "abort-rate=" in out
        assert "throughput=" in out
        # --once prints exactly one dashboard header, not one per block.
        assert out.count("block(s)") == 1

    def test_live_mode_renders_every_block(self, capsys):
        code, out, _err = _run(capsys)
        assert code == 0
        assert out.count("block(s)") >= 2

    def test_full_rate_shows_stage_latency_table(self, capsys):
        code, out, _err = _run(capsys, "--once")
        assert code == 0
        assert "sampled stage latency" in out

    def test_hard_abort_rate_breach_exits_1(self, capsys):
        code, out, err = _run(
            capsys, "--executor", "occ", "--once",
            "--max-abort-rate", "0.01",
        )
        assert code == 1
        assert "SLO BREACH: abort-rate" in err

    def test_speculative_aborts_reach_the_hard_gate(self, capsys):
        """The dashboard's abort count is the report's, and the report's
        is the event stream's: the bin aborts, so the gate can fire."""
        code, out, err = _run(
            capsys, "--executor", "speculative", "--once",
            "--max-abort-rate", "0.05",
        )
        assert code == 1
        assert "SLO BREACH: abort-rate" in err
        assert "aborted=0 " not in out

    def test_wall_gate_is_advisory_only(self, capsys):
        # An absurdly tight wall budget must report but never fail.
        code, out, err = _run(capsys, "--once", "--wall-p95", "1e-12")
        assert code == 0
        assert "ADVISORY" in out
        assert err == ""

    def test_snapshot_out_writes_artifact(self, tmp_path, capsys):
        snapshot = tmp_path / "monitor.json"
        code, out, _err = _run(
            capsys, "--once", "--max-abort-rate", "0.9",
            "--snapshot-out", str(snapshot),
        )
        assert code == 0
        assert f"wrote monitor snapshot to {snapshot}" in out
        document = json.loads(snapshot.read_text())
        assert set(document) == {"aggregate", "rules", "hard_breaches"}
        assert document["aggregate"]["txs"] > 0
        assert document["aggregate"]["window"] >= 1
        assert document["hard_breaches"] == []
        assert document["rules"][0]["metric"] == "abort_rate"

    def test_snapshot_records_breach(self, tmp_path, capsys):
        snapshot = tmp_path / "monitor.json"
        code, _out, _err = _run(
            capsys, "--executor", "occ", "--once",
            "--max-abort-rate", "0.01",
            "--snapshot-out", str(snapshot),
        )
        assert code == 1
        document = json.loads(snapshot.read_text())
        assert document["hard_breaches"] == ["abort-rate"]

    def test_sampled_run_keeps_exit_zero(self, capsys):
        code, out, _err = _run(
            capsys, "--once", "--rate", "1/100", "--policy", "sketch",
        )
        assert code == 0
        assert "window" in out

    @pytest.mark.parametrize("argv", [
        ["monitor", "--chain", "nope", "--once"],
        ["monitor", "--chain", "ethereum", "--rate", "0/100"],
        ["monitor", "--chain", "ethereum", "--rate", "banana"],
        ["monitor", "--chain", "ethereum", "--window", "0"],
        ["monitor", "--chain", "ethereum", "--blocks", "0"],
        ["monitor", "--chain", "ethereum", "--max-abort-rate", "-1"],
        ["monitor", "--chain", "ethereum", "--wall-p95", "0"],
    ])
    def test_bad_arguments_exit_2(self, capsys, argv):
        assert main(argv) == 2

    def test_bad_policy_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", "--chain", "ethereum",
                  "--policy", "approximate"])
        assert excinfo.value.code == 2
