"""CLI contract for ``repro.cli lifecycle``: the per-stage breakdown
renders for every chain in the catalogue, usage errors exit 2, and
``--out`` writes a Chrome trace whose lifecycle process joins the
executor timeline with flow events."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.exporters import LIFECYCLE_PID
from repro.workload.profiles import PROFILES_BY_NAME


def _run(capsys, *extra):
    code = main([
        "lifecycle", "--blocks", "2", "--seed", "0", "--cores", "2",
        *extra,
    ])
    return code, capsys.readouterr().out


class TestLifecycleCommand:
    @pytest.mark.parametrize("chain", sorted(PROFILES_BY_NAME))
    def test_breakdown_renders_for_every_chain(self, capsys, chain):
        code, out = _run(capsys, "--chain", chain)
        assert code == 0
        assert "admitted" in out and "committed" in out
        assert "per-stage latency" in out
        assert "share of total traced latency" in out
        assert "slowest 3 trace(s):" in out
        assert "executor lanes (dag)" in out
        # The summary line accounts for every transaction.
        summary = out.splitlines()[0]
        admitted = int(summary.split(" admitted")[0].rsplit(" ", 1)[1])
        committed = int(summary.split(" committed")[0].rsplit(" ", 1)[1])
        dropped = int(summary.split(" dropped")[0].rsplit(" ", 1)[1])
        assert admitted == committed + dropped
        assert admitted > 0

    def test_task_executor_reports_aborts(self, capsys):
        code, out = _run(
            capsys, "--chain", "ethereum", "--executor", "occ",
        )
        assert code == 0
        assert "executor lanes (occ)" in out

    def test_out_writes_joined_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "lifecycle.json"
        code, out = _run(
            capsys, "--chain", "ethereum", "--out", str(out_path),
        )
        assert code == 0
        assert f"trace events to {out_path}" in out
        document = json.loads(out_path.read_text())
        events = document["traceEvents"]
        lifecycle = [e for e in events if e.get("pid") == LIFECYCLE_PID]
        assert lifecycle, "no lifecycle process in the trace"
        # Stage swimlanes are named threads; traces hop via flows.
        names = {
            e["args"]["name"] for e in lifecycle
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"admitted", "included", "committed"} <= names
        flow_phases = {e["ph"] for e in lifecycle}
        assert {"s", "f"} <= flow_phases
        # Executor slices from the same run share the file.
        assert any(
            e["ph"] == "X" and e.get("pid") != LIFECYCLE_PID
            for e in events
        )

    def test_dropped_traces_close_in_report(self, capsys):
        code, out = _run(
            capsys, "--chain", "ethereum", "--mempool-weight", "50",
        )
        assert code == 0
        dropped = int(
            out.splitlines()[0].split(" dropped")[0].rsplit(" ", 1)[1]
        )
        assert dropped > 0
        assert "dropped" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["lifecycle", "--chain", "fantom"],
        ["lifecycle", "--chain", "ethereum", "--blocks", "0"],
        ["lifecycle", "--chain", "ethereum", "--cores", "0"],
        ["lifecycle", "--chain", "ethereum", "--nodes", "1"],
        ["lifecycle", "--chain", "ethereum", "--top", "0"],
        ["lifecycle", "--chain", "ethereum", "--mempool-weight", "0"],
    ])
    def test_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_executor_choice_exits_2(self, capsys):
        # argparse rejects the choice itself, before the command runs.
        assert main(["lifecycle", "--chain", "ethereum",
                     "--executor", "warp"]) == 2
        assert "argument --executor: invalid choice" in (
            capsys.readouterr().err
        )
