"""CLI contract for ``repro node run``: the exit-code matrix (0
converged, 1 divergence / timeout / abort-rate breach, 2 usage), the
deterministic ``--snapshot-out`` artifact, the per-block stream, the
lifecycle report that follows the summary for every chain in the
catalogue, and the ``--out`` Chrome trace whose lifecycle process joins
the executor timeline with flow events."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.exporters import LIFECYCLE_PID
from repro.workload.profiles import PROFILES_BY_NAME

_BASE = [
    "node", "run", "--chain", "ethereum", "--height", "2",
    "--nodes", "3", "--workload-blocks", "2", "--scale", "0.2",
    "--seed", "11",
]


def _run(capsys, *extra):
    code = main([*_BASE, *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _two_blocks(capsys, *extra):
    """A 2-block run at seed 2020 on 2 cores, summary and report only."""
    code = main([
        "node", "run", "--height", "2", "--workload-blocks", "2",
        "--seed", "2020", "--cores", "2", "--quiet", *extra,
    ])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count(line: str, word: str) -> int:
    return int(line.split(f" {word}")[0].rsplit(" ", 1)[1])


class TestNodeRun:
    def test_converged_run_exits_0(self, capsys):
        code, out, err = _run(capsys)
        assert code == 0
        # At least the target height: the network mines on until every
        # pool has drained.
        height = int(out.split("converged at height ")[1].split()[0])
        assert height >= 2
        assert "fingerprint" in out
        assert err == ""

    def test_per_block_stream_then_quiet(self, capsys):
        code, out, _err = _run(capsys)
        assert code == 0
        assert "[n" in out  # per-block lines name the emitting node
        assert "lane-util " in out
        code, out, _err = _run(capsys, "--quiet")
        assert code == 0
        assert "block 1:" not in out
        assert "lane-util" not in out

    def test_per_block_stream_follows_every_head_of_n0(self, capsys):
        code, out, _err = _run(capsys, "--height", "3", "--scale", "0.3")
        assert code == 0
        assert out.count("[n0] block ") >= 3
        assert "converged at height" in out

    def test_per_block_stream_renders_every_block(self, capsys):
        """Without --quiet, n0 prints one line per block it makes its
        head, each with its lane utilization."""
        code = main([
            "node", "run", "--chain", "ethereum", "--height", "2",
            "--workload-blocks", "2", "--seed", "2020", "--cores", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines()
                 if line.startswith("[n0] block ")]
        assert len(lines) >= 2
        assert all("lane-util " in line for line in lines)

    def test_timeout_exits_1(self, capsys):
        code, _out, err = _run(capsys, "--max-sim-time", "1", "--quiet")
        assert code == 1
        assert "did not converge" in err

    def test_timeout_exits_1_with_traces_left_open(self, capsys):
        code, out, err = _run(
            capsys, "--height", "5", "--workload-blocks", "5",
            "--max-sim-time", "1",
        )
        assert code == 1
        assert "did not converge" in err
        (line,) = [
            line for line in out.splitlines()
            if line.startswith("lifecycle traces: ")
        ]
        admitted = _count(line, "admitted")
        assert admitted > 0
        assert admitted == (_count(line, "committed")
                            + _count(line, "dropped") + _count(line, "open"))
        assert _count(line, "open") > 0

    def test_bad_arguments_exit_2(self, capsys):
        code = main(["node", "run", "--chain", "no-such-chain"])
        capsys.readouterr()
        assert code == 2
        code = main([*_BASE, "--nodes", "1"])
        capsys.readouterr()
        assert code == 2
        code = main([*_BASE, "--loss", "2.0"])
        capsys.readouterr()
        assert code == 2

    def test_snapshot_out_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert _run(capsys, "--quiet", "--snapshot-out", str(first))[0] == 0
        assert _run(capsys, "--quiet", "--snapshot-out", str(second))[0] == 0
        doc_a = json.loads(first.read_text())
        doc_b = json.loads(second.read_text())
        assert doc_a == doc_b
        assert doc_a["converged"] is True
        roots = {node["chain_root"] for node in doc_a["nodes"]}
        assert len(roots) == 1


class TestLifecycleReport:
    @pytest.mark.parametrize("chain", sorted(PROFILES_BY_NAME))
    def test_report_renders_for_every_chain(self, capsys, chain):
        code, out, _err = _two_blocks(capsys, "--chain", chain,
                                      "--executor", "dag")
        assert code == 0
        assert "per-stage latency" in out
        assert "share of total traced latency" in out
        assert "slowest 3 trace(s):" in out
        assert "executor lanes (dag)" in out
        # The trace line accounts for every transaction.
        (line,) = [
            line for line in out.splitlines()
            if line.startswith("lifecycle traces: ")
        ]
        admitted = _count(line, "admitted")
        assert admitted > 0
        assert admitted == _count(line, "committed") + _count(line, "dropped")
        assert _count(line, "open") == 0

    def test_report_shows_stage_latency_table(self, capsys):
        code, out, _err = _two_blocks(capsys, "--chain", "ethereum")
        assert code == 0
        lines = out.splitlines()
        header = lines.index(
            "per-stage latency (simulated seconds since previous stage)"
        )
        columns = [cell.strip() for cell in lines[header + 1].split("|")]
        assert columns[:2] == ["stage", "count"]
        rows = {}
        for row in lines[header + 3:]:
            if not row:
                break
            cells = [cell.strip() for cell in row.split("|")]
            rows[cells[0]] = int(cells[1])
        assert {"included", "committed"} <= set(rows)
        (trace_line,) = [
            line for line in lines if line.startswith("lifecycle traces: ")
        ]
        assert rows["committed"] == _count(trace_line, "committed") > 0

    def test_sharded_chains_agree_by_pbft_unless_told(self, capsys):
        _code, out, _err = _two_blocks(capsys, "--chain", "zilliqa")
        assert "(pbft, occ executor)" in out
        _code, out, _err = _two_blocks(
            capsys, "--chain", "zilliqa", "--consensus", "pow"
        )
        assert "(pow, occ executor)" in out
        _code, out, _err = _two_blocks(capsys, "--chain", "ethereum")
        assert "(pow, occ executor)" in out

    def test_task_executor_reports_aborts(self, capsys):
        code, out, _err = _two_blocks(
            capsys, "--chain", "ethereum", "--executor", "occ",
        )
        assert code == 0
        assert "executor lanes (occ)" in out

    def test_out_writes_joined_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "lifecycle.json"
        code, out, _err = _two_blocks(
            capsys, "--chain", "ethereum", "--executor", "dag",
            "--out", str(out_path),
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


class TestAbortRateGate:
    def test_hard_abort_rate_breach_exits_1(self, capsys):
        code, _out, err = _two_blocks(
            capsys, "--chain", "ethereum", "--executor", "occ",
            "--max-abort-rate", "0.01",
        )
        assert code == 1
        assert "SLO BREACH: abort-rate" in err

    def test_speculative_aborts_reach_the_hard_gate(self, capsys):
        """n0's abort count is the report's, and the report's is the
        event stream's: the bin aborts, so the gate can fire."""
        code, _out, err = _two_blocks(
            capsys, "--chain", "ethereum", "--executor", "speculative",
            "--max-abort-rate", "0.05",
        )
        assert code == 1
        assert "SLO BREACH: abort-rate" in err

    def test_dag_never_aborts(self, capsys):
        code, _out, err = _two_blocks(
            capsys, "--chain", "ethereum", "--executor", "dag",
            "--max-abort-rate", "0",
        )
        assert code == 0
        assert err == ""


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["--chain", "fantom"],
        ["--chain", "ethereum", "--height", "0"],
        ["--chain", "ethereum", "--cores", "0"],
        ["--chain", "ethereum", "--nodes", "1"],
        ["--chain", "ethereum", "--max-abort-rate", "-1"],
        ["--chain", "ethereum", "--workload-blocks", "0"],
    ])
    def test_exit_2(self, argv, capsys):
        assert main(["node", "run", *argv]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_executor_choice_exits_2(self, capsys):
        # argparse rejects the choice itself, before the command runs.
        assert main(["node", "run", "--chain", "ethereum",
                     "--executor", "warp"]) == 2
        assert "argument --executor: invalid choice" in (
            capsys.readouterr().err
        )

    def test_unknown_chain_exits_2(self, capsys):
        assert main(["node", "run", "--chain", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown chain 'nope'" in err
        assert all(name in err for name in PROFILES_BY_NAME)

    @pytest.mark.parametrize("command", ["lifecycle", "monitor"])
    def test_removed_commands_are_invalid_choices(self, command, capsys):
        assert main([command, "--chain", "ethereum"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and command in err
