"""CLI contract for ``repro node run`` and ``repro monitor`` on the
node network: exit-code matrix (0 converged, 1 divergence/timeout, 2
usage), the deterministic ``--snapshot-out`` artifact, and live monitor
attach."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

_BASE = [
    "node", "run", "--chain", "ethereum", "--height", "2",
    "--nodes", "3", "--workload-blocks", "2", "--scale", "0.2",
    "--seed", "11",
]


def _run(capsys, *extra):
    code = main([*_BASE, *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, _err = _run(capsys, "--quiet")
        assert code == 0
        assert "block 1:" not in out

    def test_timeout_exits_1(self, capsys):
        code, _out, err = _run(capsys, "--max-sim-time", "1", "--quiet")
        assert code == 1
        assert "did not converge" in err

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


class TestMonitorFollow:
    def test_follow_renders_at_least_three_windows(self, capsys):
        code = main([
            "monitor", "--chain", "ethereum",
            "--nodes", "3", "--blocks", "3", "--seed", "11",
            "--scale", "0.3", "--window", "4",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("block(s)") >= 3
        assert "network converged" in captured.out

    def test_follow_timeout_exits_1(self, capsys):
        code = main([
            "monitor", "--chain", "ethereum",
            "--nodes", "3", "--blocks", "5", "--seed", "11",
            "--scale", "0.2", "--max-sim-time", "1", "--once",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "did not converge" in captured.err

    def test_follow_unknown_node_exits_2(self, capsys):
        code = main([
            "monitor", "--chain", "ethereum",
            "--nodes", "3", "--follow-node", "n9",
        ])
        capsys.readouterr()
        assert code == 2
