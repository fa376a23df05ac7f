"""CLI contract for the replay fan-out wiring.

Covers ``repro.cli replay`` (table, divergence exit code, Chrome
trace, Prometheus file), ``speedup --measured`` and ``compare
--measured``.
"""

from __future__ import annotations

import json

from repro import obs
from repro.cli import main


class TestReplayCommand:
    def test_prints_per_engine_table_and_agrees(self, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "3",
            "--scale", "0.1", "--backend", "process", "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for engine in ("sequential", "speculative", "occ", "grouped",
                       "dag"):
            assert engine in out
        assert "state roots agree across 8 engine(s)" in out

    def test_engine_subset(self, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "2",
            "--scale", "0.1", "--engines", "occ,dag",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "state roots agree across 2 engine(s)" in out
        assert "speculative-informed" not in out

    def test_unknown_engine_exits_2(self, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "2",
            "--engines", "blockstm",
        ])
        assert code == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unknown_chain_exits_2(self, capsys):
        code = main(["replay", "--chain", "solana", "--blocks", "2"])
        assert code == 2
        assert "unknown chain" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "2",
            "--backend", "process", "--jobs", "0",
        ])
        assert code == 2

    def test_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "replay.json"
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "3",
            "--scale", "0.1", "--backend", "process", "--jobs", "2",
            "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert events
        # The merged stream carries both engine slices and the
        # chunk-level fan-out lane.
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names
        assert "wrote" in capsys.readouterr().out

    def test_prometheus_out(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        code = main([
            "replay", "--chain", "ethereum", "--blocks", "3",
            "--scale", "0.5", "--prometheus-out", str(prom_path),
        ])
        assert code == 0
        text = prom_path.read_text()
        assert "# TYPE exec_runs_total counter" in text
        assert 'exec_replay_blocks_total{backend="serial"} 3' in text
        assert "wrote Prometheus metrics" in capsys.readouterr().out

    def test_process_backend_prometheus_out(self, tmp_path):
        """The CI smoke invocation: the workers' counters merge into the
        registry the file is written from."""
        prom_path = tmp_path / "m.prom"
        code = main([
            "replay", "--chain", "ethereum", "--blocks", "4",
            "--scale", "0.5", "--backend", "process", "--jobs", "2",
            "--prometheus-out", str(prom_path),
        ])
        assert code == 0
        text = prom_path.read_text()
        assert 'exec_replay_blocks_total{backend="process"} 4' in text
        assert 'exec_runs_total{cores="4",executor="occ"}' in text

    def test_unwritable_prometheus_path_exits_2(self, tmp_path, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "2",
            "--scale", "0.1", "--engines", "occ",
            "--prometheus-out", str(tmp_path / "missing" / "m.prom"),
        ])
        assert code == 2
        assert "cannot write Prometheus file" in capsys.readouterr().err

    def test_bad_cores_exits_2(self, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "2",
            "--cores", "0",
        ])
        assert code == 2
        assert "--cores" in capsys.readouterr().err

    def test_leaves_global_state_disabled(self, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "2",
            "--scale", "0.1", "--engines", "occ",
        ])
        assert code == 0
        assert not obs.enabled()


class TestSpeedupMeasured:
    def test_measured_table_renders(self, capsys):
        code = main([
            "speedup", "--chain", "bitcoin", "--blocks", "4",
            "--scale", "0.1", "--cores", "2,4", "--measured",
            "--backend", "process", "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "measured replay speed-ups" in out
        assert "state roots identical" in out
        assert "2 cores" in out and "4 cores" in out


class TestCompareMeasured:
    def test_measured_columns_render(self, capsys):
        code = main([
            "compare", "--left", "bitcoin", "--right", "bitcoin_cash",
            "--blocks", "4", "--scale", "0.1", "--measured",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "spec R" in out and "group R" in out

    def test_without_flag_layout_unchanged(self, capsys):
        code = main([
            "compare", "--left", "bitcoin", "--right", "bitcoin_cash",
            "--blocks", "4", "--scale", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "spec R" not in out
