"""CLI contract for ``repro.cli replay``: the per-engine table and its
divergence exit code, the Eq. 1 / Eq. 2 bounds line and column, the
Chrome trace and the Prometheus file; ``compare``, which does not
replay, prints no measured columns."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.execution.parallel_replay import replay_block_inputs
from repro.execution.registry import ENGINES, EQ2_STRICT_EXECUTORS, run_engine
from repro.obs.critical_path import compare_to_bounds, task_conflict_profile
from repro.workload.profiles import PROFILES_BY_NAME
from tests.core.test_golden_regression import GOLDEN_CHAINS

# Chrome trace-event fields by phase type (the subset we emit).
COMMON_FIELDS = {"name", "ph", "pid", "tid"}


def _golden_argv(name: str, args: dict) -> list[str]:
    return [
        "replay", "--chain", name, "--blocks", str(args["num_blocks"]),
        "--seed", str(args["seed"]), "--scale", str(args["scale"]),
    ]


def _table(out: str) -> dict[str, list[str]]:
    """The replay table's cells, by engine name."""
    rows = {}
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] in ENGINES:
            rows[cells[0]] = cells
    return rows


def _bounds(out: str) -> tuple[float, float, int, int]:
    """(Eq. 1 R, chain Eq. 2 bound, LCC-bound blocks, blocks) as printed."""
    (line,) = [line for line in out.splitlines() if " bounds: " in line]
    words = line.replace(";", "").split()
    return (
        float(words[words.index("R") + 1]),
        float(words[words.index("bound") + 1]),
        int(words[words.index("on") + 1]),
        int(words[words.index("of") + 1]),
    )


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

    def test_speculative_trace_is_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "replay", "--chain", "ethereum", "--engines", "speculative",
            "--cores", "4", "--blocks", "4", "--seed", "0",
            "--out", str(out),
        ])
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
        # Slices land on worker lanes (tid >= 1; tid 0 is the queue).
        slices = [e for e in events if e["ph"] == "X"]
        assert slices and all(e["tid"] >= 1 for e in slices)

    def test_leaves_global_state_disabled(self, capsys):
        code = main([
            "replay", "--chain", "bitcoin", "--blocks", "2",
            "--scale", "0.1", "--engines", "occ",
        ])
        assert code == 0
        assert not obs.enabled()


class TestCompareMeasured:
    def test_without_flag_layout_unchanged(self, capsys):
        code = main([
            "compare", "--left", "bitcoin", "--right", "bitcoin_cash",
            "--blocks", "4", "--scale", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "spec R" not in out


class TestReplayBounds:
    def test_speculative_line_and_column(self, capsys):
        code = main([
            "replay", "--chain", "ethereum", "--engines", "speculative",
            "--cores", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert (
            "ethereum bounds: Eq. 1 R 1.139; chain Eq. 2 bound 3.231; "
            "LCC binds on 10 of 20 blocks"
        ) in out
        row = _table(out)["speculative"]
        assert row[4:6] == ["1.145", "0"]   # R, blocks over Eq. 2

    @pytest.mark.parametrize(
        "name, args", GOLDEN_CHAINS, ids=[name for name, _ in GOLDEN_CHAINS]
    )
    def test_strict_engines_never_exceed_eq2(self, capsys, name, args):
        assert main(_golden_argv(name, args)) == 0
        out = capsys.readouterr().out
        rows = _table(out)
        assert set(rows) == set(ENGINES)
        _eq1, eq2, _binds, _blocks = _bounds(out)
        for engine in EQ2_STRICT_EXECUTORS:
            assert rows[engine][5] == "0", rows[engine]
            assert float(rows[engine][4]) <= eq2 + 1e-3
        assert "VIOLATION" not in out

    @pytest.mark.parametrize(
        "name, args", GOLDEN_CHAINS, ids=[name for name, _ in GOLDEN_CHAINS]
    )
    def test_chain_bounds_weight_the_block_bounds_by_work(
        self, capsys, name, args
    ):
        assert main([*_golden_argv(name, args), "--engines", "grouped"]) == 0
        eq1, eq2, binds, blocks = _bounds(capsys.readouterr().out)
        inputs = replay_block_inputs(
            PROFILES_BY_NAME[name], blocks=args["num_blocks"],
            seed=args["seed"], scale=args["scale"], predict=False,
        )
        work = eq1_time = eq2_time = 0.0
        lcc_bound = 0
        for block in inputs:
            report = run_engine("grouped", block, 4)
            comparison = compare_to_bounds(
                report, task_conflict_profile(block.tasks)
            )
            work += report.total_work
            eq1_time += report.total_work / comparison.eq1
            eq2_time += report.total_work / comparison.eq2
            lcc_bound += comparison.eq2 < 4
        assert work > 0
        assert eq1 == pytest.approx(work / eq1_time, abs=5e-4)
        assert eq2 == pytest.approx(work / eq2_time, abs=5e-4)
        assert (binds, blocks) == (lcc_bound, len(inputs))

    def test_empty_replay_exits_zero_with_bounds(self, capsys):
        # A scale so small no block carries an executable transaction:
        # the bounds fall back to Eq. 1 R 1 and Eq. 2 n, no traceback.
        code = main([
            "replay", "--chain", "ethereum", "--blocks", "1",
            "--seed", "0", "--scale", "0.001",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert _bounds(out) == (1.0, 4.0, 0, 1)
        assert all(row[5] == "0" for row in _table(out).values())
