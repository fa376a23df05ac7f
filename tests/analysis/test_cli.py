"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import (
    _core_counts,
    build_parser,
    main,
    non_negative_float,
    non_negative_int,
    positive_float,
    positive_int,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_chain_exits_with_clear_message(self, capsys):
        assert main(["analyze", "--chain", "solana"]) == 2
        err = capsys.readouterr().err
        assert "unknown chain 'solana'" in err
        assert "ethereum" in err  # the known names are listed

    def test_profile_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["profile", "--chain", "ethereum"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "profile" in err


# One value each shared numeric type refuses.
_REFUSED = {
    positive_int: "0",
    non_negative_int: "-1",
    positive_float: "0",
    non_negative_float: "-1",
    _core_counts: "4,0",
}
# What a subcommand needs besides the flag under test.
_REQUIRED = {
    "compare": ["--left", "bitcoin", "--right", "dogecoin"],
    "export": ["--chain", "bitcoin", "--out", "unused"],
    "node": ["run", "--chain", "ethereum"],
    "regress": [],
    "report": ["--out", "unused"],
}


def _subcommands():
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices.items()


def _numeric_flags():
    """(subcommand, flag, refused value) for every flag with a shared type."""
    return [
        (command, action.option_strings[0], _REFUSED[action.type])
        for command, sub in _subcommands()
        for action in sub._actions
        if action.type in _REFUSED
    ]


class TestNumericFlags:
    """Every numeric flag is checked once, when the arguments are
    parsed: a bad value exits 2 naming the flag, before a command runs."""

    @pytest.mark.parametrize("command, flag, value", _numeric_flags())
    def test_bad_value_exits_2_naming_the_flag(
        self, capsys, command, flag, value
    ):
        required = _REQUIRED.get(command, ["--chain", "bitcoin"])
        assert main([command, *required, flag, value]) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_only_seeds_take_any_number(self):
        bare = [
            (command, action.option_strings[0])
            for command, sub in _subcommands()
            for action in sub._actions
            if action.type in (int, float) and action.dest != "seed"
        ]
        assert bare == []


class TestBrokenPipe:
    def test_a_closed_stdout_exits_1_without_a_traceback(self):
        """``repro ... | head`` closes stdout early; the command ends
        quietly instead of printing a ``BrokenPipeError`` traceback."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "table1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()   # before the command has written a byte
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""


class TestParallelFlags:
    """``--backend`` / ``--jobs`` / ``--chunk-size`` select the replay
    fan-out, on ``replay`` only; a bad value is a usage error (exit 2)."""

    def test_jobs_zero_exits_2_with_clear_message(self, capsys):
        code = main([
            "replay", "--chain", "dogecoin", "--blocks", "4",
            "--jobs", "0",
        ])
        assert code == 2
        assert "argument --jobs: must be an integer >= 1" in (
            capsys.readouterr().err
        )

    def test_negative_jobs_rejected_on_compare(self, capsys):
        code = main([
            "compare", "--left", "bitcoin", "--right", "bitcoin_cash",
            "--blocks", "4", "--jobs", "-1",
        ])
        assert code == 2
        assert "unrecognized arguments: --jobs -1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", [
        ["compare", "--left", "bitcoin", "--right", "bitcoin_cash",
         "--blocks", "4"],
        ["speedup", "--chain", "bitcoin", "--blocks", "4"],
    ])
    def test_fan_out_flags_without_measured_exit_2(self, capsys, command):
        """``speedup`` and ``compare`` do not replay: the fan-out flags
        are refused, not silently ignored."""
        code = main([*command, "--backend", "process", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unrecognized arguments: --backend process" in captured.err
        assert captured.out == ""

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        assert main(
            ["replay", "--chain", "dogecoin", "--backend", "warp"]
        ) == 2
        assert "argument --backend: invalid choice" in (
            capsys.readouterr().err
        )

    def test_chunk_size_zero_exits_2(self, capsys):
        code = main([
            "replay", "--chain", "dogecoin", "--blocks", "4",
            "--backend", "process", "--chunk-size", "0",
        ])
        assert code == 2
        assert "argument --chunk-size: must be an integer >= 1" in (
            capsys.readouterr().err
        )


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Bitcoin" in out and "Zilliqa" in out

    def test_examples(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "40.0%" in out
        assert "87.5%" in out
        assert "18" in out

    def test_analyze_small_chain(self, capsys):
        code = main(
            ["analyze", "--chain", "dogecoin", "--blocks", "10",
             "--buckets", "4", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dogecoin: single-transaction conflict rate" in out
        assert "tx_weighted" in out

    def test_speedup_command(self, capsys):
        code = main(
            ["speedup", "--chain", "zilliqa", "--blocks", "10",
             "--cores", "8", "--buckets", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Eq. 1" in out and "Eq. 2" in out

    def test_speedup_bad_cores(self, capsys):
        assert main(
            ["speedup", "--chain", "zilliqa", "--cores", "eight"]
        ) == 2
        assert main(
            ["speedup", "--chain", "zilliqa", "--cores", "0"]
        ) == 2

    def test_compare(self, capsys):
        code = main(
            ["compare", "--left", "dogecoin", "--right", "litecoin",
             "--blocks", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dogecoin" in out and "litecoin" in out

    def test_compare_unknown_chain(self):
        assert main(
            ["compare", "--left", "dogecoin", "--right", "nope"]
        ) == 2

    def test_export(self, tmp_path, capsys):
        code = main(
            ["export", "--chain", "dogecoin", "--blocks", "6",
             "--out", str(tmp_path)]
        )
        assert code == 0
        written = list(tmp_path.glob("*.csv"))
        assert (tmp_path / "blocks.csv").exists()
        assert len(written) >= 2

    def test_report(self, tmp_path, capsys):
        code = main(
            ["report", "--out", str(tmp_path), "--blocks", "12",
             "--scale", "0.3", "--buckets", "4"]
        )
        assert code == 0
        names = {path.name for path in tmp_path.glob("*.txt")}
        assert {
            "table1.txt", "fig4_ethereum.txt", "fig5_bitcoin.txt",
            "fig7_all_chains.txt", "fig8_eth_vs_etc.txt",
            "fig9_btc_vs_bch.txt", "fig10_speedups.txt",
        } <= names
