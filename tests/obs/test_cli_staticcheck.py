"""CLI contract for ``repro.cli staticcheck``: exit-code matrix, the
lint table, and the precision pin on the dynamic archetypes."""

from __future__ import annotations

import re

from repro.cli import main


def _run(capsys, *argv):
    code = main(["staticcheck", *argv])
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodes:
    def test_clean_registry_exits_0(self, capsys):
        code, out = _run(capsys, "--chain", "ethereum")
        assert code == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_defects_exit_1(self, capsys):
        code, out = _run(capsys, "--chain", "ethereum", "--with-defects")
        assert code == 1
        assert "stack underflow" in out

    def test_warnings_exit_1_only_under_strict(self, capsys):
        code, _ = _run(capsys, "--chain", "ethereum", "--dynamic", "2")
        assert code == 0
        code, out = _run(
            capsys, "--chain", "ethereum", "--dynamic", "2", "--strict"
        )
        assert code == 1
        assert "widened to ⊤" in out

    def test_utxo_chain_is_usage_error(self, capsys):
        assert main(["staticcheck", "--chain", "bitcoin"]) == 2
        assert "account chain" in capsys.readouterr().err


class TestPrecision:
    def test_dynamic_8_widens_three_sites_and_resolves_routed(self, capsys):
        """``--dynamic 8`` deploys every dynamic archetype.  Only the
        counter's key and the two storage-read payout targets widen to
        ⊤; both routed bodies resolve their branch-joined target."""
        code, out = _run(capsys, "--chain", "ethereum", "--dynamic", "8")
        assert code == 0
        assert out.splitlines()[-1].startswith(
            "647 contract(s) checked: 0 error(s), 3 warning(s)"
        )
        assert out.count("widened to ⊤") == 3
        routed = [
            line for line in out.splitlines() if line.startswith("routed")
        ]
        assert [line.split(" ", 1)[0] for line in routed] == [
            "routedcall395", "routedpay394",
        ]
        for line in routed:
            assert re.search(
                r": clean \[\d+\.\d+ ms, 1 resolved / 0 widened site\(s\)\]$",
                line,
            )


class TestLintTable:
    def test_status_lines_carry_analysis_cost_note(self, capsys):
        code, out = _run(capsys, "--chain", "ethereum")
        assert code == 0
        status = re.compile(
            r"instructions\): clean \[\d+\.\d+ ms, "
            r"\d+ resolved / \d+ widened site\(s\)\]"
        )
        assert status.search(out)
        assert re.search(r"contract\(s\) checked: .* in \d+\.\d+ ms", out)

