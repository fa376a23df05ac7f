"""Tests for the miniature locking-script language."""

from __future__ import annotations

import pytest

from repro.utxo.script import (
    ScriptError,
    can_spend,
    evaluate,
    p2pkh_script,
)


class TestP2PKH:
    def test_owner_can_spend(self):
        assert can_spend(p2pkh_script("alice"), "alice")

    def test_other_cannot_spend(self):
        assert not can_spend(p2pkh_script("alice"), "mallory")


class TestMultisig:
    def test_member_can_spend(self):
        assert can_spend("THRESHOLD:1:a,b,c VERIFY PUSH:1", "b")

    def test_non_member_cannot(self):
        assert not can_spend("THRESHOLD:1:a,b VERIFY PUSH:1", "z")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ScriptError):
            evaluate("THRESHOLD:3:a,b VERIFY PUSH:1", "a")


class TestEvaluate:
    def test_empty_script_is_anyone_can_spend(self):
        assert evaluate("", "anyone").success

    def test_push_equal_verify(self):
        assert evaluate("PUSH:x PUSH:x EQUAL VERIFY PUSH:1", "s").success

    def test_verify_failure_stops_execution(self):
        result = evaluate("PUSH:0 VERIFY PUSH:1", "s")
        assert not result.success
        assert result.steps == 2

    def test_dup_and_equal(self):
        assert evaluate("PUSH:q DUP EQUAL", "s").success

    def test_top_of_stack_must_be_one(self):
        assert not evaluate("PUSH:0", "s").success

    def test_unknown_token_raises(self):
        with pytest.raises(ScriptError):
            evaluate("NOTANOP", "s")

    def test_dup_on_empty_stack_raises(self):
        with pytest.raises(ScriptError):
            evaluate("DUP", "s")

    def test_equal_needs_two_operands(self):
        with pytest.raises(ScriptError):
            evaluate("PUSH:a EQUAL", "s")

    def test_malformed_threshold_raises(self):
        with pytest.raises(ScriptError):
            evaluate("THRESHOLD:x:a,b", "s")

    def test_threshold_out_of_range_raises(self):
        with pytest.raises(ScriptError):
            evaluate("THRESHOLD:0:a", "s")

    def test_step_count(self):
        assert evaluate("PUSH:1", "s").steps == 1
