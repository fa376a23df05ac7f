"""CFG construction: leaders, successors, and jump-range findings."""

from __future__ import annotations

import pytest

from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.diagnostics import JUMP_RANGE
from repro.vm.contract import assemble
from repro.vm.opcodes import Instruction, Op


def test_straight_line_program_is_one_block():
    program = assemble("push 1\nsstore key\nstop")
    cfg = build_cfg(program)
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].start == 0
    assert cfg.blocks[0].end == 3
    assert cfg.blocks[0].successors == ()
    assert cfg.diagnostics == ()


def test_empty_program_has_no_blocks():
    cfg = build_cfg(())
    assert cfg.blocks == ()


def test_jumpi_splits_blocks_and_adds_both_edges():
    # 0: push 1; 1: jumpi 4; 2: push 2; 3: stop; 4: stop
    program = assemble("push 1\njumpi 4\npush 2\nstop\nstop")
    cfg = build_cfg(program)
    starts = [block.start for block in cfg.blocks]
    assert starts == [0, 2, 4]
    entry = cfg.block_starting_at(0)
    assert set(entry.successors) == {4, 2}
    assert cfg.block_starting_at(2).successors == ()


def test_unconditional_jump_has_single_edge():
    program = assemble("jump 2\npush 1\nstop")
    cfg = build_cfg(program)
    assert cfg.block_starting_at(0).successors == (2,)


def test_out_of_range_jump_yields_error_and_no_edge():
    program = (Instruction(op=Op.JUMP, operand=99),)
    cfg = build_cfg(program)
    assert cfg.blocks[0].successors == ()
    assert len(cfg.diagnostics) == 1
    diagnostic = cfg.diagnostics[0]
    assert diagnostic.code == JUMP_RANGE
    assert diagnostic.is_error
    assert "out of range" in diagnostic.message


def test_fall_through_block_links_to_next_leader():
    # jump target at 3 makes pc 3 a leader; the straight-line block
    # [1, 3) falls through into it.
    program = assemble("jumpi 3\npush 1\npop\nstop")
    # pc0 jumpi needs a condition: hand-build instead.
    program = (
        Instruction(op=Op.PUSH, operand=1),
        Instruction(op=Op.JUMPI, operand=4),
        Instruction(op=Op.PUSH, operand=2),
        Instruction(op=Op.POP, operand=None),
        Instruction(op=Op.STOP, operand=None),
    )
    cfg = build_cfg(program)
    middle = cfg.block_starting_at(2)
    assert middle.successors == (4,)


def test_block_starting_at_raises_for_non_leader():
    cfg = build_cfg(assemble("push 1\npop\nstop"))
    with pytest.raises(KeyError):
        cfg.block_starting_at(1)
