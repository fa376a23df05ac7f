"""Control-flow graph construction from ``JUMP``/``JUMPI`` targets.

The mini-VM only has static jump targets (the assembler rejects the
dynamic ``$`` form for jumps), so the CFG of a program is exact: basic
blocks are the maximal straight-line runs between *leaders* (the entry,
every jump target, and every instruction following a jump or halt), and
edges follow the jump/fall-through structure.

Out-of-range targets are reported as :data:`~repro.staticcheck.
diagnostics.JUMP_RANGE` errors — they can only occur in hand-built
programs now that :func:`repro.vm.contract.assemble` validates targets,
but the analyzer must stay total over arbitrary instruction tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.staticcheck.diagnostics import (
    JUMP_RANGE,
    SEVERITY_ERROR,
    Diagnostic,
)
from repro.vm.contract import Program
from repro.vm.opcodes import Op

_HALTS = (Op.STOP, Op.REVERT)


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line instruction run ``[start, end)``."""

    start: int
    end: int
    successors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("basic block bounds must satisfy 0 <= start < end")


@dataclass(frozen=True)
class CFG:
    """The program's basic blocks, ordered by start pc."""

    program: Program
    blocks: tuple[BasicBlock, ...]
    diagnostics: tuple[Diagnostic, ...]

    def block_starting_at(self, pc: int) -> BasicBlock:
        for block in self.blocks:
            if block.start == pc:
                return block
        raise KeyError(f"no basic block starts at pc {pc}")


def _valid_target(operand: object, length: int) -> int | None:
    """The jump target as an int if it lies inside the program."""
    if isinstance(operand, int) and 0 <= operand < length:
        return operand
    return None


def build_cfg(program: Program) -> CFG:
    """Build the exact CFG of *program*.

    Jumps with out-of-range targets terminate their block (the VM would
    raise :class:`~repro.chain.errors.VMError` there) and contribute a
    ``jump-range`` error diagnostic.
    """
    length = len(program)
    if length == 0:
        return CFG(program=program, blocks=(), diagnostics=())

    diagnostics: list[Diagnostic] = []
    leaders: set[int] = {0}
    for pc, instruction in enumerate(program):
        if instruction.op in (Op.JUMP, Op.JUMPI):
            target = _valid_target(instruction.operand, length)
            if target is None:
                diagnostics.append(
                    Diagnostic(
                        pc=pc,
                        severity=SEVERITY_ERROR,
                        code=JUMP_RANGE,
                        message=(
                            f"jump target {instruction.operand!r} out of "
                            f"range (program has {length} instructions)"
                        ),
                    )
                )
            else:
                leaders.add(target)
            if pc + 1 < length:
                leaders.add(pc + 1)
        elif instruction.op in _HALTS and pc + 1 < length:
            leaders.add(pc + 1)

    ordered = sorted(leaders)
    blocks: list[BasicBlock] = []
    for index, start in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) else length
        last = program[end - 1]
        successors: tuple[int, ...]
        if last.op is Op.JUMP:
            target = _valid_target(last.operand, length)
            successors = (target,) if target is not None else ()
        elif last.op is Op.JUMPI:
            target = _valid_target(last.operand, length)
            branch = (target,) if target is not None else ()
            fall = (end,) if end < length else ()
            successors = branch + fall
        elif last.op in _HALTS:
            successors = ()
        else:
            # Block ends because the next pc is a leader, or the
            # program runs off the end (an implicit successful halt).
            successors = (end,) if end < length else ()
        blocks.append(
            BasicBlock(start=start, end=end, successors=successors)
        )
    return CFG(
        program=program,
        blocks=tuple(blocks),
        diagnostics=tuple(diagnostics),
    )
