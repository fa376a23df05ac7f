"""Abstract interpretation: one unit test per widening/transfer rule."""

from __future__ import annotations

from repro.staticcheck.absint import analyze_program
from repro.staticcheck.diagnostics import (
    JUMP_RANGE,
    STACK_UNDERFLOW,
    TOP_WIDENED,
    UNREACHABLE,
)
from repro.staticcheck.lattice import TOP, Const, MaySet
from repro.staticcheck.valueset import MAX_SET_SIZE, join, join_stacks
from repro.vm.contract import (
    CONST_INDEXED_ASM,
    DYNAMIC_COUNTER_ASM,
    TOGGLE_BRANCH_ASM,
    TOKEN_TRANSFER_ASM,
    assemble,
)
from repro.vm.opcodes import Instruction, Op


def codes(summary):
    return [d.code for d in summary.diagnostics]


# -- lattice joins ----------------------------------------------------------


def test_joining_different_constants_widens_to_top():
    # Distinct constants join exactly while the set is small; symbols
    # past MAX_SET_SIZE have no interval to widen to, so they go to ⊤.
    assert join(Const(1), Const(1)) == Const(1)
    joined = Const("k0")
    for index in range(1, MAX_SET_SIZE + 1):
        joined = join(joined, Const(f"k{index}"))
    assert joined is TOP
    assert join(Const("a"), TOP) is TOP


def test_joining_stacks_of_different_heights_is_unknown():
    assert join_stacks((Const(1),), (Const(1),)) == (Const(1),)
    assert join_stacks((Const(1),), (Const(1), Const(2))) is None
    assert join_stacks(None, (Const(1),)) is None


def test_mayset_widening_absorbs_items():
    widened = MaySet().add("a").widen()
    assert widened.top
    assert widened.add("b").top
    assert widened.covers("anything")


# -- static keys stay precise ----------------------------------------------


def test_static_keys_collected_exactly():
    summary = analyze_program(assemble(TOKEN_TRANSFER_ASM))
    assert summary.storage_reads.items == {
        "balance_sender", "balance_receiver",
    }
    assert summary.storage_writes.items == {
        "balance_sender", "balance_receiver",
    }
    assert not summary.storage_writes.top
    assert summary.diagnostics == ()


def test_constant_propagation_resolves_dynamic_keys():
    summary = analyze_program(assemble(CONST_INDEXED_ASM))
    assert summary.storage_reads.items == {"slot7"}
    assert summary.storage_writes.items == {"slot7"}
    assert not summary.top_widened
    assert summary.diagnostics == ()


# -- dynamic-operand widening ----------------------------------------------


def test_non_constant_dynamic_key_widens_to_top():
    summary = analyze_program(assemble(DYNAMIC_COUNTER_ASM))
    assert summary.storage_writes.top
    assert TOP_WIDENED in codes(summary)


def test_non_constant_call_target_widens():
    summary = analyze_program(
        assemble("sload payee\ntransfer $ 3\nstop")
    )
    assert summary.has_unknown_call_target
    assert summary.top_widened
    assert TOP_WIDENED in codes(summary)


def test_constant_call_target_resolves():
    # The VM resolves dynamic targets via str(); PUSH operands are
    # ints, so a constant 777 resolves to the address string "777".
    summary = analyze_program(
        assemble("push 777\ncall $ 0\nstop")
    )
    (site,) = summary.calls
    assert site.targets == ("777",)
    assert not summary.top_widened


def test_arithmetic_on_non_constants_yields_top():
    # sload pushes ⊤; adding a constant keeps ⊤, so the sstore key is ⊤.
    # (Stack: [value=5, 1, ⊤] → add → [5, ⊤] → sstore pops key ⊤.)
    summary = analyze_program(
        assemble("push 5\npush 1\nsload k\nadd\nsstore $\nstop")
    )
    assert summary.storage_writes.top


def test_arithmetic_constant_folding_matches_vm():
    # The VM computes lhs OP rhs with rhs popped first:
    # (10 - 4) // 3 = 2 → precise key "2" (value 9 beneath).
    summary = analyze_program(
        assemble("push 9\npush 10\npush 4\nsub\npush 3\ndiv\nsstore $\nstop")
    )
    assert summary.storage_writes.items == {"2"}
    assert not summary.storage_writes.top


# -- branch handling --------------------------------------------------------


def test_non_constant_jumpi_takes_both_arms():
    summary = analyze_program(assemble(TOGGLE_BRANCH_ASM))
    assert summary.storage_writes.items == {"flag", "key_a", "key_b"}
    assert UNREACHABLE not in codes(summary)


def test_constant_false_guard_marks_branch_unreachable():
    # push 0 → jumpi never taken → target block is dead.
    program = assemble("push 0\njumpi 4\npush 1\nstop\npush 2\nstop")
    summary = analyze_program(program)
    unreachable = [
        d for d in summary.diagnostics if d.code == UNREACHABLE
    ]
    assert len(unreachable) == 1
    assert unreachable[0].pc == 4
    # The dead branch's effects are excluded from the summary.
    assert summary.storage_writes.items == set()


def test_constant_true_guard_marks_fallthrough_unreachable():
    program = assemble("push 1\njumpi 4\nsstore dead\nstop\nstop")
    summary = analyze_program(program)
    assert UNREACHABLE in codes(summary)
    assert summary.storage_writes.items == set()


# -- diagnostics ------------------------------------------------------------


def test_guaranteed_underflow_is_an_error():
    summary = analyze_program((Instruction(op=Op.POP, operand=None),))
    (diagnostic,) = summary.errors
    assert diagnostic.code == STACK_UNDERFLOW
    assert "stack underflow" in diagnostic.message


def test_underflow_not_reported_when_height_unknown():
    # Two paths reach pc 4 with different stack heights, so the POP
    # there cannot be *proven* to underflow — no diagnostic.
    program = (
        Instruction(op=Op.PUSH, operand=1),      # 0
        Instruction(op=Op.JUMPI, operand=4),     # 1 (condition ⊤? no: 1)
        Instruction(op=Op.PUSH, operand=2),      # 2
        Instruction(op=Op.PUSH, operand=3),      # 3
        Instruction(op=Op.POP, operand=None),    # 4
        Instruction(op=Op.STOP, operand=None),   # 5
    )
    # Make the condition non-constant so both paths are live.
    program = (
        Instruction(op=Op.SLOAD, operand="c"),   # 0: pushes ⊤
        Instruction(op=Op.JUMPI, operand=4),     # 1
        Instruction(op=Op.PUSH, operand=2),      # 2
        Instruction(op=Op.PUSH, operand=3),      # 3
        Instruction(op=Op.POP, operand=None),    # 4: height 0 or 2 here
        Instruction(op=Op.STOP, operand=None),   # 5
    )
    summary = analyze_program(program)
    assert not any(d.code == STACK_UNDERFLOW for d in summary.diagnostics)


def test_reachable_out_of_range_jump_is_error():
    program = (Instruction(op=Op.JUMP, operand=42),)
    summary = analyze_program(program)
    assert [d.code for d in summary.errors] == [JUMP_RANGE]


def test_dead_out_of_range_jump_subsumed_by_unreachable():
    program = (
        Instruction(op=Op.STOP, operand=None),
        Instruction(op=Op.JUMP, operand=42),
    )
    summary = analyze_program(program)
    assert summary.errors == ()
    assert UNREACHABLE in codes(summary)


def test_dead_code_behind_unconditional_jump():
    program = (
        Instruction(op=Op.JUMP, operand=2),
        Instruction(op=Op.SSTORE, operand="dead"),
        Instruction(op=Op.STOP, operand=None),
    )
    summary = analyze_program(program)
    assert UNREACHABLE in codes(summary)
    assert summary.storage_writes.items == set()


def test_analyzer_is_total_over_malformed_operands():
    # Hand-built garbage that the assembler would reject must still
    # produce a summary, not an exception.
    program = (
        Instruction(op=Op.PUSH, operand=object()),
        Instruction(op=Op.CALL, operand="not-a-tuple"),
        Instruction(op=Op.STOP, operand=None),
    )
    summary = analyze_program(program)
    (site,) = summary.calls
    assert site.targets is None  # widened, not crashed


def test_loop_fixpoint_terminates_and_covers_effects():
    # Decrementing loop with a storage write inside the body.
    program = assemble(
        "push 5\n"      # 0
        "dup\n"         # 1 <- loop head
        "iszero\n"      # 2
        "jumpi 9\n"     # 3
        "push 1\n"      # 4
        "sstore hits\n" # 5
        "push 1\n"      # 6
        "sub\n"         # 7
        "jump 1\n"      # 8
        "stop"          # 9
    )
    summary = analyze_program(program)
    assert summary.storage_writes.items == {"hits"}
    assert summary.errors == ()


# -- value-set resolution of branch-joined operands -------------------------


def test_branch_joined_keys_resolve_under_valueset():
    # Each arm pushes a different key; the dynamic sstore consumes the
    # join, which stays the exact two-element set.
    program = assemble(
        "push 1\n"      # the value to store
        "sload flag\n"
        "jumpi 5\n"
        "push key_a\n"
        "jump 6\n"
        "push key_b\n"
        "sstore $\n"
        "stop"
    )
    summary = analyze_program(program)
    assert summary.storage_writes.items == {"key_a", "key_b"}
    assert not summary.storage_writes.top
    assert summary.resolved_sites == frozenset({6})
    assert summary.widened_sites == frozenset()
    assert TOP_WIDENED not in codes(summary)


def test_multi_target_call_site_resolves_under_valueset():
    from repro.vm.contract import routed_call_asm

    summary = analyze_program(assemble(routed_call_asm("sink_a", "sink_b")))
    (site,) = summary.calls
    assert site.targets == ("sink_a", "sink_b")
    assert summary.resolved_sites == frozenset({6})
    assert summary.widened_sites == frozenset()
    assert not summary.has_unknown_call_target
    assert not summary.top_widened


def test_single_target_site_keeps_single_target_view():
    # Both arms push the same target: the join is that one constant.
    from repro.vm.contract import routed_call_asm

    summary = analyze_program(assemble(routed_call_asm("sink_a", "sink_a")))
    (site,) = summary.calls
    assert site.targets == ("sink_a",)
    assert not summary.top_widened
