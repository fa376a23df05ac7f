"""The soundness property: static access sets cover runtime traces.

For any syntactically valid program, the interprocedural closure of the
receiver contract must cover *every* location the VM actually touches —
storage reads (including BALANCE's ``__balance__`` cells), storage
writes, and internal-transaction endpoints.  This holds even for
transactions that fail mid-execution: a partial trace is a prefix of
some concrete path, and the abstract interpretation over-approximates
all paths.

This is the property that makes the predicted TDG's recall exactly 1.0
in ``benchmarks/bench_static_conflict.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.account.state import WorldState
from repro.account.transaction import make_account_transaction
from repro.chain.errors import ChainError
from repro.staticcheck.interproc import ContractAnalyzer
from repro.vm.contract import CodeRegistry
from repro.vm.opcodes import STACK_OPERAND, Instruction, Op
from repro.vm.vm import VM

ETHER = 10**18
MAIN = "0xmain"
CALLEE = "0xcallee"
PLAIN = "0xplain"

# A benign contract so CALLs from the fuzzed program exercise the
# interprocedural closure, not just intraprocedural effects.
CALLEE_ASM = "push 1\nsstore hits\ntransfer 0xsink 0\nstop"

_operandless = [
    Op.POP, Op.DUP, Op.SWAP, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.LT,
    Op.EQ, Op.ISZERO, Op.LOG, Op.STOP, Op.REVERT,
]


def _instruction_strategy(dynamic_operands):
    """Instructions whose storage keys and call targets are constant
    symbols, plus — when ``dynamic_operands`` — the `$` form, which takes
    the operand off the stack."""
    dynamic = [STACK_OPERAND] if dynamic_operands else []
    operandless = st.sampled_from(_operandless).map(
        lambda op: Instruction(op=op)
    )
    push = st.integers(min_value=-8, max_value=8).map(
        lambda n: Instruction(op=Op.PUSH, operand=n)
    )
    jump = st.tuples(
        st.sampled_from([Op.JUMP, Op.JUMPI]),
        st.integers(min_value=0, max_value=24),
    ).map(lambda pair: Instruction(op=pair[0], operand=pair[1]))
    # Storage keys: static symbols plus, optionally, the dynamic `$`
    # form, which the analyzer resolves through the value-set domain or
    # widens to the executing contract's storage ⊤.
    storage = st.tuples(
        st.sampled_from([Op.SLOAD, Op.SSTORE, Op.BALANCE]),
        st.sampled_from(["k0", "k1", *dynamic]),
    ).map(lambda pair: Instruction(op=pair[0], operand=pair[1]))
    call = st.tuples(
        st.sampled_from([Op.CALL, Op.TRANSFER]),
        st.sampled_from([CALLEE, PLAIN, *dynamic]),
        st.integers(min_value=0, max_value=3),
    ).map(
        lambda triple: Instruction(
            op=triple[0], operand=(triple[1], triple[2])
        )
    )
    return st.one_of(operandless, push, jump, storage, call)


def _program_strategy(dynamic_operands):
    return st.lists(
        _instruction_strategy(dynamic_operands), min_size=1, max_size=25
    )


programs = _program_strategy(dynamic_operands=True)

# "const": every key and target is a constant symbol.  "valueset": keys
# and targets may also come off the stack, so coverage rests on the
# value-set domain's resolution and widening.
PROGRAMS_BY_OPERANDS = {
    "const": _program_strategy(dynamic_operands=False),
    "valueset": programs,
}


@pytest.mark.parametrize("operands", sorted(PROGRAMS_BY_OPERANDS))
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_static_set_covers_dynamic_trace(operands, data):
    program = data.draw(PROGRAMS_BY_OPERANDS[operands], label="program")
    registry = CodeRegistry()
    registry.register("fuzz", tuple(program))
    registry.register_assembly("callee", CALLEE_ASM)

    state = WorldState()
    state.account(MAIN).code_id = "fuzz"
    state.account(CALLEE).code_id = "callee"
    state.credit("0xuser", 10 * ETHER)
    state.credit(MAIN, 1000)
    state.credit(CALLEE, 1000)

    analyzer = ContractAnalyzer(registry, {MAIN: "fuzz", CALLEE: "callee"})
    closed = analyzer.closed_access(MAIN)

    vm = VM(registry)
    tx = make_account_transaction(
        sender="0xuser",
        receiver=MAIN,
        value=0,
        nonce=0,
        gas_limit=200_000,
    )
    try:
        result = state.apply_transaction(tx, executor=vm.execute_transaction)
    except ChainError:
        return  # nothing executed, nothing to cover
    receipt = result.receipt

    for address, key in receipt.storage_reads:
        assert closed.covers_read(address, key), (
            f"uncovered read ({address}, {key})"
        )
    for address, key in receipt.storage_writes:
        assert closed.covers_write(address, key), (
            f"uncovered write ({address}, {key})"
        )
    for itx in receipt.internal_transactions:
        assert closed.covers_endpoint(itx.sender), (
            f"uncovered internal sender {itx.sender}"
        )
        assert closed.covers_endpoint(itx.receiver), (
            f"uncovered internal receiver {itx.receiver}"
        )


@settings(max_examples=200, deadline=None)
@given(program=programs)
def test_analyzer_is_total(program):
    """The analyzer never raises on any syntactic program."""
    registry = CodeRegistry()
    registry.register("fuzz", tuple(program))
    analyzer = ContractAnalyzer(registry, {MAIN: "fuzz"})
    closed = analyzer.closed_access(MAIN)
    # The closure is queryable regardless of how degenerate the program is.
    closed.covers_read(MAIN, "k0")
    closed.covers_endpoint(MAIN)

