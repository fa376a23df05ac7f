"""Miniature contract VM with gas metering and geth-style tracing."""

from repro.vm.contract import (
    AssemblyError,
    CodeRegistry,
    Program,
    TOKEN_TRANSFER_ASM,
    assemble,
    busy_loop_asm,
    proxy_asm,
)
from repro.vm.opcodes import Instruction, Op, gas_cost
from repro.vm.tracer import TraceRow, trace_rows_for_block
from repro.vm.vm import MAX_CALL_DEPTH, VM, ExecutionContext

__all__ = [
    "AssemblyError",
    "CodeRegistry",
    "Program",
    "TOKEN_TRANSFER_ASM",
    "assemble",
    "busy_loop_asm",
    "proxy_asm",
    "Instruction",
    "Op",
    "gas_cost",
    "TraceRow",
    "trace_rows_for_block",
    "MAX_CALL_DEPTH",
    "VM",
    "ExecutionContext",
]
