"""Contract code registry and a small text assembler.

Contracts are stored as programs (tuples of instructions) in a global
per-chain :class:`CodeRegistry` keyed by ``code_id``.  Account state only
carries the ``code_id`` string; the registry resolves it at execution
time.  A tiny assembler converts a readable text format into programs so
workload profiles and tests can define contract behaviours declaratively.

Assembly format — one instruction per line, ``;`` starts a comment::

    push 5
    sstore counter      ; storage[counter] = 5
    call 0xabc... 100   ; internal transaction with value 100
    sstore $            ; dynamic form: key popped from the stack
    stop

``JUMP``/``JUMPI`` targets are validated against the program length at
assembly time, so an out-of-range target is an :class:`AssemblyError`
here rather than a mid-execution :class:`~repro.chain.errors.VMError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.vm.opcodes import STACK_OPERAND, Instruction, Op

Program = tuple[Instruction, ...]

# What a non-integer PUSH operand is allowed to look like: a symbol (a
# storage key like ``balance_sender``) or an address-like hex token.
# Anything else — ``5x5``, ``1.5``, stray punctuation — used to fall
# back to a silent string operand; now it is an assembly error.
_SYMBOL_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_.\-]*|0x[0-9a-fA-F]+)\Z")


class AssemblyError(Exception):
    """Raised on malformed assembly text."""


def assemble(text: str) -> Program:
    """Assemble *text* into a program.

    Raises:
        AssemblyError: on unknown mnemonics, malformed operands, or
            ``JUMP``/``JUMPI`` targets outside the program.
    """
    instructions: list[Instruction] = []
    lines: list[int] = []  # source line of each instruction, for errors
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        mnemonic, args = parts[0].lower(), parts[1:]
        try:
            op = Op(mnemonic)
        except ValueError as exc:
            raise AssemblyError(
                f"line {line_number}: unknown opcode {mnemonic!r}"
            ) from exc
        operand: object = None
        if op in (Op.CALL, Op.TRANSFER):
            if len(args) != 2:
                raise AssemblyError(
                    f"line {line_number}: {mnemonic} needs address and value"
                )
            target: object = (
                STACK_OPERAND if args[0] == STACK_OPERAND else args[0]
            )
            operand = (target, _parse_int(args[1], line_number))
        elif op in (Op.JUMP, Op.JUMPI):
            if len(args) != 1:
                raise AssemblyError(
                    f"line {line_number}: {mnemonic} needs a target pc"
                )
            operand = _parse_int(args[0], line_number)
        elif op is Op.PUSH:
            if len(args) != 1:
                raise AssemblyError(f"line {line_number}: push needs a value")
            try:
                operand = _parse_int(args[0], line_number)
            except AssemblyError:
                if not _SYMBOL_RE.match(args[0]):
                    raise AssemblyError(
                        f"line {line_number}: push operand {args[0]!r} is "
                        "neither an integer nor a symbol"
                    ) from None
                operand = args[0]
        elif op in (Op.SLOAD, Op.SSTORE, Op.BALANCE):
            if len(args) != 1:
                raise AssemblyError(
                    f"line {line_number}: {mnemonic} needs a key/address"
                )
            operand = args[0]
        else:
            if args:
                raise AssemblyError(
                    f"line {line_number}: {mnemonic} takes no operands"
                )
        instructions.append(Instruction(op=op, operand=operand))
        lines.append(line_number)

    for pc, instruction in enumerate(instructions):
        if instruction.op in (Op.JUMP, Op.JUMPI):
            target = instruction.operand
            if not isinstance(target, int) or not (
                0 <= target < len(instructions)
            ):
                raise AssemblyError(
                    f"line {lines[pc]}: jump target {target!r} out of range "
                    f"(program has {len(instructions)} instructions)"
                )
    return tuple(instructions)


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblyError(
            f"line {line_number}: expected integer, got {token!r}"
        ) from exc


@dataclass
class CodeRegistry:
    """Maps code_id strings to programs for one simulated chain."""

    _programs: dict[str, Program] = field(default_factory=dict)

    def register(self, code_id: str, program: Program) -> str:
        """Store *program* under *code_id* (idempotent for equal bodies)."""
        existing = self._programs.get(code_id)
        if existing is not None and existing != program:
            raise ValueError(f"code_id {code_id!r} already bound")
        self._programs[code_id] = program
        return code_id

    def register_assembly(self, code_id: str, text: str) -> str:
        return self.register(code_id, assemble(text))

    def get(self, code_id: str) -> Program | None:
        return self._programs.get(code_id)

    def code_ids(self) -> tuple[str, ...]:
        """All registered code ids, sorted for deterministic iteration."""
        return tuple(sorted(self._programs))

    def __contains__(self, code_id: str) -> bool:
        return code_id in self._programs

    def __len__(self) -> int:
        return len(self._programs)


# -- stock contract bodies used by workload profiles -----------------------

# A plain token-transfer contract: reads and writes two balances.
TOKEN_TRANSFER_ASM = """
    sload balance_sender
    push 1
    sub
    sstore balance_sender
    sload balance_receiver
    push 1
    add
    sstore balance_receiver
    sload balance_receiver
    log
    stop
"""

# A proxy that forwards to another contract — yields depth-2 internal
# transactions like the unverified-contract chain of paper Fig. 1b.
def proxy_asm(target_address: str) -> str:
    """Assembly for a proxy forwarding one call to *target_address*."""
    return f"""
        call {target_address} 0
        stop
    """

# -- dynamic-operand bodies (profiles with ``num_dynamic_contracts``) ------

# Branches on a storage flag it toggles, writing a different key on each
# path.  Runtime calls alternate between the arms; a sound static
# analysis must take both, so its predicted set covers key_a AND key_b.
TOGGLE_BRANCH_ASM = """
    sload flag
    jumpi 7
    push 1
    sstore flag
    push 1
    sstore key_a
    stop
    push 0
    sstore flag
    push 1
    sstore key_b
    stop
"""

# Increments a counter, then writes under the counter's current value —
# a storage key that changes every call and cannot be resolved
# statically (the analyzer widens this contract's writes to ⊤).
DYNAMIC_COUNTER_ASM = """
    sload n
    push 1
    add
    sstore n
    push 7
    sload n
    sstore $
    stop
"""

# Pays a fee to an address read from storage — a dynamic TRANSFER
# target, so the analyzer widens the balance/endpoint sets to ⊤.  The
# deploying workload funds the contract and seeds storage["payee"].
DYNAMIC_PAYOUT_ASM = """
    sload payee
    transfer $ 3
    stop
"""

# Dynamic-key forms whose keys are pushed constants: constant
# propagation resolves them exactly, so the static sets stay precise.
CONST_INDEXED_ASM = """
    push slot7
    sload $
    pop
    push 5
    push slot7
    sstore $
    stop
"""


# -- routed bodies: branch-joined constant targets ------------------------
#
# Each branch arm pushes a different constant target, and the dynamic
# ``transfer $``/``call $`` consumes the *join* of the two arms.  The
# value-set lattice keeps that join as the exact two-element set {a, b},
# so the predicted sets stay finite where a single-constant domain would
# widen the whole access set to ⊤.  At runtime the toggle flag
# alternates the route taken, exercising both arms.

def routed_payout_asm(payee_a: str, payee_b: str) -> str:
    """Assembly paying one of two fixed payees, chosen by a toggle.

    Addresses must be symbols (not bare integers) so the assembler
    keeps them as strings.  The deploying workload funds the contract.
    """
    return f"""
        sload toggle
        dup
        jumpi 5
        push {payee_a}
        jump 6
        push {payee_b}
        transfer $ 2
        iszero
        sstore toggle
        stop
    """


def routed_call_asm(route_a: str, route_b: str) -> str:
    """Assembly calling one of two fixed sink contracts, by a toggle.

    Same shape as :func:`routed_payout_asm` with a dynamic ``CALL``: an
    unknown call target would be ``global_top`` ("may run anything"),
    the most destructive widening; the value-set join keeps the closure
    to the two sinks' access sets.
    """
    return f"""
        sload toggle
        dup
        jumpi 5
        push {route_a}
        jump 6
        push {route_b}
        call $ 0
        iszero
        sstore toggle
        stop
    """


# The sink bound behind each routed call: one storage write, same shape
# as the shared-db terminal of the proxy chains.
ROUTE_SINK_ASM = """
    push 1
    sstore hits
    stop
"""


# A heavy loop used to model expensive (high-gas) transactions, e.g. the
# 2017 DoS-attack traffic that spiked internal transaction counts.
def busy_loop_asm(iterations: int) -> str:
    """Assembly for a counter loop running *iterations* times.

    The loop exits through the ``pop`` at pc 7, clearing the spent
    counter off the stack before ``stop``.  (An earlier version jumped
    straight to ``stop`` at pc 8, leaving the ``pop`` unreachable —
    flagged by ``repro.cli staticcheck``'s dead-code lint and the
    counter stranded on the stack.)
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return f"""
        push {iterations}
        dup
        iszero
        jumpi 7
        push 1
        sub
        jump 1
        pop
        stop
    """
