"""Value-propagating abstract interpretation of one program.

The interpreter runs a classic worklist fixpoint over the CFG with an
abstract stack per basic-block entry, then replays each reachable block
once against its converged entry state to collect the program's access
summary and diagnostics.

Stack slots live in the bounded value-set lattice of
:mod:`repro.staticcheck.valueset` — ``Const ⊑ ValueSet ⊑
StridedInterval ⊑ ⊤``.

Widening rules (each has a dedicated unit test):

* joining distinct constants builds a :class:`ValueSet` of up to 8
  members, widens to a stride/interval superset while the member count
  stays ≤ 64, then goes to ⊤;
* joining stacks of different heights → unknown stack (every later pop
  yields ⊤ and underflow can no longer be proven);
* a dynamic (``$``) storage key / balance address that does not
  enumerate to finitely many keys at the access site → the
  corresponding key set widens to ⊤;
* a dynamic call target that does not enumerate → the call-target set
  widens to ⊤ (interprocedurally: "any contract may run");
* arithmetic folds the cartesian product of finite int operand sets
  (≤ 64 pairs), otherwise ⊤;
* a ``JUMPI`` on a condition whose members are not uniformly zero or
  uniformly nonzero → both successors feasible (a decided condition
  prunes the dead branch, which is what makes constant-false guards
  produce *unreachable code* findings).

Soundness: every concrete execution path is covered by some abstract
path, so the dynamic access set of any run is a subset of the summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.sets import EMPTY
from repro.staticcheck import valueset
from repro.staticcheck.cfg import BasicBlock, build_cfg
from repro.staticcheck.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    STACK_UNDERFLOW,
    TOP_WIDENED,
    UNREACHABLE,
    Diagnostic,
)
from repro.staticcheck.lattice import TOP, Const, MaySet
from repro.staticcheck.valueset import Value, ValueStack
from repro.vm.contract import Program
from repro.vm.opcodes import STACK_OPERAND, Instruction, Op

# Per-slot join chains are ~75 steps deep under the value-set lattice
# (8 exact members, then ≤64 interval members, then ⊤), so a fuzzed
# 25-instruction loop nest can legitimately take tens of thousands of
# worklist pops to converge.  The guard only exists to turn a genuine
# non-termination bug into a loud error instead of a hang.
_MAX_FIXPOINT_PASSES = 200_000


@dataclass(frozen=True)
class CallSite:
    """One ``CALL``/``TRANSFER`` site.

    ``targets`` is the value-set resolution of the target operand: a
    tuple of candidate addresses, or None when it widened to ⊤.
    """

    pc: int
    kind: str  # "call" | "transfer"
    targets: tuple[str, ...] | None
    value: int

    @property
    def is_call(self) -> bool:
        return self.kind == "call"


@dataclass(frozen=True)
class ProgramSummary:
    """Sound over-approximation of one program's side effects."""

    num_instructions: int
    storage_reads: MaySet
    storage_writes: MaySet
    balance_reads: MaySet
    calls: tuple[CallSite, ...]
    diagnostics: tuple[Diagnostic, ...]
    #: pcs of dynamic (``$``) operands that widened to ⊤ / resolved to
    #: finitely many keys.  Disjoint; static operands count as neither.
    widened_sites: frozenset[int] = EMPTY
    resolved_sites: frozenset[int] = EMPTY

    @property
    def has_unknown_call_target(self) -> bool:
        return any(site.targets is None for site in self.calls)

    @property
    def top_widened(self) -> bool:
        """Did any access set widen to ⊤?"""
        return (
            self.storage_reads.top
            or self.storage_writes.top
            or self.balance_reads.top
            or self.has_unknown_call_target
        )

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)


@dataclass
class _Effects:
    """Accumulator used by the final replay pass."""

    storage_reads: MaySet = field(default_factory=MaySet)
    storage_writes: MaySet = field(default_factory=MaySet)
    balance_reads: MaySet = field(default_factory=MaySet)
    calls: dict[int, CallSite] = field(default_factory=dict)
    diagnostics: dict[tuple[int, str], Diagnostic] = field(
        default_factory=dict
    )
    executed_pcs: set[int] = field(default_factory=set)
    widened_sites: set[int] = field(default_factory=set)
    resolved_sites: set[int] = field(default_factory=set)

    def diagnose(
        self, pc: int, severity: str, code: str, message: str
    ) -> None:
        self.diagnostics.setdefault(
            (pc, code),
            Diagnostic(pc=pc, severity=severity, code=code, message=message),
        )


class _Halt(Exception):
    """Internal: abstract execution of this path stops here."""


_BINARY_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.LT, Op.EQ)


def _fold(op: Op, lhs: int, rhs: int) -> int:
    """Constant-fold a binary op with the VM's exact semantics."""
    if op is Op.ADD:
        return lhs + rhs
    if op is Op.SUB:
        return lhs - rhs
    if op is Op.MUL:
        return lhs * rhs
    if op is Op.DIV:
        return lhs // rhs if rhs != 0 else 0
    if op is Op.LT:
        return 1 if lhs < rhs else 0
    if op is Op.EQ:
        return 1 if lhs == rhs else 0
    raise AssertionError(f"not a binary op: {op!r}")


class _AbstractFrame:
    """Mutable abstract stack with underflow tracking for one path."""

    def __init__(self, state: ValueStack, effects: _Effects | None):
        self.known: list[Value] | None = (
            None if state is None else list(state)
        )
        self.effects = effects

    def snapshot(self) -> ValueStack:
        return None if self.known is None else tuple(self.known)

    def push(self, value: Value) -> None:
        if self.known is not None:
            self.known.append(value)

    def pop(self, pc: int, needed: int = 1) -> list[Value]:
        """Pop *needed* slots; ⊤ for each slot of an unknown stack.

        Raises :class:`_Halt` on a *provable* underflow: the stack
        height is exact here (all paths agree), so the VM is guaranteed
        to raise ``VMError`` if this pc is ever reached.
        """
        if self.known is None:
            return [TOP] * needed
        if len(self.known) < needed:
            if self.effects is not None:
                self.effects.diagnose(
                    pc,
                    SEVERITY_ERROR,
                    STACK_UNDERFLOW,
                    f"guaranteed stack underflow (needs {needed} operand"
                    f"{'s' if needed > 1 else ''}, stack has "
                    f"{len(self.known)})",
                )
            raise _Halt
        taken = self.known[-needed:][::-1]
        del self.known[-needed:]
        return taken

    def peek_ok(self, needed: int) -> bool:
        return self.known is None or len(self.known) >= needed


def _resolve_keys(
    operand: object,
    frame: _AbstractFrame,
    pc: int,
    what: str,
) -> tuple[str, ...] | None:
    """A static or ``$`` operand as concrete key(s), or None for ⊤.

    Static operands resolve to their single key.  ``$`` operands pop
    the abstract stack and enumerate the popped value's members, up to
    :data:`~repro.staticcheck.valueset.MAX_ENUMERATED_KEYS` keys.  Each
    ``$`` site is tallied as resolved or ⊤-widened exactly once (the
    lint surfaces the counts).
    """
    if operand != STACK_OPERAND:
        return (str(operand),)
    (value,) = frame.pop(pc)
    keys = valueset.enumerate_keys(value)
    if keys is not None:
        if frame.effects is not None:
            frame.effects.resolved_sites.add(pc)
        return keys
    if frame.effects is not None:
        frame.effects.widened_sites.add(pc)
        frame.effects.diagnose(
            pc,
            SEVERITY_WARNING,
            TOP_WIDENED,
            f"dynamic {what} is not a constant; access set widened to ⊤",
        )
    return None


def _step_block(
    program: Program,
    block: BasicBlock,
    entry: ValueStack,
    effects: _Effects | None,
) -> list[tuple[int, ValueStack]]:
    """Abstractly execute *block* from *entry*; return successor states."""
    frame = _AbstractFrame(entry, effects)
    for pc in range(block.start, block.end):
        instruction = program[pc]
        if effects is not None:
            effects.executed_pcs.add(pc)
        op = instruction.op
        try:
            if op in (Op.STOP, Op.REVERT):
                return []
            if op is Op.PUSH:
                operand = instruction.operand
                frame.push(
                    Const(operand)
                    if isinstance(operand, (int, str))
                    else TOP
                )
            elif op is Op.POP:
                frame.pop(pc)
            elif op is Op.DUP:
                if not frame.peek_ok(1):
                    frame.pop(pc)  # raises with the underflow diagnostic
                if frame.known is not None:
                    frame.push(frame.known[-1])
            elif op is Op.SWAP:
                rhs, lhs = frame.pop(pc, 2)
                frame.push(rhs)
                frame.push(lhs)
            elif op in _BINARY_OPS:
                rhs, lhs = frame.pop(pc, 2)
                # Non-int members would fault at run time; folding only
                # the int cartesian product (or widening to ⊤) keeps the
                # access set a sound over-approximation.
                def fold_pair(a: int, b: int, _op: Op = op) -> int:
                    return _fold(_op, a, b)

                frame.push(valueset.fold(fold_pair, lhs, rhs))
            elif op is Op.ISZERO:
                (value,) = frame.pop(pc)
                frame.push(valueset.iszero(value))
            elif op is Op.JUMP:
                if block.successors:
                    return [(block.successors[0], frame.snapshot())]
                return []  # out-of-range target: the VM faults here
            elif op is Op.JUMPI:
                (condition,) = frame.pop(pc)
                state = frame.snapshot()
                target = _jumpi_target(instruction, program)
                fall = pc + 1 if pc + 1 < len(program) else None
                decision = valueset.branch(condition)
                if decision is not None:
                    chosen = target if decision else fall
                    return [] if chosen is None else [(chosen, state)]
                successors: list[tuple[int, ValueStack]] = []
                if target is not None:
                    successors.append((target, state))
                if fall is not None:
                    successors.append((fall, state))
                return successors
            elif op is Op.SLOAD:
                keys = _resolve_keys(
                    instruction.operand, frame, pc, "storage key"
                )
                if effects is not None:
                    effects.storage_reads = _widen_or_add(
                        effects.storage_reads, keys
                    )
                frame.push(TOP)  # storage contents are unknown statically
            elif op is Op.SSTORE:
                keys = _resolve_keys(
                    instruction.operand, frame, pc, "storage key"
                )
                frame.pop(pc)  # the stored value
                if effects is not None:
                    effects.storage_writes = _widen_or_add(
                        effects.storage_writes, keys
                    )
            elif op is Op.BALANCE:
                addresses = _resolve_keys(
                    instruction.operand, frame, pc, "balance address"
                )
                if effects is not None:
                    effects.balance_reads = _widen_or_add(
                        effects.balance_reads, addresses
                    )
                frame.push(TOP)
            elif op in (Op.CALL, Op.TRANSFER):
                operand = instruction.operand
                if isinstance(operand, tuple) and len(operand) == 2:
                    raw_target, value = operand
                else:  # malformed hand-built operand: stay total, widen
                    raw_target, value = None, 0
                targets = (
                    _resolve_keys(raw_target, frame, pc, "call target")
                    if raw_target is not None
                    else None
                )
                if effects is not None:
                    effects.calls[pc] = CallSite(
                        pc=pc,
                        kind="call" if op is Op.CALL else "transfer",
                        targets=targets,
                        value=int(value),
                    )
            elif op is Op.LOG:
                frame.pop(pc)
            else:  # pragma: no cover - enum is exhaustive
                raise AssertionError(f"unhandled opcode {op!r}")
        except _Halt:
            return []
    # Fell through to the next leader (or off the end of the program).
    if block.successors:
        return [(block.successors[0], frame.snapshot())]
    return []


def _widen_or_add(may_set: MaySet, keys: tuple[str, ...] | None) -> MaySet:
    """Add every resolved key to *may_set*, or widen it on ⊤."""
    if keys is None:
        return may_set.widen()
    for key in keys:
        may_set = may_set.add(key)
    return may_set


def _jumpi_target(instruction: Instruction, program: Program) -> int | None:
    operand = instruction.operand
    if isinstance(operand, int) and 0 <= operand < len(program):
        return operand
    return None


def analyze_program(program: Program) -> ProgramSummary:
    """Compute the sound access summary and diagnostics of *program*."""
    cfg = build_cfg(program)
    entry_states: dict[int, ValueStack] = {}
    blocks_by_start = {block.start: block for block in cfg.blocks}

    if cfg.blocks:
        entry_states[0] = ()
        worklist: list[int] = [0]
        passes = 0
        while worklist:
            passes += 1
            if passes > _MAX_FIXPOINT_PASSES:  # pragma: no cover - guard
                raise RuntimeError("abstract interpretation diverged")
            start = worklist.pop()
            block = blocks_by_start[start]
            for successor, state in _step_block(
                program, block, entry_states[start], None
            ):
                if successor not in entry_states:
                    entry_states[successor] = state
                    worklist.append(successor)
                else:
                    joined = valueset.join_stacks(
                        entry_states[successor], state
                    )
                    if joined != entry_states[successor]:
                        entry_states[successor] = joined
                        worklist.append(successor)

    # Replay each reachable block once against its converged entry
    # state, collecting accesses and per-pc diagnostics.
    effects = _Effects()
    for start in sorted(entry_states):
        _step_block(
            program, blocks_by_start[start], entry_states[start], effects
        )

    for diagnostic in cfg.diagnostics:
        # Out-of-range jumps are errors only where reachable; in dead
        # code they are subsumed by the unreachable-code warning.
        if diagnostic.pc in effects.executed_pcs:
            effects.diagnostics.setdefault(
                (diagnostic.pc, diagnostic.code), diagnostic
            )

    _diagnose_unreachable(len(program), effects)

    diagnostics = tuple(
        sorted(
            effects.diagnostics.values(),
            key=lambda d: (d.pc, d.severity, d.code),
        )
    )
    summary = ProgramSummary(
        num_instructions=len(program),
        storage_reads=effects.storage_reads,
        storage_writes=effects.storage_writes,
        balance_reads=effects.balance_reads,
        calls=tuple(
            effects.calls[pc] for pc in sorted(effects.calls)
        ),
        diagnostics=diagnostics,
        widened_sites=frozenset(effects.widened_sites),
        resolved_sites=frozenset(effects.resolved_sites),
    )
    if obs.enabled():
        obs.counter("staticcheck.programs").inc()
        obs.counter("staticcheck.instructions").inc(len(program))
        if summary.top_widened:
            obs.counter("staticcheck.top_widened").inc()
        if summary.widened_sites:
            obs.counter("staticcheck.sites.widened").inc(
                len(summary.widened_sites)
            )
        if summary.resolved_sites:
            obs.counter("staticcheck.sites.resolved").inc(
                len(summary.resolved_sites)
            )
        for diagnostic in diagnostics:
            obs.counter(
                "staticcheck.diagnostics", severity=diagnostic.severity
            ).inc()
    return summary


def _diagnose_unreachable(length: int, effects: _Effects) -> None:
    """Coalesce never-executed pcs into per-run unreachable warnings."""
    run_start: int | None = None
    for pc in range(length + 1):
        dead = pc < length and pc not in effects.executed_pcs
        if dead and run_start is None:
            run_start = pc
        elif not dead and run_start is not None:
            count = pc - run_start
            effects.diagnose(
                run_start,
                SEVERITY_WARNING,
                UNREACHABLE,
                f"unreachable code ({count} instruction"
                f"{'s' if count > 1 else ''}, pc {run_start}"
                + (f"-{pc - 1}" if count > 1 else "")
                + ")",
            )
            run_start = None
