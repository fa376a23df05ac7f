"""The VM interpreter.

Executes contract programs against a :class:`repro.account.state.WorldState`,
metering gas and recording the side effects the paper's analysis depends
on: internal transactions (one per CALL/TRANSFER, plus nested calls) and
per-(address, key) storage read/write sets.

The interpreter implements the ``ContractExecutor`` protocol expected by
``WorldState.apply_transaction``, so wiring it in is one line:

    vm = VM(registry)
    state.apply_transaction(tx, executor=vm.execute_transaction)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.account.gas import GasSchedule
from repro.account.state import WorldState
from repro.account.transaction import AccountTransaction, InternalTransaction
from repro.chain.errors import OutOfGasError, VMError
from repro.sets import EMPTY
from repro.vm.contract import CodeRegistry, Program
from repro.vm.opcodes import STACK_OPERAND, Instruction, Op, gas_cost

MAX_CALL_DEPTH = 16
MAX_STEPS_PER_CALL = 10_000


@dataclass
class ExecutionContext:
    """Mutable bookkeeping shared across a (possibly nested) execution."""

    gas_remaining: int
    internals: list[InternalTransaction] = field(default_factory=list)
    reads: set[tuple[str, str]] = field(default_factory=set)
    writes: set[tuple[str, str]] = field(default_factory=set)
    logs: list[str] = field(default_factory=list)

    def charge(self, amount: int) -> None:
        if amount > self.gas_remaining:
            self.gas_remaining = 0
            raise OutOfGasError("gas exhausted")
        self.gas_remaining -= amount


class VM:
    """A stack-machine interpreter bound to a code registry."""

    def __init__(self, registry: CodeRegistry):
        self.registry = registry

    # -- ContractExecutor protocol ----------------------------------------

    def execute_transaction(
        self,
        state: WorldState,
        tx: AccountTransaction,
        gas_budget: int,
    ) -> tuple[bool, int, tuple[InternalTransaction, ...],
               frozenset[tuple[str, str]], frozenset[tuple[str, str]]]:
        """Run the contract at ``tx.receiver``; see ContractExecutor.

        Returns (success, gas_used, internal_txs, reads, writes).
        """
        context = ExecutionContext(gas_remaining=gas_budget)
        try:
            success = self._call(
                state=state,
                caller=tx.sender,
                callee=tx.receiver,
                value=0,  # top-level value already moved by the state layer
                depth=1,
                context=context,
                record_trace=False,  # the top-level call is the regular tx
            )
        except OutOfGasError:
            success = False
        gas_used = gas_budget - context.gas_remaining
        return (
            success,
            gas_used,
            tuple(context.internals),
            frozenset(context.reads) if context.reads else EMPTY,
            frozenset(context.writes) if context.writes else EMPTY,
        )

    # -- interpreter core ---------------------------------------------------

    def _call(
        self,
        *,
        state: WorldState,
        caller: str,
        callee: str,
        value: int,
        depth: int,
        context: ExecutionContext,
        record_trace: bool,
    ) -> bool:
        """Execute the program at *callee*; returns success."""
        if depth > MAX_CALL_DEPTH:
            raise VMError("call depth limit exceeded")
        if record_trace:
            context.internals.append(
                InternalTransaction(
                    sender=caller,
                    receiver=callee,
                    value=value,
                    call_type="call",
                    depth=depth,
                )
            )
        account = state.account(callee)
        program = self.registry.get(account.code_id) if account.code_id else None
        if program is None:
            # Plain value recipient: the trace exists, nothing executes.
            return True
        return self._run(
            state=state,
            self_address=callee,
            caller=caller,
            program=program,
            depth=depth,
            context=context,
        )

    def _run(
        self,
        *,
        state: WorldState,
        self_address: str,
        caller: str,
        program: Program,
        depth: int,
        context: ExecutionContext,
    ) -> bool:
        schedule: GasSchedule = state.gas_schedule
        account = state.account(self_address)
        stack: list[object] = []
        pc = 0
        steps = 0
        while pc < len(program):
            steps += 1
            if steps > MAX_STEPS_PER_CALL:
                raise VMError(f"step limit exceeded in {self_address}")
            instruction = program[pc]
            context.charge(gas_cost(instruction, schedule))
            op = instruction.op

            if op is Op.STOP:
                return True
            if op is Op.REVERT:
                return False
            if op is Op.PUSH:
                stack.append(instruction.operand)
            elif op is Op.POP:
                self._pop(stack)
            elif op is Op.DUP:
                if not stack:
                    raise VMError("DUP on empty stack")
                stack.append(stack[-1])
            elif op is Op.SWAP:
                if len(stack) < 2:
                    raise VMError("SWAP needs two operands")
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.LT, Op.EQ):
                rhs = self._pop_int(stack)
                lhs = self._pop_int(stack)
                stack.append(self._binary(op, lhs, rhs))
            elif op is Op.ISZERO:
                stack.append(1 if self._pop_int(stack) == 0 else 0)
            elif op is Op.JUMP:
                pc = self._jump_target(instruction, program)
                continue
            elif op is Op.JUMPI:
                condition = self._pop_int(stack)
                if condition != 0:
                    pc = self._jump_target(instruction, program)
                    continue
            elif op is Op.SLOAD:
                key = self._operand_or_pop(instruction.operand, stack)
                context.reads.add((self_address, key))
                raw = account.storage.get(key, "0")
                stack.append(int(raw) if raw.lstrip("-").isdigit() else raw)
            elif op is Op.SSTORE:
                # Dynamic form pops the key first, then the value.
                key = self._operand_or_pop(instruction.operand, stack)
                value = self._pop(stack)
                # Charge the cheaper update rate when overwriting.
                if key in account.storage:
                    refund = schedule.sstore_set - schedule.sstore_update
                    context.gas_remaining += refund
                context.writes.add((self_address, key))
                account.storage[key] = str(value)
            elif op is Op.BALANCE:
                address = self._operand_or_pop(instruction.operand, stack)
                context.reads.add((address, "__balance__"))
                stack.append(state.balance_of(address))
            elif op in (Op.CALL, Op.TRANSFER):
                target, call_value = instruction.operand  # type: ignore[misc]
                target = self._operand_or_pop(target, stack)
                call_value = int(call_value)
                if call_value:
                    context.charge(schedule.call_value_transfer)
                    if account.balance < call_value:
                        return False
                    account.balance -= call_value
                    state.account(str(target)).balance += call_value
                if op is Op.CALL:
                    ok = self._call(
                        state=state,
                        caller=self_address,
                        callee=str(target),
                        value=call_value,
                        depth=depth + 1,
                        context=context,
                        record_trace=True,
                    )
                    if not ok:
                        return False
                else:
                    context.internals.append(
                        InternalTransaction(
                            sender=self_address,
                            receiver=str(target),
                            value=call_value,
                            call_type="transfer",
                            depth=depth + 1,
                        )
                    )
            elif op is Op.LOG:
                context.logs.append(str(self._pop(stack)))
            else:  # pragma: no cover - enum is exhaustive
                raise VMError(f"unhandled opcode {op!r}")
            pc += 1
        return True

    # -- helpers --------------------------------------------------------------

    @classmethod
    def _operand_or_pop(cls, operand: object, stack: list[object]) -> str:
        """Resolve a key/address operand, popping the stack for ``$``."""
        if operand == STACK_OPERAND:
            return str(cls._pop(stack))
        return str(operand)

    @staticmethod
    def _pop(stack: list[object]) -> object:
        if not stack:
            raise VMError("stack underflow")
        return stack.pop()

    @classmethod
    def _pop_int(cls, stack: list[object]) -> int:
        value = cls._pop(stack)
        if not isinstance(value, int):
            raise VMError(f"expected integer on stack, got {value!r}")
        return value

    @staticmethod
    def _jump_target(instruction: Instruction, program: Program) -> int:
        target = instruction.operand
        if not isinstance(target, int) or not 0 <= target < len(program):
            raise VMError(f"jump target {target!r} out of range")
        return target

    @staticmethod
    def _binary(op: Op, lhs: int, rhs: int) -> int:
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
        raise VMError(f"not a binary op: {op!r}")
