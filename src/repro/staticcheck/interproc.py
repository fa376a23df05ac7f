"""Interprocedural closure of access sets over the contract call graph.

A program summary (:class:`~repro.staticcheck.absint.ProgramSummary`)
describes one program in isolation; what the scheduler needs is the
access set of *executing the contract at an address*, which closes over
every ``CALL`` edge — including proxy chains — exactly like the VM's
nested :meth:`~repro.vm.vm.VM._call`.

The closure is a joint fixpoint over all addresses bound to code: each
address's :class:`ClosedAccess` is its own summary plus the union of
the closed sets of every known call target that has code.  Cycles in
the call graph (mutual proxies) converge because the lattice is finite
— key sets are drawn from program operands and widen to ⊤.

⊤ escalation rules:

* a dynamic storage key → that *address's* storage set widens to ⊤
  (the VM scopes dynamic keys to the executing contract's storage);
* a dynamic ``TRANSFER`` target → balance writes widen to ⊤ (any
  address's balance) and the internal-endpoint set widens to ⊤;
* a dynamic ``CALL`` target → ``global_top``: any registered contract
  may run, so the closed set is "may touch anything".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro import obs
from repro.account.state import WorldState
from repro.sets import EMPTY
from repro.staticcheck.absint import ProgramSummary, analyze_program
from repro.vm.contract import CodeRegistry

_MAX_CLOSURE_PASSES = 10_000


def code_bindings(state: WorldState) -> dict[str, str]:
    """Map every contract address in *state* to its ``code_id``."""
    return {
        address: account.code_id
        for address, account in state.iter_accounts()
        if account.code_id
    }


def _join(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, reusing a side when the other is empty: two empty
    sides give :data:`~repro.sets.EMPTY` back, not a fresh empty set."""
    if not b:
        return a
    return a | b if a else b


@dataclass(frozen=True)
class ClosedAccess:
    """Everything executing a contract address may touch.

    Storage keys are ``(address, key)`` pairs in the same shape as the
    VM's runtime trace (:class:`repro.vm.vm.ExecutionContext`).  The
    ``*_top`` members carry the widened ("may touch any …") part.
    """

    storage_reads: frozenset[tuple[str, str]] = EMPTY
    storage_writes: frozenset[tuple[str, str]] = EMPTY
    storage_read_top: frozenset[str] = EMPTY
    storage_write_top: frozenset[str] = EMPTY
    balance_reads: frozenset[str] = EMPTY
    balance_read_top: bool = False
    balance_writes: frozenset[str] = EMPTY
    balance_write_top: bool = False
    internal_endpoints: frozenset[str] = EMPTY
    endpoint_top: bool = False
    global_top: bool = False

    def union(self, other: "ClosedAccess") -> "ClosedAccess":
        return ClosedAccess(
            storage_reads=_join(self.storage_reads, other.storage_reads),
            storage_writes=_join(self.storage_writes, other.storage_writes),
            storage_read_top=_join(
                self.storage_read_top, other.storage_read_top
            ),
            storage_write_top=_join(
                self.storage_write_top, other.storage_write_top
            ),
            balance_reads=_join(self.balance_reads, other.balance_reads),
            balance_read_top=self.balance_read_top or other.balance_read_top,
            balance_writes=_join(self.balance_writes, other.balance_writes),
            balance_write_top=(
                self.balance_write_top or other.balance_write_top
            ),
            internal_endpoints=_join(
                self.internal_endpoints, other.internal_endpoints
            ),
            endpoint_top=self.endpoint_top or other.endpoint_top,
            global_top=self.global_top or other.global_top,
        )

    @property
    def is_top_widened(self) -> bool:
        return bool(
            self.storage_read_top
            or self.storage_write_top
            or self.balance_read_top
            or self.balance_write_top
            or self.endpoint_top
            or self.global_top
        )

    # -- soundness queries (used by the property tests) -----------------

    def covers_read(self, address: str, key: str) -> bool:
        return (
            self.global_top
            or (address, key) in self.storage_reads
            or address in self.storage_read_top
            or (
                key == "__balance__"
                and (self.balance_read_top or address in self.balance_reads)
            )
        )

    def covers_write(self, address: str, key: str) -> bool:
        return (
            self.global_top
            or (address, key) in self.storage_writes
            or address in self.storage_write_top
        )

    def covers_endpoint(self, address: str) -> bool:
        return (
            self.global_top
            or self.endpoint_top
            or address in self.internal_endpoints
        )


EMPTY_ACCESS = ClosedAccess()


def known_call_targets(summary: ProgramSummary) -> tuple[str, ...]:
    """Every resolved ``CALL`` target of *summary*, in site order.

    Value-set resolved sites contribute all their candidate targets;
    ⊤-widened sites contribute nothing here (they set ``global_top`` in
    :func:`local_access` instead).
    """
    targets: list[str] = []
    for site in summary.calls:
        if site.is_call and site.targets is not None:
            targets.extend(site.targets)
    return tuple(dict.fromkeys(targets))


def local_access(address: str, summary: ProgramSummary) -> ClosedAccess:
    """One address's own contribution, before closing call edges."""
    reads = summary.storage_reads.items
    writes = summary.storage_writes.items
    access = ClosedAccess(
        storage_reads=(
            frozenset((address, key) for key in reads) if reads else EMPTY
        ),
        storage_writes=(
            frozenset((address, key) for key in writes) if writes else EMPTY
        ),
        storage_read_top=(
            frozenset({address}) if summary.storage_reads.top else EMPTY
        ),
        storage_write_top=(
            frozenset({address}) if summary.storage_writes.top else EMPTY
        ),
        balance_reads=frozenset(summary.balance_reads.items),
        balance_read_top=summary.balance_reads.top,
    )
    endpoints: set[str] = set()
    balance_writes: set[str] = set()
    endpoint_top = False
    balance_write_top = False
    global_top = False
    for site in summary.calls:
        if site.targets is None:
            # Unknown target: any address may appear in the trace;
            # with value attached any balance may move; a CALL may
            # run any registered contract.
            endpoint_top = True
            if site.value > 0:
                balance_write_top = True
            if site.is_call:
                global_top = True
            continue
        # A value-set target site may run any of finitely many
        # candidates; all of them are possible endpoints (and balance
        # recipients, when value moves).
        endpoints.add(address)
        for target in site.targets:
            endpoints.add(target)
            if site.value > 0:
                balance_writes.add(address)
                balance_writes.add(target)
    return replace(
        access,
        balance_writes=frozenset(balance_writes) if balance_writes else EMPTY,
        balance_write_top=balance_write_top,
        internal_endpoints=frozenset(endpoints) if endpoints else EMPTY,
        endpoint_top=endpoint_top,
        global_top=global_top,
    )


class ContractAnalyzer:
    """Analyzes a code registry and closes access sets over call edges.

    Args:
        registry: the chain's program store.
        code_of: address → ``code_id`` binding (from
            :func:`code_bindings` or built by hand in tests).  Only
            addresses present here execute code; a call to any other
            address is a plain value transfer.
    """

    def __init__(
        self, registry: CodeRegistry, code_of: Mapping[str, str]
    ) -> None:
        self.registry = registry
        self.code_of = dict(code_of)
        self._summaries: dict[str, ProgramSummary] = {}
        self._closed: dict[str, ClosedAccess] | None = None

    # -- per-program summaries ------------------------------------------

    def summary(self, code_id: str) -> ProgramSummary:
        """The (cached) intraprocedural summary of one program."""
        cached = self._summaries.get(code_id)
        if cached is None:
            program = self.registry.get(code_id)
            cached = analyze_program(program if program is not None else ())
            self._summaries[code_id] = cached
        return cached

    def summaries(self) -> dict[str, ProgramSummary]:
        """Summaries of every program reachable from the bindings."""
        for code_id in sorted(set(self.code_of.values())):
            self.summary(code_id)
        return dict(self._summaries)

    def has_code(self, address: str) -> bool:
        return address in self.code_of

    # -- interprocedural closure ----------------------------------------

    def closed_access(self, address: str) -> ClosedAccess:
        """The closed access set of executing the contract at *address*.

        Addresses without code return the empty set (a plain value
        recipient executes nothing).
        """
        if address not in self.code_of:
            return EMPTY_ACCESS
        if self._closed is None:
            self.analyze_all()
            assert self._closed is not None
        return self._closed[address]

    def analyze_all(self) -> dict[str, ClosedAccess]:
        """Run the joint closure fixpoint over every bound address."""
        if self._closed is not None:
            return dict(self._closed)
        with obs.trace_span(
            "staticcheck.closure", contracts=len(self.code_of)
        ) as span:
            local = {
                address: self._local_access(address)
                for address in self.code_of
            }
            closed = dict(local)
            passes = 0
            changed = True
            while changed:
                passes += 1
                if passes > _MAX_CLOSURE_PASSES:  # pragma: no cover
                    raise RuntimeError("interprocedural closure diverged")
                changed = False
                for address in closed:
                    merged = local[address]
                    for target in self._call_targets(address):
                        if target in closed:
                            merged = merged.union(closed[target])
                    if merged != closed[address]:
                        closed[address] = merged
                        changed = True
            self._closed = closed
            if obs.enabled():
                span.set(passes=passes)
                obs.counter("staticcheck.closures").inc(len(closed))
                obs.counter("staticcheck.closure_top_widened").inc(
                    sum(1 for item in closed.values() if item.is_top_widened)
                )
        return dict(closed)

    def _call_targets(self, address: str) -> Iterable[str]:
        return known_call_targets(self.summary(self.code_of[address]))

    def _local_access(self, address: str) -> ClosedAccess:
        """One address's own contribution, before closing call edges."""
        return local_access(address, self.summary(self.code_of[address]))
