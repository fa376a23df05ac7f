"""Statically *predicted* transaction access sets and TDGs.

:func:`repro.execution.engine.tasks_from_account_block` derives each
transaction's read/write sets from its execution receipt — information
that is only available *after* running the VM.  This module derives the
same sets *before* execution from the receiver's closed static access
set, in exactly the same location vocabulary (spelled by
:mod:`repro.sets`)::

    storage:<address>:<key>     storage slot (``__balance__`` for the
                                BALANCE opcode's read, mirroring the
                                runtime trace)
    balance:<address>           balance cell moved by value transfers

plus two widened forms that have no runtime counterpart:

* a per-address storage wildcard (``read_wild``/``write_wild``) for
  contracts whose dynamic keys did not resolve to constants, and
* ``global_top`` for transactions that may touch anything (unknown
  call target, widened balance set, widened endpoint set).

Soundness (property-tested): the predicted set of a transaction always
covers the runtime task set, so the predicted TDG's recall against the
runtime-traced TDG is 1.0 — the paper's perfect-information model with
an imprecise (but never wrong) oracle, bought at analysis cost ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.account.transaction import AccountTransaction
from repro.core.tdg import TDGResult
from repro.execution.conflict_partition import conflict_partition
from repro.execution.engine import TxTask, utxo_writes
from repro.sets import (
    EMPTY,
    access_set,
    balance_location,
    storage_location,
)
from repro.staticcheck.interproc import ContractAnalyzer
from repro.utxo.transaction import UTXOTransaction


@dataclass(frozen=True, slots=True)
class PredictedAccess:
    """Predicted read/write sets of one transaction.

    ``read_wild``/``write_wild`` hold addresses whose *entire* storage
    may be read/written (⊤-widened keys); ``global_top`` marks a
    transaction that may touch anything at all.  The ``*_addrs``
    members are derived indexes for fast wildcard conflict tests.
    """

    tx_hash: str
    reads: frozenset[str] = EMPTY
    writes: frozenset[str] = EMPTY
    read_wild: frozenset[str] = EMPTY
    write_wild: frozenset[str] = EMPTY
    global_top: bool = False
    read_addrs: frozenset[str] = EMPTY
    write_addrs: frozenset[str] = EMPTY

    @property
    def is_widened(self) -> bool:
        return bool(self.global_top or self.read_wild or self.write_wild)

    def covers_task(self, task: TxTask) -> bool:
        """Does this prediction cover the runtime task's access set?"""
        if self.global_top:
            return True
        return all(
            self._covers_location(location, self.reads, self.read_wild)
            or self._covers_location(location, self.writes, self.write_wild)
            for location in task.reads
        ) and all(
            self._covers_location(location, self.writes, self.write_wild)
            for location in task.writes
        )

    @staticmethod
    def _covers_location(
        location: str, concrete: frozenset[str], wild: frozenset[str]
    ) -> bool:
        if location in concrete:
            return True
        if location.startswith("storage:"):
            address = location.split(":", 2)[1]
            return address in wild
        return False


# A sound fallback for transactions the analyzer knows nothing about.
def unknown_access(tx_hash: str) -> PredictedAccess:
    return PredictedAccess(tx_hash=tx_hash, global_top=True)


def predict_transaction(
    tx: AccountTransaction, analyzer: ContractAnalyzer
) -> PredictedAccess:
    """Predict the access set of *tx* without executing it.

    Mirrors :func:`tasks_from_account_block`: the sender's and
    receiver's balance cells are always written (nonce/fee and value),
    and when the receiver is a known contract its closed static access
    set is added.  Locations and sets come from :mod:`repro.sets`: a
    prediction that equals its task holds the task's frozensets, and a
    wider one sets of its own.
    """
    reads: set[str] = set()
    writes: set[str] = {
        balance_location(tx.sender),
        balance_location(tx.receiver),
    }
    read_wild: frozenset[str] = EMPTY
    write_wild: frozenset[str] = EMPTY
    global_top = False

    if analyzer.has_code(tx.receiver):
        closed = analyzer.closed_access(tx.receiver)
        reads.update(
            storage_location(address, key)
            for address, key in closed.storage_reads
        )
        reads.update(
            storage_location(address, "__balance__")
            for address in closed.balance_reads
        )
        writes.update(
            storage_location(address, key)
            for address, key in closed.storage_writes
        )
        writes.update(map(balance_location, closed.internal_endpoints))
        writes.update(map(balance_location, closed.balance_writes))
        read_wild = closed.storage_read_top
        write_wild = closed.storage_write_top
        global_top = (
            closed.global_top
            or closed.balance_read_top
            or closed.balance_write_top
            or closed.endpoint_top
        )

    def storage_addresses(
        locations: set[str], wild: frozenset[str]
    ) -> frozenset[str]:
        found = set(wild)
        for location in locations:
            if location.startswith("storage:"):
                found.add(location.split(":", 2)[1])
        return access_set(found)

    return PredictedAccess(
        tx_hash=tx.tx_hash,
        reads=access_set(reads),
        writes=access_set(writes),
        read_wild=read_wild,
        write_wild=write_wild,
        global_top=global_top,
        read_addrs=storage_addresses(reads, read_wild),
        write_addrs=storage_addresses(writes, write_wild),
    )


def predict_block(
    transactions: Sequence[AccountTransaction],
    analyzer: ContractAnalyzer,
) -> list[PredictedAccess]:
    """Predictions for a block's regular (non-coinbase) transactions."""
    return [
        predict_transaction(tx, analyzer)
        for tx in transactions
        if not tx.is_coinbase
    ]


def predict_utxo_block(
    transactions: Sequence[UTXOTransaction],
) -> list[PredictedAccess]:
    """Predictions for a UTXO block's regular transactions.

    UTXO access sets are syntactic — a transaction names every outpoint
    it consumes or creates — so the "prediction" is exact: the writes
    are :func:`repro.execution.engine.utxo_writes`, built once per
    transaction and shared, so a prediction holds the very frozenset
    its task holds, and nothing ever widens.
    """
    return [
        PredictedAccess(tx_hash=tx.tx_hash, writes=utxo_writes(tx))
        for tx in transactions
        if not tx.is_coinbase
    ]


def predicted_conflicts(a: PredictedAccess, b: PredictedAccess) -> bool:
    """May *a* and *b* conflict under the predicted sets?

    Same write/write-or-read/write rule as
    :meth:`repro.execution.engine.TxTask.conflicts_with`, extended to
    the widened forms.  The two-item *definition*: a block's groups
    come from :func:`~repro.execution.conflict_partition.conflict_partition`,
    which the property tests hold against this predicate's closure.
    """
    if a.global_top or b.global_top:
        return True
    if a.writes & b.writes or a.writes & b.reads or a.reads & b.writes:
        return True
    # Storage wildcards: a ⊤-widened write may hit anything the other
    # transaction touches at that address, and vice versa; a ⊤-widened
    # read conflicts with any write at that address.
    if a.write_wild & (b.read_addrs | b.write_addrs):
        return True
    if b.write_wild & (a.read_addrs | a.write_addrs):
        return True
    if a.read_wild & b.write_addrs or b.read_wild & a.write_addrs:
        return True
    return False


def predicted_tdg(predictions: Sequence[PredictedAccess]) -> TDGResult:
    """Partition predictions into predicted dependency groups: the
    connected components of :func:`predicted_conflicts`, found per
    location rather than per pair."""
    return TDGResult.from_groups(
        [predictions[index].tx_hash for index in group]
        for group in conflict_partition(predictions)
    )


def expanded_tasks(
    predictions: Sequence[PredictedAccess],
    costs: Mapping[str, float] | None = None,
) -> list[TxTask]:
    """Materialize predictions as :class:`TxTask` objects.

    Wildcards are expanded against the block's *statically known*
    location universe (every concrete location any prediction mentions)
    plus a per-address marker, so plain set intersection between two
    expanded tasks agrees with :func:`predicted_conflicts`.  This is
    what lets the stock OCC executor validate against predicted sets
    with no code changes.
    """
    universe: set[str] = set()
    by_address: dict[str, set[str]] = {}
    for prediction in predictions:
        for location in prediction.reads | prediction.writes:
            universe.add(location)
            if location.startswith("storage:"):
                by_address.setdefault(
                    location.split(":", 2)[1], set()
                ).add(location)
        # Wildcard markers join the universe so a global-⊤ task also
        # intersects wildcard-only tasks with no concrete locations.
        for address in prediction.read_wild | prediction.write_wild:
            universe.add(storage_location(address, "*"))

    def expand(
        concrete: frozenset[str], wild: frozenset[str], top: bool
    ) -> frozenset[str]:
        if top:
            return frozenset(universe) | {"__global_top__"}
        expanded = set(concrete)
        for address in wild:
            expanded |= by_address.get(address, set())
            expanded.add(storage_location(address, "*"))
        return frozenset(expanded)

    tasks: list[TxTask] = []
    for prediction in predictions:
        cost = 1.0 if costs is None else costs.get(prediction.tx_hash, 1.0)
        tasks.append(
            TxTask(
                tx_hash=prediction.tx_hash,
                cost=cost,
                reads=expand(
                    prediction.reads,
                    prediction.read_wild,
                    prediction.global_top,
                ),
                writes=expand(
                    prediction.writes,
                    prediction.write_wild,
                    prediction.global_top,
                ),
            )
        )
    return tasks
