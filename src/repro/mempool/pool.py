"""Transaction mempool with a fee market and block packing.

Miners do not execute transactions in arrival order; they pack blocks
by fee density under a size/gas budget.  The mempool substrate gives
the workload layer (and downstream users) that machinery:

* admission with minimum-fee-rate policy and capacity-based eviction
  (lowest fee rate evicted first);
* replace-by-fee: a transaction with the same replacement key and a
  sufficiently higher fee rate supersedes the old one;
* greedy fee-density block packing under a weight budget — the
  classical knapsack heuristic miners actually use.

The pool is deliberately model-agnostic: it stores
:class:`PoolEntry` records with opaque payloads, so both UTXO and
account transactions can flow through it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro import obs

PayloadT = TypeVar("PayloadT")


class MempoolError(Exception):
    """Raised on invalid mempool operations."""


class AdmissionError(MempoolError):
    """A transaction failed the admission policy."""


@dataclass(frozen=True)
class PoolEntry(Generic[PayloadT]):
    """One queued transaction.

    Attributes:
        tx_hash: unique identifier.
        fee: total fee offered.
        weight: size/gas weight consumed in a block.
        payload: the underlying transaction object.
        replacement_key: transactions sharing this key compete;
            a newcomer must beat the incumbent's fee rate by the pool's
            replacement factor (e.g. "sender:nonce" for account chains,
            first outpoint for UTXO chains).  Empty = no competition.
    """

    tx_hash: str
    fee: int
    weight: int
    payload: PayloadT = None  # type: ignore[assignment]
    replacement_key: str = ""

    def __post_init__(self) -> None:
        if not self.tx_hash:
            raise ValueError("tx_hash must be non-empty")
        if self.fee < 0:
            raise ValueError("fee must be non-negative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    @property
    def fee_rate(self) -> float:
        """Fee per unit of weight — the packing priority."""
        return self.fee / self.weight


@dataclass
class Mempool(Generic[PayloadT]):
    """A capacity-bounded, fee-prioritised transaction pool.

    Args:
        max_weight: total weight the pool retains; beyond it the
            cheapest entries are evicted.
        min_fee_rate: admission floor.
        replacement_factor: RBF multiplier — a replacement must offer
            at least this multiple of the incumbent's fee rate.
    """

    max_weight: int = 4_000_000
    min_fee_rate: float = 1.0
    replacement_factor: float = 1.1

    _entries: dict[str, PoolEntry[PayloadT]] = field(default_factory=dict)
    _by_replacement: dict[str, str] = field(default_factory=dict)
    _total_weight: int = 0

    def __post_init__(self) -> None:
        if self.max_weight <= 0:
            raise ValueError("max_weight must be positive")
        if self.replacement_factor < 1.0:
            raise ValueError("replacement_factor must be >= 1")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tx_hash: str) -> bool:
        return tx_hash in self._entries

    @property
    def total_weight(self) -> int:
        # Maintained incrementally on admission/removal: admission and
        # eviction consult this on every submit, and re-summing the
        # whole pool there is quadratic in pool size (it dominated
        # large lifecycle sweeps before it was made O(1)).
        return self._total_weight

    # -- admission -----------------------------------------------------------

    def submit(self, entry: PoolEntry[PayloadT]) -> None:
        """Admit *entry*, applying fee floor, RBF and eviction.

        Raises:
            AdmissionError: below the fee floor, duplicate hash, or an
                insufficient replacement bid.
        """
        if entry.tx_hash in self._entries:
            obs.counter("mempool.rejected", reason="duplicate").inc()
            raise AdmissionError(f"duplicate transaction {entry.tx_hash}")
        if entry.fee_rate < self.min_fee_rate:
            obs.counter("mempool.rejected", reason="fee_floor").inc()
            raise AdmissionError(
                f"fee rate {entry.fee_rate:.3f} below floor "
                f"{self.min_fee_rate:.3f}"
            )
        if entry.replacement_key:
            incumbent_hash = self._by_replacement.get(entry.replacement_key)
            if incumbent_hash is not None:
                incumbent = self._entries[incumbent_hash]
                required = incumbent.fee_rate * self.replacement_factor
                if entry.fee_rate < required:
                    obs.counter("mempool.rejected", reason="rbf_bid").inc()
                    raise AdmissionError(
                        "replacement bid too low: "
                        f"{entry.fee_rate:.3f} < required {required:.3f}"
                    )
                self._remove(incumbent_hash)
                obs.counter("mempool.replaced").inc()
                obs.lifecycle().close(
                    incumbent_hash, "dropped", reason="replaced"
                )
        self._entries[entry.tx_hash] = entry
        self._total_weight += entry.weight
        if entry.replacement_key:
            self._by_replacement[entry.replacement_key] = entry.tx_hash
        life = obs.lifecycle()
        if life.enabled and life.trace(entry.tx_hash) is None:
            life.begin(entry.tx_hash, fee=entry.fee, weight=entry.weight)
        self._evict_to_capacity()
        obs.counter("mempool.admitted").inc()
        if obs.enabled():
            obs.gauge("mempool.size").set(len(self._entries))
            obs.gauge("mempool.weight").set(self.total_weight)

    def _remove(self, tx_hash: str) -> PoolEntry[PayloadT] | None:
        entry = self._entries.pop(tx_hash, None)
        if entry is None:
            return None
        self._total_weight -= entry.weight
        if entry.replacement_key:
            if self._by_replacement.get(entry.replacement_key) == tx_hash:
                del self._by_replacement[entry.replacement_key]
        return entry

    def _evict_to_capacity(self) -> list[PoolEntry[PayloadT]]:
        """Drop cheapest entries until under the weight cap.

        Evicted transactions close their lifecycle trace as ``dropped``
        (reason ``evicted``) — without this, capacity pressure would
        leak open traces and the one-trace-per-transaction invariant
        the property tests check would silently erode.
        """
        evicted: list[PoolEntry[PayloadT]] = []
        if self.total_weight <= self.max_weight:
            return evicted
        ordered = sorted(
            self._entries.values(), key=lambda entry: entry.fee_rate
        )
        for entry in ordered:
            if self.total_weight <= self.max_weight:
                break
            self._remove(entry.tx_hash)
            evicted.append(entry)
        if evicted:
            obs.counter("mempool.evicted").inc(len(evicted))
            life = obs.lifecycle()
            for entry in evicted:
                life.close(entry.tx_hash, "dropped", reason="evicted")
        return evicted

    # -- packing --------------------------------------------------------------

    def pack_block(self, weight_budget: int) -> list[PoolEntry[PayloadT]]:
        """Select and remove a block's worth of transactions.

        Greedy by fee rate (ties broken by insertion order), skipping
        entries that no longer fit — the standard miner heuristic.
        Selected entries leave the pool.
        """
        if weight_budget <= 0:
            raise MempoolError("weight_budget must be positive")
        counter = itertools.count()
        heap = [
            (-entry.fee_rate, next(counter), entry)
            for entry in self._entries.values()
        ]
        heapq.heapify(heap)
        selected: list[PoolEntry[PayloadT]] = []
        remaining = weight_budget
        while heap and remaining > 0:
            _neg_rate, _tiebreak, entry = heapq.heappop(heap)
            if entry.weight > remaining:
                continue
            selected.append(entry)
            remaining -= entry.weight
        for entry in selected:
            self._remove(entry.tx_hash)
        self._note_packed(selected)
        return selected

    def _note_packed(self, selected: list[PoolEntry[PayloadT]]) -> None:
        if not obs.enabled():
            return
        obs.counter("mempool.packed_blocks").inc()
        obs.counter("mempool.packed_txs").inc(len(selected))
        obs.gauge("mempool.size").set(len(self._entries))
        obs.gauge("mempool.weight").set(self.total_weight)
        life = obs.lifecycle()
        if life.enabled:
            for entry in selected:
                life.record(
                    entry.tx_hash, "included", fee_rate=entry.fee_rate
                )

    def pack_block_with_dependencies(
        self,
        weight_budget: int,
        *,
        parents: dict[str, set[str]],
    ) -> list[PoolEntry[PayloadT]]:
        """Fee-greedy packing that respects intra-pool dependencies.

        UTXO transactions may spend outputs of other *pending*
        transactions; such a child is only eligible once every pending
        parent has been selected ahead of it (parents already confirmed
        on-chain are simply absent from *parents*).  Selection remains
        greedy by fee rate among currently-eligible entries — the
        simple form of child-pays-for-parent packing.

        Args:
            weight_budget: block capacity.
            parents: tx_hash -> set of parent tx hashes *within the
                pool* that must precede it.
        """
        if weight_budget <= 0:
            raise MempoolError("weight_budget must be positive")
        pending = dict(self._entries)
        selected: list[PoolEntry[PayloadT]] = []
        selected_hashes: set[str] = set()
        remaining = weight_budget
        while True:
            eligible = [
                entry
                for entry in pending.values()
                if entry.weight <= remaining
                and all(
                    parent in selected_hashes or parent not in pending
                    for parent in parents.get(entry.tx_hash, ())
                )
            ]
            if not eligible:
                break
            best = max(
                eligible, key=lambda entry: (entry.fee_rate, entry.tx_hash)
            )
            selected.append(best)
            selected_hashes.add(best.tx_hash)
            remaining -= best.weight
            del pending[best.tx_hash]
        for entry in selected:
            self._remove(entry.tx_hash)
        self._note_packed(selected)
        return selected

    # -- external removal -------------------------------------------------------

    def remove(self, tx_hash: str) -> PoolEntry[PayloadT] | None:
        """Drop *tx_hash* without closing its lifecycle trace.

        The node runtime calls this when a received block confirms a
        transaction this pool still holds — the trace stays open
        because the *proposer's* execution stitching closes it.
        Returns the removed entry, or None when absent.
        """
        return self._remove(tx_hash)

    # -- introspection ----------------------------------------------------------

    def get(self, tx_hash: str) -> PoolEntry[PayloadT] | None:
        """The pending entry for *tx_hash*, or None."""
        return self._entries.get(tx_hash)

    def tx_hashes(self) -> list[str]:
        """Pending transaction hashes in insertion order."""
        return list(self._entries)
