"""Discrete-event P2P gossip simulation for block propagation.

Block propagation delay is the physical quantity behind two of the
paper's background facts: PoW chains keep block intervals long relative
to propagation (else orphan rates explode), and execution time adds
directly to propagation because a node validates (executes!) a block
before relaying it.  That last coupling is the systems-level reason the
paper's execution speed-ups matter beyond a single machine: cutting
validation time R-fold cuts the relay delay at every hop.

The simulator is a classic event-queue design: nodes connected by
latency-weighted links flood-relay a block after a per-node validation
delay.  :meth:`GossipNetwork.propagate` floods one block,
:meth:`PropagationResult.coverage_time` reads how long it took to reach
a given coverage fraction, and :func:`orphan_rate_estimate`
converts propagation delay and block interval into the probability of
simultaneous competing blocks (the orphan/uncle rate).
"""

from __future__ import annotations

import heapq
import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs

DEFAULT_SEEN_CAPACITY = 65_536


class BoundedSeenCache:
    """An LRU-bounded "have I seen this id?" set for relay dedup.

    A long-running gossip daemon cannot keep every tx/block hash it has
    ever relayed — that set grows O(all ids ever seen) and is exactly
    the kind of slow leak a soak test catches a week too late.  This
    cache keeps the most-recently-touched *capacity* ids and evicts the
    least recently seen, bumping an eviction counter metric so the
    operator can see dedup memory pressure (an evicted id that comes
    back is re-relayed once — wasteful but safe, since receivers dedup
    too).

    ``add`` returns True for a **new** id (relay it) and False for a
    duplicate (drop it), refreshing recency either way.
    """

    def __init__(self, capacity: int = DEFAULT_SEEN_CAPACITY, *,
                 metric: str = "gossip.seen_evicted") -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._metric = metric
        self._entries: OrderedDict[str, None] = OrderedDict()
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def evictions(self) -> int:
        return self._evictions

    def add(self, key: str) -> bool:
        """Mark *key* seen; True when it was new, False on a duplicate."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return False
        entries[key] = None
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self._evictions += 1
            if obs.enabled():
                obs.counter(self._metric).inc()
        return True

    def clear(self) -> None:
        self._entries.clear()


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of flooding one block through the network.

    Attributes:
        arrival_times: node id -> first-arrival time (seconds); the
            origin has time 0.0.  Unreached nodes are absent.
        validation_delay: the per-node validation time used.
    """

    arrival_times: dict[str, float]
    validation_delay: float

    def coverage_time(self, fraction: float) -> float:
        """Time until *fraction* of reached nodes have the block."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        times = sorted(self.arrival_times.values())
        index = max(0, math.ceil(fraction * len(times)) - 1)
        return times[index]

    @property
    def reached(self) -> int:
        return len(self.arrival_times)


@dataclass
class GossipNetwork:
    """A static peer-to-peer topology with latency-weighted links.

    ``seen_capacity`` bounds the relay dedup memory: block ids passed
    to :meth:`propagate` are remembered in a :class:`BoundedSeenCache`
    (LRU, eviction-counted) instead of an ever-growing set, so a
    daemon flooding blocks forever stays O(capacity).
    """

    rng: random.Random = field(default_factory=random.Random)
    seen_capacity: int = DEFAULT_SEEN_CAPACITY
    _peers: dict[str, dict[str, float]] = field(default_factory=dict)
    _seen: BoundedSeenCache | None = field(default=None, repr=False)

    def seen_cache(self) -> BoundedSeenCache:
        """The relay dedup cache (created lazily)."""
        if self._seen is None:
            self._seen = BoundedSeenCache(self.seen_capacity)
        return self._seen

    def add_node(self, node_id: str) -> None:
        self._peers.setdefault(node_id, {})

    def connect(self, a: str, b: str, latency: float) -> None:
        """Create a bidirectional link with one-way *latency* seconds."""
        if latency <= 0:
            raise ValueError("latency must be positive")
        if a == b:
            raise ValueError("no self-links")
        self.add_node(a)
        self.add_node(b)
        self._peers[a][b] = latency
        self._peers[b][a] = latency

    def __len__(self) -> int:
        return len(self._peers)

    def degree(self, node_id: str) -> int:
        return len(self._peers.get(node_id, {}))

    @staticmethod
    def random_topology(
        num_nodes: int,
        *,
        degree: int = 8,
        latency_mean: float = 0.05,
        rng: random.Random | None = None,
    ) -> "GossipNetwork":
        """A connected random regular-ish topology.

        A ring guarantees connectivity; random chords bring the mean
        degree up to *degree*, mirroring real overlay networks.
        """
        if num_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if degree < 2:
            raise ValueError("degree must be at least 2")
        rng = rng or random.Random(0)
        network = GossipNetwork(rng=rng)
        ids = [f"n{i}" for i in range(num_nodes)]
        for index, node in enumerate(ids):
            neighbour = ids[(index + 1) % num_nodes]
            network.connect(
                node, neighbour, rng.expovariate(1.0 / latency_mean)
            )
        chords_needed = max(0, num_nodes * (degree - 2) // 2)
        attempts = 0
        while chords_needed > 0 and attempts < 50 * num_nodes:
            attempts += 1
            a, b = rng.sample(ids, 2)
            if b in network._peers[a]:
                continue
            network.connect(a, b, rng.expovariate(1.0 / latency_mean))
            chords_needed -= 1
        return network

    # -- propagation --------------------------------------------------------

    def propagate(
        self,
        origin: str,
        *,
        validation_delay: float = 0.0,
        block_id: str | None = None,
    ) -> PropagationResult | None:
        """Flood a block from *origin*; returns first-arrival times.

        With a *block_id*, the network dedups the flood through its
        bounded seen-cache: a repeated id is dropped (counted under
        ``gossip.duplicate_drops``) and the call returns ``None``
        instead of re-flooding — the push-relay contract a long-running
        daemon needs.  Without one, every call floods (the historical
        one-shot behaviour).

        A node relays only after validating (``validation_delay``), so
        total delay along a path is sum(link latencies) plus one
        validation per intermediate hop — which is how execution cost
        multiplies across the network.
        """
        if origin not in self._peers:
            raise KeyError(f"unknown node {origin!r}")
        if validation_delay < 0:
            raise ValueError("validation_delay must be non-negative")
        if block_id is not None and not self.seen_cache().add(block_id):
            if obs.enabled():
                obs.counter("gossip.duplicate_drops").inc()
            return None
        arrival: dict[str, float] = {}
        hops_of: dict[str, int] = {}
        messages = 0
        queue: list[tuple[float, str, int]] = [(0.0, origin, 0)]
        while queue:
            time, node, hops = heapq.heappop(queue)
            if node in arrival:
                continue
            arrival[node] = time
            hops_of[node] = hops
            relay_at = (
                time if node == origin else time + validation_delay
            )
            for peer, latency in self._peers[node].items():
                if peer not in arrival:
                    messages += 1
                    heapq.heappush(
                        queue, (relay_at + latency, peer, hops + 1)
                    )
        if obs.enabled():
            obs.counter("gossip.propagations").inc()
            obs.counter("gossip.messages").inc(messages)
            obs.counter("gossip.nodes_reached").inc(len(arrival))
            hop_hist = obs.histogram("gossip.hops")
            for hops in hops_of.values():
                hop_hist.observe(hops)
        return PropagationResult(
            arrival_times=arrival, validation_delay=validation_delay
        )


def orphan_rate_estimate(
    propagation_delay: float, block_interval: float
) -> float:
    """Probability a competing block is found during propagation.

    Block discovery is Poisson with rate 1/interval; a fork arises when
    another block appears within the propagation window:
    ``1 - exp(-delay / interval)`` — the standard first-order model.
    Faster validation (execution!) shrinks ``delay`` and with it the
    orphan rate, the network-level benefit of the paper's speed-ups.
    """
    if propagation_delay < 0:
        raise ValueError("propagation_delay must be non-negative")
    if block_interval <= 0:
        raise ValueError("block_interval must be positive")
    return 1.0 - math.exp(-propagation_delay / block_interval)
