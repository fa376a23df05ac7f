"""PBFT committee consensus model.

Zilliqa runs "a variant of PBFT to ensure security at local committees"
(§II-B).  For a concurrency study the interesting quantities are round
latency and message complexity as a function of committee size — the
reason the execution layer's share of block time *grows* as committees
shrink (§II-C, the paper's first motivation).  This module models a
PBFT round at that level: pre-prepare, prepare and commit phases with
quorum counting and optional faulty replicas, returning latency and
message counts rather than exchanging real network messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs


@dataclass(frozen=True)
class PBFTRoundResult:
    """Outcome of one PBFT consensus round."""

    committed: bool
    latency: float
    messages_sent: int
    prepare_votes: int
    commit_votes: int
    view_changes: int


@dataclass
class PBFTCommittee:
    """A PBFT committee of ``n = 3f + 1``-style replicas.

    Args:
        size: number of replicas.
        faulty: number of Byzantine/crashed replicas (do not vote).
        link_latency_mean: mean one-way message delay in seconds.
        per_message_cost: CPU/bandwidth cost per message processed; this
            is what makes large committees slow (quadratic messages),
            the scaling failure §II-A attributes to classic consensus.
        rng: injectable random source for determinism.
    """

    size: int
    faulty: int = 0
    link_latency_mean: float = 0.01
    per_message_cost: float = 2e-5
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.size < 4:
            raise ValueError("PBFT needs at least 4 replicas")
        if self.faulty < 0 or self.faulty >= self.size:
            raise ValueError("faulty count out of range")
        if self.link_latency_mean <= 0:
            raise ValueError("link latency must be positive")

    @property
    def quorum(self) -> int:
        """Votes needed per phase: 2f + 1 with f = floor((n-1)/3)."""
        f = (self.size - 1) // 3
        return 2 * f + 1

    @property
    def tolerates(self) -> int:
        """Maximum Byzantine replicas the committee provably tolerates."""
        return (self.size - 1) // 3

    def _phase_latency(self, voters: int) -> float:
        """Latency of one all-to-all phase: the quorum-th slowest link."""
        delays = sorted(
            self.rng.expovariate(1.0 / self.link_latency_mean)
            for _ in range(voters)
        )
        index = min(self.quorum, voters) - 1
        return delays[index]

    def run_round(self) -> PBFTRoundResult:
        """Execute one pre-prepare / prepare / commit round.

        The round commits when honest replicas reach the quorum in both
        voting phases; otherwise a view change is counted and the round
        retries under the next primary (up to f+1 attempts).
        """
        result = self._run_round()
        if obs.enabled():
            outcome = "committed" if result.committed else "failed"
            obs.counter("consensus.pbft.rounds", outcome=outcome).inc()
            obs.counter("consensus.pbft.messages").inc(
                result.messages_sent
            )
            if result.view_changes:
                obs.counter("consensus.pbft.view_changes").inc(
                    result.view_changes
                )
            obs.histogram("consensus.pbft.latency").observe(
                result.latency
            )
        return result

    def _run_round(self) -> PBFTRoundResult:
        honest = self.size - self.faulty
        view_changes = 0
        total_messages = 0
        total_latency = 0.0
        max_attempts = self.tolerates + 1
        for attempt in range(max_attempts):
            # Pre-prepare: primary broadcasts to all.
            total_messages += self.size - 1
            total_latency += self.rng.expovariate(1.0 / self.link_latency_mean)
            primary_is_faulty = attempt < self.faulty and self.faulty > 0
            if primary_is_faulty:
                view_changes += 1
                # View change: all-to-all among honest replicas.
                total_messages += honest * (honest - 1)
                total_latency += self._phase_latency(honest)
                continue
            # Prepare and commit: all-to-all among honest replicas.
            prepare_votes = honest
            commit_votes = honest
            total_messages += 2 * honest * (honest - 1)
            total_latency += self._phase_latency(honest)
            total_latency += self._phase_latency(honest)
            total_latency += total_messages * self.per_message_cost
            committed = (
                prepare_votes >= self.quorum and commit_votes >= self.quorum
            )
            return PBFTRoundResult(
                committed=committed,
                latency=total_latency,
                messages_sent=total_messages,
                prepare_votes=prepare_votes,
                commit_votes=commit_votes,
                view_changes=view_changes,
            )
        total_latency += total_messages * self.per_message_cost
        return PBFTRoundResult(
            committed=False,
            latency=total_latency,
            messages_sent=total_messages,
            prepare_votes=0,
            commit_votes=0,
            view_changes=view_changes,
        )

    def expected_messages_per_round(self) -> int:
        """Closed-form fault-free message count: (n-1) + 2n(n-1).

        The quadratic term is why "classic distributed consensus
        protocols ... do not scale well to large networks" (§II-A) and
        why sharding keeps committees small — which in turn is why the
        execution layer matters (§II-C).
        """
        n = self.size
        return (n - 1) + 2 * n * (n - 1)


def consensus_vs_execution_share(
    *,
    committee_size: int,
    execution_time: float,
    link_latency_mean: float = 0.01,
    rounds: int = 10,
    rng: random.Random | None = None,
) -> float:
    """Fraction of block time spent on execution for a committee size.

    Reproduces the paper's §II-C observation qualitatively: for small
    committees the execution share is large (e.g. 250 ms execution vs.
    20 ms consensus at 7 nodes).
    """
    committee = PBFTCommittee(
        size=committee_size,
        link_latency_mean=link_latency_mean,
        rng=rng or random.Random(0),
    )
    latencies = [committee.run_round().latency for _ in range(rounds)]
    consensus_time = sum(latencies) / len(latencies)
    return execution_time / (execution_time + consensus_time)
