"""The Verifier's Dilemma — the paper's third motivation (§II-C).

"The cost of transaction execution negatively affects the security of
public blockchains ... a rational node has considerable incentive to
skip the transaction execution, and to spend all of its resources on
consensus.  But without a large number of nodes executing the same
transactions, the overall security becomes lower ... reducing the cost
of transaction execution helps to strengthen security."

This module makes that argument quantitative with a simple rational-
miner model (in the spirit of Luu et al., the paper's ref. [13]):

* a miner splits one unit of resource between mining and verification;
* verifying a block costs ``verification_time / block_interval`` of the
  mining budget — exactly the fraction execution speed-ups shrink;
* skipping verification risks building on an invalid block: with
  probability ``invalid_rate`` the head is invalid and the skipper's
  reward is lost (plus a penalty when fraud proofs exist).

:func:`verification_equilibrium` computes the fraction of rational
hashpower that verifies at equilibrium, and
:func:`security_gain_from_speedup` maps an execution speed-up R (from
the paper's Eq. 1/Eq. 2 models) to the change in that fraction —
closing the loop from concurrency to security.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VerifierParams:
    """Parameters of the rational-verification game.

    Attributes:
        execution_time: seconds to execute/verify one block's
            transactions (sequentially, before any speed-up).
        block_interval: seconds between blocks.
        invalid_rate: probability a freshly received block is invalid
            when nobody verifies (attacker pressure).
        penalty: extra loss (in block rewards) for mining on an invalid
            block, e.g. through fraud proofs or reorg depth.
        reward: block reward (normalised to 1 by default).
    """

    execution_time: float
    block_interval: float
    invalid_rate: float = 0.01
    penalty: float = 0.0
    reward: float = 1.0

    def __post_init__(self) -> None:
        if self.execution_time < 0:
            raise ValueError("execution_time must be non-negative")
        if self.block_interval <= 0:
            raise ValueError("block_interval must be positive")
        if not 0.0 <= self.invalid_rate <= 1.0:
            raise ValueError("invalid_rate must be a probability")
        if self.penalty < 0 or self.reward <= 0:
            raise ValueError("penalty >= 0 and reward > 0 required")

    @property
    def verification_cost_share(self) -> float:
        """Fraction of the mining budget verification consumes."""
        return min(1.0, self.execution_time / self.block_interval)

    def with_speedup(self, speedup: float) -> "VerifierParams":
        """The same game after an execution speed-up of R."""
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        return VerifierParams(
            execution_time=self.execution_time / speedup,
            block_interval=self.block_interval,
            invalid_rate=self.invalid_rate,
            penalty=self.penalty,
            reward=self.reward,
        )


def expected_reward_verifier(params: VerifierParams) -> float:
    """Expected reward rate of a verifying miner (per block period).

    Verifiers lose ``verification_cost_share`` of their mining power
    but never build on invalid blocks.
    """
    return params.reward * (1.0 - params.verification_cost_share)


def expected_reward_skipper(
    params: VerifierParams, verifying_fraction: float
) -> float:
    """Expected reward rate of a verification-skipping miner.

    Skippers mine at full power, but when the network's verifying
    fraction is low, invalid blocks survive long enough to be built on:
    the probability of wasting work on an invalid parent scales with
    ``invalid_rate * (1 - verifying_fraction)``.
    """
    if not 0.0 <= verifying_fraction <= 1.0:
        raise ValueError("verifying_fraction must be a probability")
    exposure = params.invalid_rate * (1.0 - verifying_fraction)
    return params.reward * (1.0 - exposure) - params.penalty * exposure


def verification_equilibrium(params: VerifierParams) -> float:
    """Equilibrium fraction of rational hashpower that verifies.

    The game has the usual free-rider structure: verification is more
    attractive when few others verify (invalid blocks abound) and less
    attractive when many do.  The interior equilibrium equates the two
    expected rewards:

        1 - cost = 1 - e + penalty-terms,  e = invalid_rate * (1 - v)

    Solving for v and clamping to [0, 1]: a cheap-to-verify chain
    (small cost share) supports a high verifying fraction; an expensive
    one drives v to 0 — the Verifier's Dilemma.
    """
    cost = params.verification_cost_share
    pressure = params.invalid_rate * (1.0 + params.penalty / params.reward)
    if pressure <= 0:
        return 0.0 if cost > 0 else 1.0
    # cost == exposure at equilibrium: cost = pressure * (1 - v).
    v = 1.0 - cost / pressure
    return min(1.0, max(0.0, v))


@dataclass(frozen=True)
class SecurityGain:
    """Before/after comparison of the verification equilibrium."""

    speedup: float
    baseline_fraction: float
    improved_fraction: float


def security_gain_from_speedup(
    params: VerifierParams, speedup: float
) -> SecurityGain:
    """How much an execution speed-up R raises the verifying fraction.

    This is the §II-C chain of reasoning made computable: the paper's
    Eq. 1/Eq. 2 speed-ups shrink the verification cost share by R,
    which raises the equilibrium verifying fraction, which lowers the
    survival probability of invalid blocks.
    """
    baseline = verification_equilibrium(params)
    improved = verification_equilibrium(params.with_speedup(speedup))
    return SecurityGain(
        speedup=speedup,
        baseline_fraction=baseline,
        improved_fraction=improved,
    )


def invalid_block_survival(
    params: VerifierParams, verifying_fraction: float
) -> float:
    """Probability an invalid block is extended by the next miner."""
    if not 0.0 <= verifying_fraction <= 1.0:
        raise ValueError("verifying_fraction must be a probability")
    return (1.0 - verifying_fraction) * params.invalid_rate
