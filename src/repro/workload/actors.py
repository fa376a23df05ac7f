"""Actor populations: who sends blockchain transactions.

The paper's empirical findings all trace back to *who* is transacting:
exchanges receiving deposit fan-in, mining pools paying out and sweeping
rewards, ordinary users making one-off payments, and contracts being
called.  The workload generators draw senders and receivers from an
:class:`ActorPopulation`, whose composition per chain and per era is set
by the profiles.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import overload

from repro.chain.hashing import address_from_seed
from repro.workload.zipf import ZipfSampler


@unique
class ActorKind(Enum):
    USER = "user"
    EXCHANGE = "exchange"
    MINING_POOL = "mining_pool"
    CONTRACT = "contract"


@dataclass(frozen=True)
class Actor:
    """One address-bearing participant."""

    kind: ActorKind
    name: str
    address: str

    @staticmethod
    def create(kind: ActorKind, name: str, *, chain: str) -> "Actor":
        return Actor(
            kind=kind,
            name=name,
            address=address_from_seed(f"{chain}|{kind.value}|{name}"),
        )


class UserSequence(Sequence[Actor]):
    """A chain's user base, addressed by rank and never materialised.

    Behaves as the list ``[Actor.create(USER, f"user{i}", chain=chain)
    for i in range(count)]`` does, but derives each actor when it is
    indexed: a profile names up to half a million users and a generated
    chain touches a few per transaction, so what a build pays for its
    users follows the transactions it makes, not the profile's size.
    """

    def __init__(self, chain: str, count: int) -> None:
        self.chain = chain
        self._ranks = range(count)

    def __len__(self) -> int:
        return len(self._ranks)

    @overload
    def __getitem__(self, index: int) -> Actor: ...
    @overload
    def __getitem__(self, index: slice) -> list[Actor]: ...

    def __getitem__(self, index):
        # The ``range`` normalises negative indexes, resolves slices and
        # raises IndexError as a list would.
        if isinstance(index, slice):
            return [self._derive(rank) for rank in self._ranks[index]]
        return self._derive(self._ranks[index])

    def __iter__(self) -> Iterator[Actor]:
        return map(self._derive, self._ranks)

    def _derive(self, rank: int) -> Actor:
        return Actor.create(ActorKind.USER, f"user{rank}", chain=self.chain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserSequence):
            return NotImplemented
        return (self.chain, self._ranks) == (other.chain, other._ranks)

    def __repr__(self) -> str:
        return (
            f"UserSequence(kind={ActorKind.USER.value!r}, "
            f"chain={self.chain!r}, count={len(self)})"
        )


@dataclass
class ActorPopulation:
    """The actor mix of one chain at one point in its history.

    Receiver sampling is a two-stage mixture: first pick a *kind* by the
    configured shares, then pick an actor of that kind — Zipf within
    users (some users are simply busier), uniform among the few
    exchanges/pools.  This reproduces the observed structure: a small
    hot set (exchanges, pools) plus a long user tail.
    """

    chain: str
    users: Sequence[Actor]
    exchanges: list[Actor]
    pools: list[Actor]
    contracts: list[Actor] = field(default_factory=list)
    user_zipf_exponent: float = 0.8
    #: Zipf ranks over ``users``; the builders draw from this one table.
    user_sampler: ZipfSampler = field(init=False, repr=False)
    _contract_sampler: ZipfSampler | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.users:
            raise ValueError("population needs at least one user")
        self.user_sampler = ZipfSampler.create(
            len(self.users), self.user_zipf_exponent
        )
        if self.contracts:
            # Contract popularity is itself heavy-tailed: a few dominant
            # apps (the paper's ElCoin token handled 73k calls in 3 months).
            self._contract_sampler = ZipfSampler.create(len(self.contracts), 1.0)

    @staticmethod
    def build(
        *,
        chain: str,
        num_users: int,
        num_exchanges: int,
        num_pools: int,
        num_contracts: int = 0,
        user_zipf_exponent: float = 0.8,
    ) -> "ActorPopulation":
        """Create a deterministic population of the given shape."""
        users = UserSequence(chain, num_users)
        exchanges = [
            Actor.create(ActorKind.EXCHANGE, f"exchange{index}", chain=chain)
            for index in range(num_exchanges)
        ]
        pools = [
            Actor.create(ActorKind.MINING_POOL, f"pool{index}", chain=chain)
            for index in range(num_pools)
        ]
        contracts = [
            Actor.create(ActorKind.CONTRACT, f"contract{index}", chain=chain)
            for index in range(num_contracts)
        ]
        return ActorPopulation(
            chain=chain,
            users=users,
            exchanges=exchanges,
            pools=pools,
            contracts=contracts,
            user_zipf_exponent=user_zipf_exponent,
        )

    # -- sampling -----------------------------------------------------------

    def sample_user(self, rng: random.Random) -> Actor:
        """A user, Zipf-weighted toward the busy head."""
        return self.users[self.user_sampler.sample(rng)]

    def sample_uniform_user(self, rng: random.Random) -> Actor:
        """A user chosen uniformly (e.g. a fresh withdrawal target)."""
        return rng.choice(self.users)

    def sample_exchange(self, rng: random.Random) -> Actor:
        if not self.exchanges:
            raise ValueError(f"chain {self.chain} has no exchanges")
        return rng.choice(self.exchanges)

    def sample_contract(self, rng: random.Random) -> Actor:
        if not self.contracts:
            raise ValueError(f"chain {self.chain} has no contracts")
        assert self._contract_sampler is not None
        return self.contracts[self._contract_sampler.sample(rng)]
