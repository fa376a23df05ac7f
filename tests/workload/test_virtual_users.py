"""The user base is addressed by rank, never materialised.

``ActorPopulation.users`` derives an actor when it is indexed.  These
tests pin the two halves of that contract: the sequence is
observationally the eager list it replaced (same actors, same
``random`` draws), and what a chain build derives follows the
transactions it generates, not the size of the profile's user base.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import actors
from repro.workload.account_workload import AccountWorkloadBuilder
from repro.workload.actors import Actor, ActorKind, ActorPopulation, UserSequence
from repro.workload.profiles import BITCOIN, ETHEREUM
from repro.workload.utxo_workload import FANOUT_WIDTH, UTXOWorkloadBuilder

chains = st.text(alphabet="abcdefghij-_|0123456789", min_size=1, max_size=12)


def _eager_users(chain: str, count: int) -> list[Actor]:
    """The list ``ActorPopulation.build`` materialised before."""
    return [
        Actor.create(ActorKind.USER, f"user{index}", chain=chain)
        for index in range(count)
    ]


class TestObservationallyAList:
    @given(chain=chains, count=st.integers(1, 10**7), data=st.data())
    @settings(max_examples=200)
    def test_index_derives_the_eager_actor(self, chain, count, data):
        users = UserSequence(chain, count)
        index = data.draw(st.integers(0, count - 1))
        expected = Actor.create(ActorKind.USER, f"user{index}", chain=chain)
        assert users[index] == expected
        assert users[index - count] == expected
        assert users[-1] == users[count - 1]
        assert len(users) == count

    @given(chain=chains, count=st.integers(0, 10**7), data=st.data())
    @settings(max_examples=100)
    def test_index_error_outside_the_range(self, chain, count, data):
        users = UserSequence(chain, count)
        beyond = data.draw(
            st.one_of(st.integers(count, 2 * count + 5),
                      st.integers(-2 * count - 5, -count - 1))
        )
        with pytest.raises(IndexError):
            users[beyond]

    @given(
        chain=chains,
        count=st.integers(0, 40),
        bounds=st.tuples(*[st.none() | st.integers(-50, 50)] * 2),
        step=st.none() | st.integers(-5, 5).filter(bool),
    )
    @settings(max_examples=200)
    def test_small_counts_agree_with_the_eager_list(
        self, chain, count, bounds, step
    ):
        users = UserSequence(chain, count)
        eager = _eager_users(chain, count)
        window = slice(*bounds, step)
        assert list(users) == eager
        assert users[window] == eager[window]
        assert list(reversed(users)) == eager[::-1]
        assert bool(users) == bool(eager)
        if eager:
            assert eager[count // 2] in users
            assert users.index(eager[-1]) == count - 1

    @given(chain=chains, count=st.integers(1, 3000), seed=st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_sampling_draws_what_a_list_draws(self, chain, count, seed):
        """Same actor out, same generator state left behind."""
        virtual = ActorPopulation.build(
            chain=chain, num_users=count, num_exchanges=1, num_pools=1
        )
        eager = ActorPopulation(
            chain=chain,
            users=_eager_users(chain, count),
            exchanges=virtual.exchanges,
            pools=virtual.pools,
        )
        draws = (
            lambda population, rng: rng.choice(population.users),
            ActorPopulation.sample_user,
            ActorPopulation.sample_uniform_user,
        )
        for draw in draws:
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert draw(virtual, ours) == draw(eager, theirs)
            assert ours.getstate() == theirs.getstate()

    def test_equal_when_chain_and_count_are(self):
        assert UserSequence("c", 5) == UserSequence("c", 5)
        assert UserSequence("c", 5) != UserSequence("c", 6)
        assert UserSequence("c", 5) != UserSequence("d", 5)
        assert ActorPopulation.build(
            chain="c", num_users=5, num_exchanges=1, num_pools=1
        ) == ActorPopulation.build(
            chain="c", num_users=5, num_exchanges=1, num_pools=1
        )

    def test_a_population_still_needs_a_user(self):
        for count in (0, -1):
            assert len(UserSequence("c", count)) == 0
            with pytest.raises(ValueError):
                ActorPopulation.build(
                    chain="c", num_users=count, num_exchanges=1, num_pools=1
                )


@pytest.fixture
def derivations(monkeypatch):
    """Counts ``address_from_seed`` calls made by ``repro.workload.actors``."""
    calls = []
    derive = actors.address_from_seed

    def counting(seed: str) -> str:
        calls.append(seed)
        return derive(seed)

    monkeypatch.setattr(actors, "address_from_seed", counting)
    return calls


def _ten_times_the_users(profile):
    return replace(
        profile,
        eras=tuple(
            replace(era, num_users=era.num_users * 10) for era in profile.eras
        ),
    )


def _build(profile, seed=11):
    """A 3-block chain: (transactions, what identifies the chain)."""
    if profile.data_model == "utxo":
        builder = UTXOWorkloadBuilder(profile=profile, seed=seed)
    else:
        builder = AccountWorkloadBuilder(profile=profile, seed=seed)
    ledger = builder.build_chain(3)
    transactions = sum(len(block.transactions) for block in ledger)
    identity = [
        (block.block_hash, [tx.tx_hash for tx in block.transactions])
        for block in ledger
    ]
    if profile.data_model == "account":
        identity.append(builder.executed_blocks)
    return transactions, identity


class TestCostFollowsTransactions:
    # No transaction names more users than a fan-out's outputs (and a
    # chain's first blocks are mostly fan-outs); an account transaction
    # names a sender, a receiver and at most one redrawn receiver, on
    # top of the contracts and exchanges a builder derives once.  At
    # the parent commit a 3-block Bitcoin chain derived 500,009
    # addresses for 29 transactions, an Ethereum one 260,409 for 345.
    @pytest.mark.parametrize(
        "profile, per_transaction",
        [(BITCOIN, FANOUT_WIDTH), (ETHEREUM, 4)],
        ids=["bitcoin", "ethereum"],
    )
    def test_derivations_bounded_by_transactions(
        self, profile, per_transaction, derivations
    ):
        transactions, _ = _build(profile)
        derived = len(derivations)
        assert derived <= per_transaction * transactions

        del derivations[:]
        transactions, _ = _build(_ten_times_the_users(profile))
        assert len(derivations) <= per_transaction * transactions
        # Not merely under the bound: ten times the users, the same cost.
        assert len(derivations) <= 1.5 * derived

    @pytest.mark.parametrize(
        "builder_cls, profile",
        [(UTXOWorkloadBuilder, BITCOIN), (AccountWorkloadBuilder, ETHEREUM)],
        ids=["bitcoin", "ethereum"],
    )
    def test_repr_of_a_builder_derives_nothing(
        self, builder_cls, profile, derivations
    ):
        builder = builder_cls(profile=profile, seed=1)
        del derivations[:]
        text = repr(builder)
        assert derivations == []
        users = builder.population.users
        assert repr(users) in text
        assert repr(users) == (
            f"UserSequence(kind='user', chain={profile.name!r}, "
            f"count={len(users)})"
        )

    @pytest.mark.parametrize("profile", [BITCOIN, ETHEREUM], ids=lambda p: p.name)
    def test_two_builds_with_one_seed_are_the_same_chain(self, profile):
        assert _build(profile)[1] == _build(profile)[1]
