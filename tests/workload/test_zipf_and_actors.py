"""Tests for popularity sampling and actor populations."""

from __future__ import annotations

import bisect
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.actors import Actor, ActorKind, ActorPopulation
from repro.workload.profiles import ALL_PROFILES
from repro.workload.zipf import ZipfSampler, truncated_geometric


def _reference_cdf(population: int, exponent: float) -> tuple[float, ...]:
    """The CDF loop ``ZipfSampler.create`` had before it was tightened."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
    total = sum(weights)
    cumulative = 0.0
    cdf = []
    for weight in weights:
        cumulative += weight / total
        cdf.append(cumulative)
    cdf[-1] = 1.0
    return tuple(cdf)


# Every profile's user table: (its largest era's user count, exponent).
PROFILE_TABLES = sorted(
    {
        (max(era.num_users for era in profile.eras),
         profile.user_zipf_exponent)
        for profile in ALL_PROFILES
    }
)


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler.create(100, 1.0)
        total = sum(sampler.probability_of(rank) for rank in range(100))
        assert total == pytest.approx(1.0)

    def test_head_is_heavier_than_tail(self):
        sampler = ZipfSampler.create(100, 1.0)
        assert sampler.probability_of(0) > sampler.probability_of(99) * 10

    def test_zero_exponent_is_uniform(self):
        sampler = ZipfSampler.create(10, 0.0)
        for rank in range(10):
            assert sampler.probability_of(rank) == pytest.approx(0.1)

    def test_samples_within_range(self):
        sampler = ZipfSampler.create(50, 1.2)
        rng = random.Random(1)
        ranks = [sampler.sample(rng) for _ in range(1000)]
        assert all(0 <= rank < 50 for rank in ranks)

    def test_empirical_skew(self):
        sampler = ZipfSampler.create(1000, 1.5)
        rng = random.Random(2)
        counts = Counter(sampler.sample(rng) for _ in range(5000))
        assert counts[0] > counts.get(500, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler.create(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler.create(10, -1.0)
        sampler = ZipfSampler.create(5, 1.0)
        with pytest.raises(ValueError):
            sampler.probability_of(5)

    @pytest.mark.parametrize("population, exponent", PROFILE_TABLES)
    def test_cdf_is_the_reference_loop_bit_for_bit(self, population, exponent):
        """Every profile's user table equals the two-pass loop it replaced.

        Generated chains are pinned byte for byte, and one differing
        float moves a sampled rank.
        """
        sampler = ZipfSampler.create(population, exponent)
        assert tuple(sampler._cdf) == _reference_cdf(population, exponent)

    @pytest.mark.parametrize("population, exponent", PROFILE_TABLES)
    def test_draws_are_bisect_over_the_reference(self, population, exponent):
        """10 k seeded draws land where ``bisect`` over the reference
        tuple puts the same random numbers."""
        reference = _reference_cdf(population, exponent)
        sampler = ZipfSampler.create(population, exponent)
        draws_rng = random.Random(population)
        draws = [sampler.sample(draws_rng) for _ in range(10_000)]
        rng = random.Random(population)
        assert draws == [
            bisect.bisect_left(reference, rng.random()) for _ in range(10_000)
        ]

    def test_table_is_packed_doubles(self):
        cdf = ZipfSampler.create(1000, 0.8)._cdf
        assert isinstance(cdf, array)
        assert cdf.typecode == "d"
        assert len(cdf) == 1000

    def test_equality_and_hash_read_only_population_and_exponent(self):
        """The table is a pure function of ``(population, exponent)``:
        it takes no part in ``==`` or ``hash`` (an array is unhashable)."""
        sampler = ZipfSampler.create(100, 0.8)
        assert sampler == ZipfSampler.create(100, 0.8)
        assert hash(sampler) == hash(ZipfSampler.create(100, 0.8))
        assert hash(sampler) == hash(ZipfSampler(100, 0.8, array("d")))
        assert sampler == ZipfSampler(100, 0.8, array("d"))
        assert sampler != ZipfSampler.create(101, 0.8)
        assert sampler != ZipfSampler.create(100, 0.9)

    @given(
        population=st.integers(min_value=1, max_value=200),
        exponent=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=100)
    def test_cdf_is_the_reference_loop_on_small_tables(
        self, population, exponent
    ):
        sampler = ZipfSampler.create(population, exponent)
        assert tuple(sampler._cdf) == _reference_cdf(population, exponent)

    @given(
        population=st.integers(min_value=1, max_value=200),
        exponent=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_sample_always_in_range(self, population, exponent, seed):
        sampler = ZipfSampler.create(population, exponent)
        rank = sampler.sample(random.Random(seed))
        assert 0 <= rank < population


class TestTruncatedGeometric:
    def test_bounds_respected(self):
        rng = random.Random(3)
        for _ in range(200):
            value = truncated_geometric(rng, mean=5.0, minimum=2, maximum=9)
            assert 2 <= value <= 9

    def test_mean_below_minimum_returns_minimum(self):
        rng = random.Random(0)
        assert truncated_geometric(rng, mean=1.0, minimum=3, maximum=10) == 3

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            truncated_geometric(random.Random(0), mean=5, minimum=9, maximum=2)

    def test_mean_roughly_tracks_target(self):
        rng = random.Random(4)
        samples = [
            truncated_geometric(rng, mean=6.0, minimum=3, maximum=40)
            for _ in range(3000)
        ]
        assert 4.5 < sum(samples) / len(samples) < 7.5


class TestActorPopulation:
    def _population(self):
        return ActorPopulation.build(
            chain="testchain",
            num_users=100,
            num_exchanges=3,
            num_pools=2,
            num_contracts=4,
        )

    def test_build_shapes(self):
        population = self._population()
        assert len(population.users) == 100
        assert len(population.exchanges) == 3
        assert len(population.pools) == 2
        assert len(population.contracts) == 4

    def test_addresses_unique(self):
        population = self._population()
        actors = [
            *population.users, *population.exchanges,
            *population.pools, *population.contracts,
        ]
        addresses = [actor.address for actor in actors]
        assert len(addresses) == 109
        assert len(addresses) == len(set(addresses))

    def test_addresses_deterministic_per_chain(self):
        a = self._population()
        b = self._population()
        assert a.users[0].address == b.users[0].address
        other = ActorPopulation.build(
            chain="otherchain", num_users=1, num_exchanges=1, num_pools=1
        )
        assert other.users[0].address != a.users[0].address

    def test_sampling_kinds(self):
        population = self._population()
        rng = random.Random(5)
        assert population.sample_user(rng).kind is ActorKind.USER
        assert population.sample_exchange(rng).kind is ActorKind.EXCHANGE
        assert population.sample_contract(rng).kind is ActorKind.CONTRACT

    def test_user_sampling_is_zipf_skewed(self):
        population = self._population()
        rng = random.Random(6)
        counts = Counter(
            population.sample_user(rng).name for _ in range(3000)
        )
        assert counts["user0"] > counts.get("user99", 0)

    def test_empty_exchange_list_raises(self):
        population = ActorPopulation.build(
            chain="x", num_users=1, num_exchanges=0, num_pools=0
        )
        with pytest.raises(ValueError):
            population.sample_exchange(random.Random(0))

    def test_actor_create_kind_in_address_seed(self):
        user = Actor.create(ActorKind.USER, "n", chain="c")
        pool = Actor.create(ActorKind.MINING_POOL, "n", chain="c")
        assert user.address != pool.address
