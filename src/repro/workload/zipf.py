"""Popularity distributions for workload generation.

Real blockchain traffic is extremely skewed: a handful of exchange and
mining-pool addresses appear in a large share of transactions (the
paper identifies Poloniex and DwarfPool by name in its Fig. 1 examples).
The workload generators model address popularity with truncated Zipf
distributions; this module implements efficient sampling.
"""

from __future__ import annotations

import bisect
import random
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import truediv


@dataclass(frozen=True)
class ZipfSampler:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.

    Precomputes the CDF once, packed as C doubles (8 bytes a rank, not
    a 32-byte Python float each); each draw is a binary search, so
    sampling millions of transactions stays cheap.  The table is a pure
    function of ``(population, exponent)``, which alone decide equality
    and the hash.
    """

    population: int
    exponent: float
    _cdf: array = field(compare=False)

    def __len__(self) -> int:
        return self.population

    @staticmethod
    def create(population: int, exponent: float = 1.0) -> "ZipfSampler":
        """Build a sampler over *population* ranks with Zipf *exponent*.

        ``exponent = 0`` degenerates to the uniform distribution; larger
        exponents concentrate mass on the first ranks.
        """
        if population < 1:
            raise ValueError("population must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
        total = sum(weights)
        # Left-to-right running sum: the floats a ``cumulative += w / total``
        # loop produces (its first step, ``0.0 + x``, is ``x``), stored
        # straight into the array: no list of them is ever built.
        cdf = array("d", accumulate(map(truediv, weights, repeat(total))))
        cdf[-1] = 1.0  # guard against float drift
        return ZipfSampler(population=population, exponent=exponent, _cdf=cdf)

    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""
        return bisect.bisect_left(self._cdf, rng.random())

    def probability_of(self, rank: int) -> float:
        """Probability mass of *rank*."""
        if not 0 <= rank < self.population:
            raise ValueError("rank out of range")
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - previous


def truncated_geometric(
    rng: random.Random, *, mean: float, minimum: int, maximum: int
) -> int:
    """Sample a geometric-like integer in [minimum, maximum] with ~*mean*.

    Used for intra-block spend-chain lengths: mostly short chains with
    an exponential tail, truncated so a chain never exceeds the block.
    """
    if minimum > maximum:
        raise ValueError("minimum exceeds maximum")
    if mean <= minimum:
        return minimum
    # Geometric on the offset above the minimum.
    p = 1.0 / (mean - minimum + 1.0)
    offset = 0
    while rng.random() > p and offset < maximum - minimum:
        offset += 1
    return minimum + offset
