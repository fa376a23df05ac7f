"""Statistical rigour for the measured series: bootstrap intervals.

The paper reports bucketed weighted means without uncertainty; for a
synthetic reproduction, confidence intervals matter twice over — they
say whether a paper-vs-measured gap is meaningful, and whether two
chains' rates genuinely differ.  This module adds:

* :func:`weighted_mean` — the paper's weighting rule in one place;
* :func:`bootstrap_ci` — percentile bootstrap for a weighted mean over
  per-block observations;
* :func:`series_with_ci` — per-bucket intervals for a metric history;
* :func:`difference_ci` — bootstrap CI for the difference of two
  chains' weighted means (e.g. is Bitcoin Cash's conflict rate really
  above Bitcoin's?).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.pipeline import BlockRecord, ChainHistory


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided percentile interval around a point estimate."""

    point: float
    low: float
    high: float
    confidence: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise ValueError("interval bounds out of order")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    @property
    def width(self) -> float:
        return self.high - self.low


def weighted_mean(
    values: Sequence[float], weights: Sequence[float]
) -> float:
    """The paper's weighted average; 0.0 when all weights vanish."""
    if len(values) != len(weights):
        raise ValueError("values and weights must be parallel")
    total = sum(weights)
    if total == 0:
        return 0.0
    return sum(v * w for v, w in zip(values, weights)) / total


def bootstrap_ci(
    values: Sequence[float],
    weights: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 1000,
    rng: random.Random | None = None,
) -> ConfidenceInterval:
    """Percentile bootstrap CI for a weighted mean.

    Blocks are resampled with replacement, pairing each value with its
    weight (the block-level bootstrap appropriate for per-block
    metrics).
    """
    if not values:
        raise ValueError("need at least one observation")
    if resamples < 10:
        raise ValueError("resamples must be at least 10")
    rng = rng or random.Random(0)
    point = weighted_mean(values, weights)
    n = len(values)
    estimates = []
    for _ in range(resamples):
        indices = [rng.randrange(n) for _ in range(n)]
        estimates.append(
            weighted_mean(
                [values[i] for i in indices],
                [weights[i] for i in indices],
            )
        )
    estimates.sort()
    alpha = (1.0 - confidence) / 2.0
    low_index = max(0, int(alpha * resamples))
    high_index = min(resamples - 1, int((1.0 - alpha) * resamples))
    return ConfidenceInterval(
        point=point,
        low=min(estimates[low_index], point),
        high=max(estimates[high_index], point),
        confidence=confidence,
    )


def metric_ci(
    history: ChainHistory,
    metric: Callable[[BlockRecord], float],
    *,
    weight: Callable[[BlockRecord], float] = lambda r: r.weight_tx,
    confidence: float = 0.95,
    resamples: int = 1000,
    rng: random.Random | None = None,
) -> ConfidenceInterval:
    """Bootstrap CI for a per-block metric over a whole history."""
    records = history.non_empty_records()
    if not records:
        raise ValueError("history has no non-empty blocks")
    return bootstrap_ci(
        [metric(r) for r in records],
        [weight(r) for r in records],
        confidence=confidence,
        resamples=resamples,
        rng=rng,
    )


def series_with_ci(
    history: ChainHistory,
    metric: Callable[[BlockRecord], float],
    *,
    num_buckets: int,
    weight: Callable[[BlockRecord], float] = lambda r: r.weight_tx,
    confidence: float = 0.95,
    resamples: int = 400,
    rng: random.Random | None = None,
) -> list[tuple[float, ConfidenceInterval]]:
    """(year, CI) per bucket — the figure series with uncertainty."""
    records = history.non_empty_records()
    if not records:
        raise ValueError("history has no non-empty blocks")
    num_buckets = min(num_buckets, len(records))
    rng = rng or random.Random(0)
    out: list[tuple[float, ConfidenceInterval]] = []
    total = len(records)
    for bucket in range(num_buckets):
        start = bucket * total // num_buckets
        stop = (bucket + 1) * total // num_buckets
        members = records[start:stop]
        if not members:
            continue
        year = sum(history.year_of(r) for r in members) / len(members)
        ci = bootstrap_ci(
            [metric(r) for r in members],
            [weight(r) for r in members],
            confidence=confidence,
            resamples=resamples,
            rng=rng,
        )
        out.append((year, ci))
    return out


def difference_ci(
    left: ChainHistory,
    right: ChainHistory,
    metric: Callable[[BlockRecord], float],
    *,
    confidence: float = 0.95,
    resamples: int = 1000,
    rng: random.Random | None = None,
) -> ConfidenceInterval:
    """Bootstrap CI for (left - right) weighted-mean difference.

    A CI excluding zero certifies an ordering claim like "Bitcoin
    Cash's conflict rate is higher than Bitcoin's" (§IV-C).
    """
    rng = rng or random.Random(0)
    left_records = left.non_empty_records()
    right_records = right.non_empty_records()
    if not left_records or not right_records:
        raise ValueError("both histories need non-empty blocks")

    def resample(records) -> float:
        n = len(records)
        indices = [rng.randrange(n) for _ in range(n)]
        return weighted_mean(
            [metric(records[i]) for i in indices],
            [records[i].weight_tx for i in indices],
        )

    point = weighted_mean(
        [metric(r) for r in left_records],
        [r.weight_tx for r in left_records],
    ) - weighted_mean(
        [metric(r) for r in right_records],
        [r.weight_tx for r in right_records],
    )
    estimates = sorted(
        resample(left_records) - resample(right_records)
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    low_index = max(0, int(alpha * resamples))
    high_index = min(resamples - 1, int((1.0 - alpha) * resamples))
    return ConfidenceInterval(
        point=point,
        low=min(estimates[low_index], point),
        high=max(estimates[high_index], point),
        confidence=confidence,
    )
