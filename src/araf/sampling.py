"""Row subsampling for approximate counting, with a concentration guarantee.

Counting on n' rows drawn independently with replacement estimates every
itemset frequency to within epsilon with high probability: the chance that
two itemsets whose true frequencies differ by epsilon swap order is at most
4 * exp(-n' * epsilon^2 / 2). Inverting that bound gives the sample size
needed for a target failure probability delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import UsageError
from .mining import Antecedent


@dataclass(frozen=True)
class SubsampleConfig:
    """Size and seed of one draw; sampling is uniform over rows."""

    n_prime: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_prime < 1:
            raise UsageError("subsample size must be >= 1")


def subsample(ds: Dataset, config: SubsampleConfig) -> Dataset:
    """Draw config.n_prime rows, i.i.d. uniform with replacement.

    The draw is a pure function of (seed, n, n_prime); the PCG64 generator
    makes it reproducible across platforms.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    idx = rng.integers(0, ds.n, size=config.n_prime)
    cols = tuple(col[idx] for col in ds.columns)
    return Dataset(ds.schema, cols, ds.labels[idx])


def required_sample_size(epsilon: float, delta: float) -> int:
    """Smallest n' with 4 * exp(-n' * epsilon^2 / 2) <= delta."""
    if not 0 < epsilon < 1:
        raise UsageError("epsilon must lie in (0, 1)")
    if not 0 < delta < 1:
        raise UsageError("delta must lie in (0, 1)")
    return math.ceil(2.0 * math.log(4.0 / delta) / (epsilon * epsilon))


def estimate_frequencies(
    ds: Dataset, antecedents, config: SubsampleConfig
) -> dict[Antecedent, float]:
    """Estimated occurrence fraction of each antecedent on one subsample.

    Antecedents here are plain item tuples (no class); the estimate is the
    fraction of sampled rows matching all items.
    """
    sub = subsample(ds, config)
    out: dict[Antecedent, float] = {}
    for ant in antecedents:
        mask = np.ones(sub.n, dtype=bool)
        for f, c in ant:
            mask &= sub.columns[f] == c
        out[ant] = float(mask.sum()) / sub.n
    return out
