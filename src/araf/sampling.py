"""Row subsampling for approximate counting, with a concentration guarantee.

Counting on n' rows drawn independently with replacement estimates every
itemset frequency to within epsilon with high probability: the chance that
two itemsets whose true frequencies differ by epsilon swap order is at most
4 * exp(-n' * epsilon^2 / 2). Inverting that bound gives the sample size
needed for a target failure probability delta.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset, rows_matching
from .errors import UsageError, check_mining_values


def subsample(ds: Dataset, n_prime: int, seed: int = 0) -> Dataset:
    """Draw n_prime rows, i.i.d. uniform with replacement.

    The draw is a pure function of (seed, n, n_prime); the PCG64 generator
    makes it reproducible across platforms.
    """
    check_mining_values(subsample=n_prime)
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, ds.n, size=n_prime)
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
    ds: Dataset, antecedents, n_prime: int, seed: int = 0
) -> dict[tuple, float]:
    """Estimated occurrence fraction of each antecedent on one subsample.

    Antecedents here are plain tuples of (feature, category) items (no
    class); the estimate is the fraction of sampled rows matching all items.
    """
    sub = subsample(ds, n_prime, seed)
    out = {}
    for ant in antecedents:
        out[ant] = float(rows_matching(sub, ant).sum()) / sub.n
    return out
