"""Deterministic input generators for the benchmark.

Only NumPy and the standard csv module are used here, never araf's own
readers or writers, so no change to araf can alter the inputs it is
measured on. Every generator is a pure function of its seed and shape.
"""

from __future__ import annotations

import csv

import numpy as np

CLASSES = ("c0", "c1", "c2")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([stream, seed]))


def continuous_table(seed: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """n x p reals rounded to 4 decimals and a 3-class label.

    The label depends on the first three columns through a noisy linear
    score, so the entropy discretizer finds real structure; the values are
    rounded so that ties occur as they do in measured data.
    """
    rng = _rng(seed, 1)
    x = np.round(rng.normal(0.0, 1.0, size=(n, p)), 4)
    score = x[:, 0] + 0.8 * x[:, 1] * x[:, 2] + rng.normal(0.0, 0.7, size=n)
    y = np.digitize(score, [-0.5, 0.6])
    return x, y.astype(np.int64)


def write_continuous_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    """Columns f0..f{p-1} with four decimals, then the label column y."""
    cells = np.char.mod("%.4f", x).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f%d" % j for j in range(x.shape[1])] + ["y"])
        for row, label in zip(cells, y.tolist()):
            row.append(CLASSES[label])
            writer.writerow(row)


def categorical_table(
    seed: int, n: int, p: int, min_card: int = 2, max_card: int = 8
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Category codes, per-column cardinalities and a 3-class label.

    Cardinalities lie in [min_card, max_card] and each column has a skewed
    category distribution, so that some items are frequent and others rare.
    Cardinalities and distributions are part of the table's shape and do not
    depend on the seed, so every seed asks for about the same mining work;
    the seed draws the rows and the label noise. The label is a noisy
    function of columns 0-2 (one main effect and one interaction), like the
    s1 generator but over wider columns.
    """
    shape = _rng(0, 3)
    cards = shape.integers(min_card, max_card + 1, size=p)
    probs = [shape.dirichlet(np.full(int(k), 2.0)) for k in cards]
    rng = _rng(seed, 2)
    codes = np.empty((n, p), dtype=np.int64)
    for j, prob in enumerate(probs):
        cdf = np.cumsum(prob)
        cdf[-1] = 1.0
        codes[:, j] = np.searchsorted(cdf, rng.random(n), side="right")
    y = np.where(codes[:, 0] == 0, 0, np.where(codes[:, 1] == codes[:, 2] % cards[1], 2, 1))
    noisy = rng.random(n) < 0.2
    y[noisy] = rng.integers(0, 3, size=int(noisy.sum()))
    return codes, [int(k) for k in cards], y.astype(np.int64)
