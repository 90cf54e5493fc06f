"""Synthetic benchmarks, an exhaustive reference miner, and a downstream check.

Three generators produce datasets with known structure: freq (planted
itemset frequencies 0.9 / 0.8 / 0.75 / 0.7 under a constant label), s1
(three classes driven by one main effect and one interaction, 5 percent
label noise), and s2 (s1 plus two constant columns that create perfectly
redundant rules).

brute_force_topk re-derives mining output by enumerating every possible
itemset with plain loops, no heaps and no candidate pruning, so the fast
miner can be compared against it byte for byte. A small softmax regression
trained by deterministic gradient descent turns rule features into an
out-of-sample quality number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, binary_dataset
from .errors import DataError, UsageError
from .features import FeatureMode, transform
from .mining import ClassItemset, MiningConfig, Scoring, mine_frequent
from .rules import Rule, select_rules, select_rules_reluctant
from .sampling import estimate_frequencies

# -- generators -----------------------------------------------------------------


def gen_freq_bench(n: int, seed: int, p: int) -> Dataset:
    """Binary features with planted frequencies, constant label.

    P(X1=1)=0.9; X2 agrees with a 75/90 conditional on X1 so that
    P(X2=1)=0.8 and P(X1=1,X2=1)=0.75; P(X3=1)=0.7; the rest are fair
    coins. Every row carries the same class, so mining reduces to plain
    frequent-itemset search.
    """
    if p < 3:
        raise UsageError("freq benchmark needs p >= 3")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros((n, p), dtype=np.int64)
    x[:, 0] = rng.random(n) < 0.9
    u2 = rng.random(n)
    x[:, 1] = np.where(x[:, 0] == 1, u2 < 75.0 / 90.0, u2 < 0.5)
    x[:, 2] = rng.random(n) < 0.7
    if p > 3:
        x[:, 3:] = rng.random((n, p - 3)) < 0.5
    labels = np.zeros(n, dtype=np.int64)
    return binary_dataset(x, labels, class_names=("1",))


def _s_matrix(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros((n, p), dtype=np.int64)
    x[:, 0] = rng.random(n) < 0.3
    x[:, 1:] = rng.random((n, p - 1)) < 0.5
    return x


NOISE_RATE = 0.05
"""Fraction of s1/s2 rows whose label is redrawn uniformly at random."""


def _s_labels(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    y = np.where(x[:, 0] == 0, 0, np.where((x[:, 1] == 1) & (x[:, 2] == 1), 2, 1))
    y = y.astype(np.int64)
    k = int(round(NOISE_RATE * len(y)))
    if k:
        idx = rng.choice(len(y), size=k, replace=False)
        y[idx] = rng.integers(0, 3, size=k)
    return y


def gen_s1(n: int, seed: int, p: int) -> Dataset:
    """Three classes: X1=0 forces class 0; otherwise X2*X3 separates 2 from 1.

    X1 is Bernoulli(0.3), all other columns fair coins; afterwards a
    NOISE_RATE fraction of rows gets a uniformly random label.
    """
    if p < 3:
        raise UsageError("s1 needs p >= 3")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = _s_matrix(n, p, rng)
    y = _s_labels(x, rng)
    return binary_dataset(x, y, class_names=("0", "1", "2"))


def gen_s2(n: int, seed: int, p: int) -> Dataset:
    """s1 with the last two columns constant 1, creating redundant rules."""
    if p < 5:
        raise UsageError("s2 needs p >= 5")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = _s_matrix(n, p, rng)
    x[:, p - 2] = 1
    x[:, p - 1] = 1
    y = _s_labels(x, rng)
    return binary_dataset(x, y, class_names=("0", "1", "2"))


_SYNTH_DEFAULTS = {"n": 1000, "p": 99, "d_freq": 45, "d_conf": 5}
DEFAULTS = {
    "freq": {"n": 10000, "p": 10, "d_freq": 5},
    "s1": _SYNTH_DEFAULTS,
    "s2": _SYNTH_DEFAULTS,
}
"""Sizes of an `araf bench` run of each variant: rows n, features p, itemset
capacity d_freq and rule count d_conf. A freq trial selects no rules, so freq
has no d_conf."""


def generate(variant: str, n: int, seed: int = 0, p: "int | None" = None) -> Dataset:
    """The dataset of variant "freq", "s1" or "s2"; p=None takes the variant's DEFAULTS width."""
    if variant == "freq":
        gen = gen_freq_bench
    elif variant == "s1":
        gen = gen_s1
    elif variant == "s2":
        gen = gen_s2
    else:
        raise UsageError("unknown synthetic variant %r" % variant)
    if n < 1:
        raise UsageError("n must be >= 1")
    return gen(n, seed, DEFAULTS[variant]["p"] if p is None else p)


# -- exhaustive reference miner ---------------------------------------------------

_MAX_ORACLE_N = 2000
_MAX_ORACLE_P = 20


@dataclass
class OracleResult:
    """Reference mining output in the same shapes the fast path produces."""

    itemsets: "list[ClassItemset] | None"
    per_class: "dict[int, list[ClassItemset]] | None"
    rules: list[Rule]


def _oracle_counts(ds: Dataset):
    """Count every singleton and every pair the slow, obvious way."""
    matrix = ds.categorical_matrix()
    labels = ds.labels
    num_classes = ds.num_classes
    n, p = matrix.shape
    sizes = [len(col.categories) for col in ds.schema.features]

    single: dict = {}
    for j in range(p):
        for cat in range(sizes[j]):
            for c in range(num_classes):
                single[((j, cat),), c] = 0
    pair: dict = {}
    for a in range(p):
        for b in range(a + 1, p):
            for ca in range(sizes[a]):
                for cb in range(sizes[b]):
                    for c in range(num_classes):
                        pair[((a, ca), (b, cb)), c] = 0

    for i in range(n):
        row = matrix[i]
        c = int(labels[i])
        for j in range(p):
            single[((j, int(row[j])),), c] += 1
        for a in range(p):
            for b in range(a + 1, p):
                pair[((a, int(row[a])), (b, int(row[b]))), c] += 1

    class_totals = [0] * num_classes
    for i in range(n):
        class_totals[int(labels[i])] += 1
    return single, pair, class_totals, sizes


def _oracle_ranks(sizes: list[int], num_classes: int):
    """Dense singleton ranks in (feature, category, class) order, then pairs."""
    item_rank: dict = {}
    r = 0
    for j, size in enumerate(sizes):
        for cat in range(size):
            for c in range(num_classes):
                item_rank[(j, cat), c] = r
                r += 1
    n1 = r

    def rank_of(antecedent, c: int) -> int:
        if len(antecedent) == 1:
            return item_rank[antecedent[0], c]
        r1 = item_rank[antecedent[0], c]
        r2 = item_rank[antecedent[1], c]
        return n1 * (1 + r1) + r2

    return rank_of


def brute_force_topk(ds: Dataset, config: MiningConfig) -> OracleResult:
    """Exhaustive re-derivation of mining plus rule selection.

    Enumerates all one- and two-item class itemsets with exact counts,
    applies the same total order and capacities by sorting full lists, and
    scores rules straight from its own count dictionaries. Guarded to small
    inputs; raises UsageError beyond n=2000 or p=20.
    """
    if ds.n > _MAX_ORACLE_N or ds.p > _MAX_ORACLE_P:
        raise UsageError(
            "reference miner is limited to n <= %d, p <= %d" % (_MAX_ORACLE_N, _MAX_ORACLE_P)
        )
    if config.subsample is not None:
        raise UsageError("reference miner counts the full data only")

    single, pair, class_totals, sizes = _oracle_counts(ds)
    rank_of = _oracle_ranks(sizes, ds.num_classes)
    n = ds.n
    eps = 1e-12

    universe = [
        ClassItemset(ant, c, cnt, rank_of(ant, c)) for (ant, c), cnt in single.items()
    ] + [
        ClassItemset(ant, c, cnt, rank_of(ant, c)) for (ant, c), cnt in pair.items()
    ]

    def strongest(items, capacity):
        return sorted(items, key=lambda t: (-t.support, t.rank))[:capacity]

    if config.per_class:
        cap = config.per_class_capacity(ds.num_classes)
        per_class = {
            c: strongest([t for t in universe if t.class_id == c], cap)
            for c in range(ds.num_classes)
        }
        selected = [t for c in sorted(per_class) for t in per_class[c]]
        global_items = None
    else:
        global_items = strongest(universe, config.d_freq)
        selected = list(global_items)
        per_class = None

    def counts_for(ant):
        table = single if len(ant) == 1 else pair
        return [table[ant, c] for c in range(ds.num_classes)]

    def as_rule(t: ClassItemset) -> "Rule | None":
        per = counts_for(t.antecedent)
        total = sum(per)
        if total == 0:
            return None
        sy = class_totals[t.class_id]
        conf = t.support / total
        rc = (t.support / (total - t.support + eps)) * ((n - sy) / (sy + eps))
        lf = conf / (sy / n) if sy > 0 else 0.0
        return Rule(
            antecedent=t.antecedent,
            class_id=t.class_id,
            support=t.support,
            antecedent_class_counts=tuple(per),
            confidence=conf,
            rconf=rc,
            lift=lf,
            rank=t.rank,
        )

    def score(rule: Rule) -> float:
        if config.scoring is Scoring.CONFIDENCE:
            return rule.confidence
        if config.scoring is Scoring.RELATIVE_CONFIDENCE:
            return rule.rconf
        return rule.lift

    if config.reluctant:
        pool: dict = {}
        for c in sorted(per_class):
            for t in per_class[c]:
                rule = as_rule(t)
                if rule is None:
                    continue
                if len(rule.antecedent) == 1:
                    pool[(rule.antecedent, c)] = rule
                    continue
                ok = True
                for item in rule.antecedent:
                    parent = pool.get(((item,), c))
                    if parent is not None and score(rule) <= score(parent):
                        ok = False
                        break
                if ok:
                    pool[(rule.antecedent, c)] = rule
        scored = list(pool.values())
    else:
        scored = [r for r in (as_rule(t) for t in selected) if r is not None]

    rules = sorted(scored, key=lambda r: (-score(r), r.rank))[: config.d_conf]
    return OracleResult(itemsets=global_items, per_class=per_class, rules=rules)


# -- downstream evaluation ----------------------------------------------------------


@dataclass
class LogisticModel:
    weights: np.ndarray  # (d, num_classes)
    bias: np.ndarray  # (num_classes,)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the (n, k) logits z, written over z and returned.

    The row max and row sum are taken one class column at a time: a
    reduction along a k-long axis pays NumPy's per-row overhead. The running
    maximum is exact for any k. Adding the columns left to right is the
    order NumPy's own sum(axis=1) uses for 2 to 7 classes, so for those the
    result equals z - max, exp, divide by sum bit for bit; from 8 classes
    NumPy sums in 8 lanes and the last bit may differ.
    """
    peak = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(peak, z[:, j], out=peak)
    np.subtract(z, peak[:, None], out=z)
    np.exp(z, out=z)
    total = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        total += z[:, j]
    z /= total[:, None]
    return z


def _power_iteration_sq(x: np.ndarray, iters: int = 60) -> float:
    """Largest eigenvalue of X^T X, deterministic start."""
    d = x.shape[1]
    if d == 0:
        return 0.0
    v = np.ones(d) / np.sqrt(d)
    est = 1.0
    for _ in range(iters):
        w = x.T @ (x @ v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        est = norm
        v = w / norm
    return float(est)


def train_logreg(
    x: np.ndarray, y: np.ndarray, num_classes: int, penalty: float = 1.0
) -> LogisticModel:
    """Softmax regression from zero weights by accelerated gradient descent.

    The loss is mean cross entropy plus 0.5 * (penalty / n) * ||W||^2 with
    an unpenalized bias. The step size comes from a Lipschitz bound, the
    momentum schedule is fixed, and nothing is randomized, so retraining on
    identical input reproduces the model bit for bit. Descent stops after
    400 iterations, or earlier once no gradient entry reaches 1e-6.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not np.isfinite(x).all():
        raise DataError("design matrix contains non-finite values")
    if np.unique(y).size < 2:
        raise DataError("training labels contain a single class")
    n, d = x.shape
    lam = penalty / n
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0

    # the +n term is the bias column of the augmented design [x, 1]; without
    # it the step is unsafe whenever the features are weaker than the bias
    lipschitz = 0.5 * (_power_iteration_sq(x) + n) / n + lam
    step = 1.0 / max(lipschitz, 1e-12)

    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    w_prev, b_prev = w.copy(), b.copy()
    # every iteration computes, in place in these buffers,
    #   wv = w + mu * (w - w_prev)           bv likewise
    #   g = (softmax(x @ wv + bv) - onehot) / n
    #   gw = x.T @ g + lam * wv              gb = g.sum(axis=0)
    #   w, w_prev = wv - step * gw, w        b, b_prev likewise
    # with the same operations on the same operands, so the model is the
    # one the expressions above give, bit for bit
    wv, bv = np.empty_like(w), np.empty_like(b)
    gw, shrink = np.empty_like(w), np.empty_like(w)
    z = np.empty((n, num_classes))
    for t in range(1, 401):
        mu = (t - 1) / (t + 2)
        np.subtract(w, w_prev, out=wv)
        wv *= mu
        wv += w
        np.subtract(b, b_prev, out=bv)
        bv *= mu
        bv += b
        np.matmul(x, wv, out=z)
        z += bv
        g = _softmax(z)
        g -= onehot
        g /= n
        np.matmul(x.T, g, out=gw)
        np.multiply(wv, lam, out=shrink)
        gw += shrink
        gb = g.sum(axis=0)
        np.multiply(gw, step, out=w_prev)
        np.subtract(wv, w_prev, out=w_prev)
        w, w_prev = w_prev, w
        np.multiply(gb, step, out=b_prev)
        np.subtract(bv, b_prev, out=b_prev)
        b, b_prev = b_prev, b
        if max(np.abs(gw).max(initial=0.0), np.abs(gb).max(initial=0.0)) < 1e-6:
            break
    return LogisticModel(weights=w, bias=b)


def evaluate(model: LogisticModel, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean negative log likelihood (natural log) and accuracy."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not np.isfinite(x).all():
        raise DataError("design matrix contains non-finite values")
    probs = _softmax(x @ model.weights + model.bias)
    picked = np.clip(probs[np.arange(len(y)), y], 1e-300, None)
    logloss = float(-np.log(picked).mean())
    accuracy = float((probs.argmax(axis=1) == y).mean())
    return logloss, accuracy


def stratified_split(
    labels: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class shuffle split; every class lands in both sides
    whenever it has at least two rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    train, test = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        k = int(round(test_fraction * idx.size))
        if idx.size >= 2:
            k = min(max(k, 1), idx.size - 1)
        test.extend(idx[:k])
        train.extend(idx[k:])
    return np.sort(np.array(train, dtype=np.int64)), np.sort(np.array(test, dtype=np.int64))


# -- benchmark protocols --------------------------------------------------------------


METHODS = ("origin", "conf", "rconf", "reluctant")


def method_config(method: str, d_freq: int, d_conf: int) -> MiningConfig:
    """Mining settings behind each benchmark method id."""
    if method == "conf":
        return MiningConfig(d_freq, d_conf, per_class=False, scoring=Scoring.CONFIDENCE)
    if method == "rconf":
        return MiningConfig(d_freq, d_conf, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE)
    if method == "reluctant":
        return MiningConfig(
            d_freq,
            d_conf,
            per_class=True,
            scoring=Scoring.RELATIVE_CONFIDENCE,
            reluctant=True,
        )
    raise UsageError("unknown method %r" % method)


def mine_method(ds: Dataset, method: str, d_freq: int, d_conf: int) -> list[Rule]:
    config = method_config(method, d_freq, d_conf)
    result = mine_frequent(ds, config)
    if config.reluctant:
        return select_rules_reluctant(result, config)
    return select_rules(result, config)


@dataclass
class TrialResult:
    seed: int
    rules: dict  # method -> list[Rule], mined on the full trial dataset
    metrics: dict  # method (incl. "origin") -> (logloss, accuracy)


def run_synth_trial(
    variant: str,
    seed: int,
    n: int,
    p: int,
    d_freq: int,
    d_conf: int,
    with_eval: bool = True,
) -> TrialResult:
    """One benchmark trial: generate, mine each method, optionally evaluate.

    Recovery statistics use rules mined on the full dataset. Evaluation
    avoids leaking test labels into rule selection: rules are re-mined on
    the 70 percent training split, features built from those, and the
    logistic model scored on the held-out 30 percent.
    """
    ds = generate(variant, n, seed, p)
    rules = {m: mine_method(ds, m, d_freq, d_conf) for m in METHODS if m != "origin"}

    metrics: dict = {}
    if with_eval:
        train_idx, test_idx = stratified_split(ds.labels, 0.3, seed + 7_000_003)
        if train_idx.size == 0 or test_idx.size == 0:
            side = "training" if train_idx.size == 0 else "test"
            raise UsageError(
                "--n %d leaves the %s side of the 70/30 split empty; use a larger --n" % (n, side)
            )
        train_ds = Dataset(
            ds.schema, tuple(col[train_idx] for col in ds.columns), ds.labels[train_idx]
        )
        y = ds.labels
        for m in METHODS:
            train_rules = [] if m == "origin" else mine_method(train_ds, m, d_freq, d_conf)
            matrix, _ = transform(
                ds, [r.antecedent for r in train_rules], FeatureMode.APPEND_TO_LABEL_ENCODED
            )
            model = train_logreg(matrix[train_idx], y[train_idx], ds.num_classes)
            metrics[m] = evaluate(model, matrix[test_idx], y[test_idx])
    return TrialResult(seed=seed, rules=rules, metrics=metrics)


def s1_ground_truth() -> list[tuple[tuple, int]]:
    """The five planted (antecedent, class) pairs of the s1 generator."""
    return [
        (((0, 0),), 0),
        (((0, 1), (1, 0)), 1),
        (((0, 1), (2, 0)), 1),
        (((0, 1), (1, 1)), 2),
        (((0, 1), (2, 1)), 2),
    ]


def rule_keys(rules) -> set:
    return {(r.antecedent, r.class_id) for r in rules}


def freq_ground_truth() -> list[tuple[tuple, float]]:
    """Planted antecedents of the freq generator with their true frequencies."""
    return [
        (((0, 1),), 0.9),
        (((1, 1),), 0.8),
        (((0, 1), (1, 1)), 0.75),
        (((2, 1),), 0.7),
    ]


def run_freq_trial(
    ds: Dataset, n_prime: int, seed: int, d_freq: int
) -> tuple[bool, list[float]]:
    """Mine the freq dataset on one subsample draw.

    Returns whether all four planted antecedents made the mined top
    d_freq, plus the absolute error of each subsample frequency estimate
    against its true value. No rules are selected, so no d_conf applies;
    the config carries d_conf = d_freq, which mine_frequent never reads.
    """
    config = MiningConfig(d_freq, d_freq, subsample=n_prime, seed=seed)
    result = mine_frequent(ds, config)
    mined = {(t.antecedent, t.class_id) for t in result.all_itemsets()}
    truths = freq_ground_truth()
    hit = all((ant, 0) in mined for ant, _ in truths)
    estimates = estimate_frequencies(ds, [ant for ant, _ in truths], n_prime, seed)
    errors = [abs(estimates[ant] - true) for ant, true in truths]
    return hit, errors


def bench(variant: str, trials: int, seed: int, sizes: dict, with_eval: bool) -> tuple[list, list]:
    """Run the trials of one `araf bench` run; returns its metrics rows and its recovery table.

    sizes holds a value for each key of DEFAULTS[variant]. Trial t runs with
    seed + 1000 * t. A freq run mines one dataset at every subsample size
    n_prime and has no metrics rows; an s1/s2 run has them only with_eval.
    Each non-empty table starts with its header row.
    """
    seeds = [seed + 1000 * t for t in range(trials)]
    if variant == "freq":
        ds = generate("freq", sizes["n"], seed, sizes["p"])
        recovery = [["variant", "n_prime", "all_recovered", "trials", "mean_abs_err"]]
        for n_prime in (100, 500, 1000, 5000):
            runs = [run_freq_trial(ds, n_prime, s, sizes["d_freq"]) for s in seeds]
            err_count = sum(len(errors) for _, errors in runs)
            mean_err = sum(sum(errors) for _, errors in runs) / err_count if err_count else 0.0
            hits = sum(hit for hit, _ in runs)
            recovery.append(["freq", n_prime, hits, trials, "%.6f" % mean_err])
        return [], recovery

    metrics = [["variant", "method", "seed", "logloss", "accuracy"]] if with_eval else []
    truths = s1_ground_truth()
    counts = {m: dict.fromkeys(truths, 0) for m in METHODS if m != "origin"}
    for s in seeds:
        trial = run_synth_trial(variant, s, **sizes, with_eval=with_eval)
        for method, (logloss, accuracy) in trial.metrics.items():
            metrics.append([variant, method, s, "%.6f" % logloss, "%.6f" % accuracy])
        for method, rules in trial.rules.items():
            keys = rule_keys(rules)
            for truth in truths:
                counts[method][truth] += truth in keys
    recovery = [["variant", "method", "rule", "recovered", "trials"]]
    for method in sorted(counts):
        for ant, cls in truths:
            label = "&".join("X%d=%d" % (f + 1, v) for f, v in ant)
            rule = "%s->%d" % (label, cls)
            recovery.append([variant, method, rule, counts[method][ant, cls], trials])
    return metrics, recovery
