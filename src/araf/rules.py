"""Scoring frequent itemsets into class association rules and selecting them.

Every frequent itemset (X, Y=c) yields the rule X -> Y=c. Three scores are
supported: confidence (the posterior of c given X), relative confidence
(posterior odds over prior odds, which rewards rules for rare classes), and
lift. Selection keeps the d_conf best by score, ties toward the rule whose
itemset was enumerated first.

Scoring and selection run on the mining result's arrays: one pass scores
every row, a selection is one sort, and a Rule is built only for each rule
returned. The reluctant variant keeps every main effect and keeps an
interaction (X1 & X2, c) unless a main effect (X1, c) or (X2, c) of the
same pool scores at least as high, so an interaction never displaces an
equally good simpler rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Schema
from .errors import DataError, UsageError, check_mining_values
from .mining import (
    Antecedent,
    MiningConfig,
    MiningResult,
    Scoring,
    canonical_antecedent,
)


@dataclass(frozen=True)
class Rule:
    """One scored rule: antecedent -> class.

    antecedent_class_counts[c'] is the joint support of the antecedent with
    every class c', so the confidence denominator (the antecedent marginal)
    is their sum. rank carries over from the itemset for tie-breaking.
    """

    antecedent: Antecedent
    class_id: int
    support: int
    antecedent_class_counts: tuple[int, ...]
    confidence: float
    rconf: float
    lift: float
    rank: int

    @property
    def size(self) -> int:
        return len(self.antecedent)


def confidence(support, antecedent_support):
    """Fraction of antecedent occurrences that carry the rule's class."""
    if np.any(np.equal(antecedent_support, 0)):
        raise DataError("confidence undefined: antecedent never occurs")
    return support / antecedent_support


def relative_confidence(support, antecedent_support, class_support, n: int):
    """Posterior odds of the class given the antecedent over its prior odds.

    Computed from supports as s/(s_x - s + eps) * (n - s_y)/(s_y + eps)
    with eps = 1e-12, which guards the pure-rule case where the antecedent
    always implies the class.
    """
    return (support / (antecedent_support - support + 1e-12)) * (
        (n - class_support) / (class_support + 1e-12)
    )


def lift(conf, class_support, n: int):
    """Confidence over the class prior."""
    if np.any(np.equal(class_support, 0)):
        raise DataError("lift undefined: class never occurs")
    return conf / (class_support / n)


class Scores:
    """Every rule a mining result offers, scored in one pass over its rows.

    Entry k is the k-th result row whose antecedent occurs; a row whose
    antecedent never occurs (possible when the capacity exceeds the itemset
    universe) says nothing and is dropped. The three score functions above
    take counts or count arrays alike; counts are int64 below 2**53, so each
    score equals the function's result on the same counts as Python ints.
    """

    def __init__(self, result: MiningResult) -> None:
        total = result.counts.sum(axis=1)
        occurs = total > 0
        self.space = result.space
        self.rows, self.counts = result.rows[occurs], result.counts[occurs]
        self.ranks, self.support, total = result.ranks[occurs], result.support[occurs], total[occurs]
        class_support = result.class_totals[self.rows[:, 0]]
        self.confidence = confidence(self.support, total)
        self.rconf = relative_confidence(self.support, total, class_support, result.n)
        # a rule for a class absent from the data scores zero rather than erroring
        self.lift = np.zeros(len(self.rows))
        present = class_support > 0
        self.lift[present] = lift(self.confidence[present], class_support[present], result.n)

    def of(self, scoring: Scoring) -> np.ndarray:
        if scoring is Scoring.CONFIDENCE:
            return self.confidence
        if scoring is Scoring.RELATIVE_CONFIDENCE:
            return self.rconf
        return self.lift


def build_rule(scores: Scores, k: int) -> Rule:
    """The Rule of entry k of scores; made only for the rules a selection returns."""
    c, a, b = scores.rows[k].tolist()
    return Rule(
        antecedent=scores.space.antecedent(a, b),
        class_id=c,
        support=int(scores.support[k]),
        antecedent_class_counts=tuple(scores.counts[k].tolist()),
        confidence=float(scores.confidence[k]),
        rconf=float(scores.rconf[k]),
        lift=float(scores.lift[k]),
        rank=int(scores.ranks[k]),
    )


def _top(scores: Scores, keep: np.ndarray, config: MiningConfig) -> list[Rule]:
    """The config.d_conf best of the entries keep, by score and then rank."""
    keep = keep[np.lexsort((scores.ranks[keep], -scores.of(config.scoring)[keep]))]
    return [build_rule(scores, k) for k in keep[: config.d_conf].tolist()]


def select_rules(result: MiningResult, config: MiningConfig) -> list[Rule]:
    """One rule per frequent itemset, then the d_conf best by score."""
    scores = Scores(result)
    return _top(scores, np.arange(len(scores.rows)), config)


def select_rules_reluctant(result: MiningResult, config: MiningConfig) -> list[Rule]:
    """Interaction-averse selection over per-class mining output.

    Every main effect is kept. An interaction (c, a, b) is kept unless the
    main effect (c, a, a) or (c, b, b) is in class c's pool and scores at
    least as high, so an equal-scoring redundant interaction is dropped and
    one whose main effects were not mined is kept. The condition reads no
    order. Output is the d_conf best.
    """
    if not result.class_pools:
        raise UsageError("reluctant selection needs per-class mining output")
    scores = Scores(result)
    score, space = scores.of(config.scoring), scores.space
    classes, a, b = scores.rows.T
    single = a == b
    # best[r] is the score of the pool's main effect of singleton rank r, if any
    best = np.full(space.pair_base, -np.inf)
    best[scores.ranks[single]] = score[single]
    parents = np.maximum(best[space.ranks(classes, a, a)], best[space.ranks(classes, b, b)])
    return _top(scores, np.flatnonzero(single | (score > parents)), config)


def generate_rules_threshold(result: MiningResult, minconf: float) -> list[Rule]:
    """Keep every rule whose confidence clears minconf, in enumeration order.

    The threshold selection after mining.mine_with_thresholds.
    """
    check_mining_values(minconf=minconf)
    scores = Scores(result)
    keep = np.flatnonzero(scores.confidence + 1e-12 >= minconf)
    return [build_rule(scores, k) for k in keep[np.argsort(scores.ranks[keep])].tolist()]


# -- serialization -------------------------------------------------------------


def rule_to_dict(rule: Rule, schema: Schema) -> dict:
    """Stable field order: antecedent, class, support, confidence, rconf, lift."""
    return {
        "antecedent": [
            {
                "feature": schema.features[f].name,
                "category": schema.features[f].categories[c],
            }
            for f, c in rule.antecedent
        ],
        "class": schema.classes[rule.class_id],
        "support": rule.support,
        "confidence": rule.confidence,
        "rconf": rule.rconf,
        "lift": rule.lift,
    }


def rules_to_jsonl(rules, schema: Schema) -> str:
    return "\n".join(json.dumps(rule_to_dict(r, schema)) for r in rules)


def _rule_pairs(line: str, lineno: int) -> list:
    """The (feature, category) pairs of one rules line, which must also name a class."""
    try:
        raw = json.loads(line)
        pairs = [(entry["feature"], entry["category"]) for entry in raw["antecedent"]]
        raw["class"]  # a rule without one is malformed, though a feature does not use it
        return pairs
    except json.JSONDecodeError as exc:
        raise DataError("rules line %d is not valid JSON: %s" % (lineno, exc)) from None
    except KeyError as exc:
        raise DataError("rules line %d has no field %s" % (lineno, exc)) from None
    except TypeError:
        raise DataError("rules line %d is not a rule object" % lineno) from None


def parse_rules_jsonl(text: str, schema: Schema) -> list[Antecedent]:
    """Resolve every rule of a JSON lines text to its antecedent.

    A line that is not a rule object, or that names a feature or category
    the schema lacks, raises DataError. Its class is not looked up, so the
    rules of a class the schema lacks still resolve.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        pairs = _rule_pairs(line, lineno)
        items = []
        for feature, category in pairs:
            try:
                j = schema.feature_index(feature)
            except KeyError:
                raise DataError("unknown feature %r" % feature) from None
            cats = schema.features[j].categories
            if category not in cats:
                raise DataError(
                    "unknown category %r for feature %r" % (category, feature)
                )
            items.append((j, cats.index(category)))
        out.append(canonical_antecedent(items))
    return out
