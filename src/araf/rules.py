"""Scoring frequent itemsets into class association rules and selecting them.

Every frequent itemset (X, Y=c) yields the rule X -> Y=c. Three scores are
supported: confidence (the posterior of c given X), relative confidence
(posterior odds over prior odds, which rewards rules for rare classes), and
lift. Selection keeps the d_conf best by score, ties toward the rule whose
itemset was enumerated first.

The reluctant variant walks each class's itemsets in support order, admits
main effects freely, and admits an interaction only when it strictly beats
every one of its admitted main effects, so an interaction never displaces
an equally good simpler rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import nsmallest

from .data import Schema
from .errors import (
    MalformedRulesError,
    SchemaMismatchError,
    UsageError,
    ZeroAntecedentError,
    ZeroClassError,
)
from .mining import (
    Antecedent,
    ClassItemset,
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
    def antecedent_support(self) -> int:
        return int(sum(self.antecedent_class_counts))

    @property
    def size(self) -> int:
        return len(self.antecedent)


def confidence(support: int, antecedent_support: int) -> float:
    """Fraction of antecedent occurrences that carry the rule's class."""
    if antecedent_support == 0:
        raise ZeroAntecedentError("confidence undefined: antecedent never occurs")
    return support / antecedent_support


def relative_confidence(
    support: int,
    antecedent_support: int,
    class_support: int,
    n: int,
    epsilon: float = 1e-12,
) -> float:
    """Posterior odds of the class given the antecedent over its prior odds.

    Computed from supports as s/(s_x - s + eps) * (n - s_y)/(s_y + eps);
    the epsilon guards the pure-rule case where the antecedent always
    implies the class.
    """
    return (support / (antecedent_support - support + epsilon)) * (
        (n - class_support) / (class_support + epsilon)
    )


def lift(conf: float, class_support: int, n: int) -> float:
    """Confidence over the class prior."""
    if class_support == 0:
        raise ZeroClassError("lift undefined: class never occurs")
    return conf / (class_support / n)


def score_rule(rule: Rule, scoring: Scoring) -> float:
    if scoring is Scoring.CONFIDENCE:
        return rule.confidence
    if scoring is Scoring.RELATIVE_CONFIDENCE:
        return rule.rconf
    return rule.lift


def build_rule(its: ClassItemset, result: MiningResult) -> "Rule | None":
    """Score one itemset against the mining counts.

    Returns None for itemsets whose antecedent never occurs (possible when
    the capacity exceeds the itemset universe); such a rule says nothing.
    """
    counts = result.antecedent_class_counts(its.antecedent)
    total = int(counts.sum())
    if total == 0:
        return None
    class_support = int(result.class_totals[its.class_id])
    conf = confidence(its.support, total)
    rc = relative_confidence(its.support, total, class_support, result.n)
    # a rule for a class absent from the data scores zero rather than erroring
    lf = lift(conf, class_support, result.n) if class_support > 0 else 0.0
    return Rule(
        antecedent=its.antecedent,
        class_id=its.class_id,
        support=its.support,
        antecedent_class_counts=tuple(int(v) for v in counts),
        confidence=conf,
        rconf=rc,
        lift=lf,
        rank=its.rank,
    )


def _build_all(result: MiningResult) -> list[Rule]:
    rules = []
    for its in result.all_itemsets():
        rule = build_rule(its, result)
        if rule is not None:
            rules.append(rule)
    return rules


def _top(rules: list[Rule], d_conf: int, scoring: Scoring) -> list[Rule]:
    return nsmallest(d_conf, rules, key=lambda r: (-score_rule(r, scoring), r.rank))


def select_rules(result: MiningResult, config: MiningConfig) -> list[Rule]:
    """One rule per frequent itemset, then the d_conf best by score."""
    return _top(_build_all(result), config.d_conf, config.scoring)


def select_rules_reluctant(result: MiningResult, config: MiningConfig) -> list[Rule]:
    """Interaction-averse selection over per-class mining output.

    Classes are walked in id order and each class's itemsets in support
    order (main effects therefore precede their own interactions, since an
    interaction's support never exceeds a parent's). Main effects join the
    pool unconditionally; an interaction joins only if, for each of its two
    parent main effects, the parent is absent from the pool or the
    interaction's score strictly exceeds the parent's. Equal-scoring
    redundant interactions are thus dropped. Output is the d_conf best.
    """
    if result.per_class is None:
        raise UsageError("reluctant selection needs per-class mining output")
    pool: dict[tuple[Antecedent, int], Rule] = {}
    for c in sorted(result.per_class):
        for its in result.per_class[c]:
            rule = build_rule(its, result)
            if rule is None:
                continue
            if rule.size == 1:
                pool[(rule.antecedent, c)] = rule
                continue
            admissible = True
            for item in rule.antecedent:
                parent = pool.get(((item,), c))
                if parent is not None and not (
                    score_rule(rule, config.scoring) > score_rule(parent, config.scoring)
                ):
                    admissible = False
                    break
            if admissible:
                pool[(rule.antecedent, c)] = rule
    return _top(list(pool.values()), config.d_conf, config.scoring)


def generate_rules_threshold(result: MiningResult, minconf: float) -> list[Rule]:
    """Keep every rule whose confidence clears minconf, in enumeration order.

    The threshold selection after mining.mine_with_thresholds; minconf must
    lie in [0, 1].
    """
    if not 0 <= minconf <= 1:
        raise UsageError("minconf must lie in [0, 1]")
    rules = [
        r for r in _build_all(result) if r.confidence + 1e-12 >= minconf
    ]
    rules.sort(key=lambda r: r.rank)
    return rules


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


@dataclass(frozen=True)
class ParsedRule:
    """Antecedent and class of a serialized rule, resolved against a schema."""

    antecedent: Antecedent
    class_id: int


def _rule_fields(line: str, lineno: int) -> tuple[list, object]:
    """The (feature, category) pairs and the class of one rules line."""
    try:
        raw = json.loads(line)
        pairs = [(entry["feature"], entry["category"]) for entry in raw["antecedent"]]
        return pairs, raw["class"]
    except json.JSONDecodeError as exc:
        raise MalformedRulesError("rules line %d is not valid JSON: %s" % (lineno, exc)) from None
    except KeyError as exc:
        raise MalformedRulesError("rules line %d has no field %s" % (lineno, exc)) from None
    except TypeError:
        raise MalformedRulesError("rules line %d is not a rule object" % lineno) from None


def parse_rules_jsonl(text: str, schema: Schema) -> list[ParsedRule]:
    """Resolve every rule of a JSON lines text against the schema.

    A line that is not a rule object raises MalformedRulesError naming its
    line number; a feature, category or class the schema lacks raises
    SchemaMismatchError.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        pairs, cls = _rule_fields(line, lineno)
        items = []
        for feature, category in pairs:
            try:
                j = schema.feature_index(feature)
            except KeyError:
                raise SchemaMismatchError("unknown feature %r" % feature) from None
            cats = schema.features[j].categories
            if category not in cats:
                raise SchemaMismatchError(
                    "unknown category %r for feature %r" % (category, feature)
                )
            items.append((j, cats.index(category)))
        if cls not in schema.classes:
            raise SchemaMismatchError("unknown class %r" % cls)
        out.append(
            ParsedRule(
                antecedent=canonical_antecedent(items),
                class_id=schema.classes.index(cls),
            )
        )
    return out
