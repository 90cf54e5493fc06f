"""araf: association rules as features.

Mines class association rules with one- and two-item antecedents from
categorical tables (continuous columns via entropy binning) and turns the
strongest rules into binary indicator features for downstream models.
"""

__version__ = "0.1.0"

from .data import (
    Column,
    ColumnKind,
    Dataset,
    Schema,
    binary_dataset,
    load_csv,
    write_csv,
)
from .discretize import (
    DiscretizationMap,
    apply_dataset,
    apply_discretizer,
    entropy,
    fit_dataset,
    fit_discretizer,
    info_gain,
)
from .errors import ArafError, DataError, UsageError
from .features import (
    FeatureMode,
    suggest_params,
    transform,
)
from .mining import (
    ClassItemset,
    MiningConfig,
    MiningResult,
    Scoring,
    mine_frequent,
    mine_with_thresholds,
)
from .rules import (
    Rule,
    confidence,
    generate_rules_threshold,
    lift,
    relative_confidence,
    select_rules,
    select_rules_reluctant,
)
from .sampling import required_sample_size, subsample

__all__ = [
    "__version__",
    "ArafError",
    "Column",
    "ColumnKind",
    "ClassItemset",
    "DataError",
    "Dataset",
    "DiscretizationMap",
    "FeatureMode",
    "MiningConfig",
    "MiningResult",
    "Rule",
    "Schema",
    "Scoring",
    "UsageError",
    "apply_dataset",
    "apply_discretizer",
    "binary_dataset",
    "confidence",
    "entropy",
    "fit_dataset",
    "fit_discretizer",
    "generate_rules_threshold",
    "info_gain",
    "lift",
    "load_csv",
    "mine_frequent",
    "mine_with_thresholds",
    "relative_confidence",
    "required_sample_size",
    "select_rules",
    "select_rules_reluctant",
    "subsample",
    "suggest_params",
    "transform",
    "write_csv",
]
