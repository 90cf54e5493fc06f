"""araf: association rules as features.

Mines class association rules with one- and two-item antecedents from
categorical tables (continuous columns via entropy binning) and turns the
strongest rules into binary indicator features for downstream models.

The package root holds only __version__. Import every other name from the
module that defines it: araf.data, araf.discretize, araf.mining,
araf.rules, araf.features, araf.sampling, araf.bench or araf.errors.
"""

__version__ = "0.1.0"
