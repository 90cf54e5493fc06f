"""Exception hierarchy shared across the package.

Two broad families matter to callers: problems with the data itself
(DataError) and problems with how the tool was invoked (UsageError).
The CLI maps them to distinct exit codes; library users can catch the
bases or the specific subclasses.
"""


class ArafError(Exception):
    """Base class for every error raised by this package."""


class DataError(ArafError):
    """The input data violates a contract (CLI exit code 3)."""


class UsageError(ArafError):
    """The caller combined parameters in an unsupported way (CLI exit code 2)."""


class InternalError(ArafError):
    """An internal invariant was violated (CLI exit code 4)."""


# -- loading ---------------------------------------------------------------

class RaggedRowError(DataError):
    """A CSV row has a different number of cells than the header."""


class UnknownLabelColumnError(DataError):
    """The requested label column is not present in the header."""


class EmptyDatasetError(DataError):
    """The file contains a header but no data rows."""


class MixedColumnError(DataError):
    """A column declared continuous contains cells that do not parse as numbers."""


class MissingValueError(DataError):
    """A cell is empty; rows with missing values are rejected at load time."""


# -- encoding and transforms ------------------------------------------------

class ContinuousPresentError(DataError):
    """An operation requiring categorical columns met a continuous one."""


class SchemaMismatchError(DataError):
    """A feature spec or rule file references columns or categories the schema lacks."""


class MalformedRulesError(DataError):
    """A rules file line is not valid JSON or lacks a field of a rule."""


# -- discretization ----------------------------------------------------------

class AllZeroError(DataError):
    """Entropy is undefined for an all-zero count vector."""


class EmptyInputError(DataError):
    """An operation received no rows."""


class InsufficientRowsError(DataError):
    """Fewer rows than requested intervals; no sensible split exists."""


# -- scoring -----------------------------------------------------------------

class ZeroAntecedentError(DataError):
    """Confidence is undefined when the antecedent never occurs."""


class ZeroClassError(DataError):
    """Lift is undefined when the consequent class never occurs."""


# -- benchmarks and evaluation ------------------------------------------------

class TooLargeError(UsageError):
    """The exhaustive reference miner refuses datasets beyond its guard rails."""


class NonFiniteError(DataError):
    """A numeric routine met NaN or infinity in its input."""


class SingleClassError(DataError):
    """Classifier training needs at least two distinct labels."""


# -- CLI ----------------------------------------------------------------------

class ConflictingFlagsError(UsageError):
    """Mutually exclusive CLI flags were combined."""
