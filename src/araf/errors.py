"""Exception hierarchy shared across the package, and the mining value checks.

Two families matter to callers: problems with the data itself
(DataError) and problems with how the tool was invoked (UsageError).
The CLI maps each to its own exit code; the message says what went wrong.
"""


class ArafError(Exception):
    """Base class for every error raised by this package."""


class DataError(ArafError):
    """The input data violates a contract (CLI exit code 3)."""


class UsageError(ArafError):
    """The caller combined parameters in an unsupported way (CLI exit code 2)."""


def check_mining_values(*, subsample=None, d_freq=None, d_conf=None, minsupp=None, minconf=None) -> None:
    """Raise UsageError for the first given value, in argument order, that mining refuses."""
    if subsample is not None and subsample < 1:
        raise UsageError("subsample size must be >= 1")
    if d_freq is not None and d_freq < 1:
        raise UsageError("d_freq must be >= 1")
    if d_conf is not None and not 1 <= d_conf <= (d_conf if d_freq is None else d_freq):
        raise UsageError("d_conf must satisfy 1 <= d_conf <= d_freq")
    if minsupp is not None and not 0 < minsupp <= 1:
        raise UsageError("minsupp must lie in (0, 1]")
    if minconf is not None and not 0 <= minconf <= 1:
        raise UsageError("minconf must lie in [0, 1]")
