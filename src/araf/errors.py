"""Exception hierarchy shared across the package.

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
