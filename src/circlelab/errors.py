"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes, so new error kinds should
subclass one of the two below rather than raising bare exceptions.
"""


class CircleLabError(Exception):
    """Base class for all library errors."""


class ParameterError(CircleLabError, ValueError):
    """Invalid argument or precondition violation (CLI exit code 2)."""


class ResourceError(CircleLabError, RuntimeError):
    """A computation would exceed its configured budget (CLI exit code 3).

    The message should tell the caller which parameter to lower.
    """

