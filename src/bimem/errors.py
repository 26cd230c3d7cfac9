"""Exception types shared across the package."""


class BimemError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(BimemError, ValueError):
    """An argument violates an operation's precondition."""


class DataError(BimemError, ValueError):
    """A data file is malformed or inconsistent.

    ``line`` is the 1-based line number when the error is tied to one.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericFailureError(BimemError, ArithmeticError):
    """A numeric computation produced non-finite values."""


class ConfigError(BimemError, ValueError):
    """A configuration file or key is invalid."""
