"""Exception types shared across the package.

The command line maps each type to one exit code, whatever raised it.
"""


class GammadexError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(GammadexError, ValueError):
    """An argument is outside the mathematical domain (non-positive, NaN, ...).

    The command line reports it as a usage error (exit 2).
    """


class SizeError(GammadexError, ValueError):
    """A sample or replicate count is too small for the requested operation.

    The command line reports it as a usage error (exit 2).
    """


class DataError(GammadexError, ValueError):
    """An input file or data record cannot be turned into a valid sample.

    The command line reports it as a data error (exit 3).
    """


class NumericError(GammadexError, ArithmeticError):
    """A numerical routine failed to converge, or a result is not a finite number.

    The command line reports it as a numeric error (exit 4).
    """
