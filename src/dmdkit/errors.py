"""Exception types shared across the package.

The CLI maps each class to a distinct exit code, so library code should
raise the most specific one that applies. Plain ``ValueError`` is still
used for one-off argument refusals (negative variance, repeated
eigenvalues, and so on) where no cross-cutting category exists.
"""

__all__ = [
    "DmdkitError",
    "RankZeroError",
    "DimensionError",
    "EigensolverError",
    "ParseError",
    "ConfigError",
]


class DmdkitError(Exception):
    """Base class for errors raised by dmdkit."""


class RankZeroError(DmdkitError):
    """Data has numerical rank zero (e.g. an all-zero snapshot matrix)."""


class DimensionError(DmdkitError):
    """Shapes of the supplied arrays are mutually inconsistent."""


class EigensolverError(DmdkitError):
    """The dense eigensolver returned pairs violating the residual bound."""


class ParseError(DmdkitError):
    """Input is not numbers: a file that is not numeric CSV, or a str or object array."""


class ConfigError(DmdkitError):
    """Mutually inconsistent CLI flags or run configuration."""
