"""Exception hierarchy. Every error raised on purpose derives from ElastinetError.

``exit_code`` is what ``cli.main`` exits with when the class is raised (a
subclass inherits it): 1 internal error, 2 bad input or configuration, 3
mismatched or unreadable artifact, 4 numeric failure.
"""


class ElastinetError(Exception):
    """Base class for all elastinet errors."""
    exit_code = 1


class DimensionError(ElastinetError):
    """Tensor shapes are incompatible for the requested operation."""


class EmbeddingIndexError(ElastinetError):
    """An embedding lookup index fell outside the table."""


class NumericError(ElastinetError):
    """A non-finite value appeared where the computation requires finite ones."""
    exit_code = 4


class ConfigError(ElastinetError):
    """Invalid configuration: bad widths, fractions, ranges, or unknown keys."""
    exit_code = 2


class DomainError(ElastinetError):
    """An argument violated a mathematical precondition (e.g. price <= 0)."""
    exit_code = 2


class DegenerateDemandError(DomainError):
    """Predicted demand unusable for an elasticity quotient: near zero or non-finite."""


class ParseError(ElastinetError):
    """An input file row could not be parsed; message carries the line number."""
    exit_code = 2


class IntegrityError(ElastinetError):
    """Input data violated a uniqueness or consistency constraint."""
    exit_code = 2


class SchemaMismatchError(ElastinetError):
    """Model and dataset were built against different feature schemas."""
    exit_code = 3


class ModelIOError(ElastinetError):
    """A model container file is unreadable: bad magic, version, or checksum."""
    exit_code = 3


class MetricError(ElastinetError):
    """A metric is undefined for the given inputs (e.g. zero total demand)."""
    exit_code = 4
