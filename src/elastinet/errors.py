"""Exception hierarchy. Every error raised on purpose derives from ElastinetError."""


class ElastinetError(Exception):
    """Base class for all elastinet errors."""


class DimensionError(ElastinetError):
    """Tensor shapes are incompatible for the requested operation."""


class EmbeddingIndexError(ElastinetError):
    """An embedding lookup index fell outside the table."""


class NumericError(ElastinetError):
    """A non-finite value appeared where the computation requires finite ones."""


class ConfigError(ElastinetError):
    """Invalid configuration: bad widths, fractions, ranges, or unknown keys."""


class DomainError(ElastinetError):
    """An argument violated a mathematical precondition (e.g. price <= 0)."""


class DegenerateDemandError(DomainError):
    """Predicted demand unusable for an elasticity quotient: near zero or non-finite."""


class ParseError(ElastinetError):
    """An input file row could not be parsed; message carries the line number."""


class IntegrityError(ElastinetError):
    """Input data violated a uniqueness or consistency constraint."""


class SchemaMismatchError(ElastinetError):
    """Model and dataset were built against different feature schemas."""


class ModelIOError(ElastinetError):
    """A model container file is unreadable: bad magic, version, or checksum."""


class MetricError(ElastinetError):
    """A metric is undefined for the given inputs (e.g. zero total demand)."""
