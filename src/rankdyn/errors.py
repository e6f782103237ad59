"""Exception types raised on invalid data or invalid estimator inputs.

Everything derives from DataError (itself a ValueError) so callers can
catch the whole family with one handler; the CLI maps DataError to exit
code 1.
"""

__all__ = [
    "DataError",
    "CsvFormatError",
    "DomainError",
    "DuplicateTimeError",
    "InsufficientDataError",
    "EvaluationError",
    "BoundaryError",
    "DegenerateSampleError",
    "GridMismatchError",
]


class DataError(ValueError):
    """Base class for all data-validation and estimation-input failures."""


class CsvFormatError(DataError):
    """Malformed CSV row or header (message carries the line number)."""


class DomainError(DataError):
    """Observation time outside [0, 1] or parameter outside its range."""


class DuplicateTimeError(DataError):
    """Repeated (id, time) pair within one subject."""


class InsufficientDataError(DataError):
    """Too few observations inside a smoothing or kernel window."""


class EvaluationError(DataError):
    """A curve cannot be evaluated at a requested time point."""


class BoundaryError(DataError):
    """Kernel evaluation requested inside the boundary strip [0, h_t) or (1 - h_t, 1]."""


class DegenerateSampleError(DataError):
    """A quantity is undefined because the sample is degenerate (e.g. all flat)."""


class GridMismatchError(DataError):
    """Two results were combined whose evaluation grids are incompatible."""
