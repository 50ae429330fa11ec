"""Exception taxonomy shared across the package.

Input-validity problems (bad values, malformed files, degenerate metric
inputs, a channel the wall lacks) derive from :class:`ValidationError`, a
``ValueError`` too, so plain ``except ValueError`` still works. Numerical trouble
during integration or iteration uses :class:`StabilityError` / :class:`NumericalError`.
"""


class PhotothermError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PhotothermError, ValueError):
    """A value violates a documented invariant or precondition."""


class StabilityError(PhotothermError):
    """Requested time step exceeds the explicit-integration stability limit."""

    def __init__(self, message: str, limit: float, limiting_layer: str):
        super().__init__(message)
        self.limit = limit
        self.limiting_layer = limiting_layer


class NumericalError(PhotothermError):
    """Integration or root finding produced non-finite values or failed to converge."""


class MetricError(PhotothermError):
    """A metric could not be computed from the given series."""


class NoCrossingError(MetricError):
    """The series never reaches the requested response level."""


class NoPlateauError(MetricError):
    """No window of the requested length stays within the threshold."""


class ConfigError(ValidationError):
    """Configuration file is malformed or violates an invariant."""


class SeriesFormatError(ValidationError):
    """Measurement CSV file is malformed."""
