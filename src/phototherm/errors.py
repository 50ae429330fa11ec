"""Exception taxonomy shared across the package: four classes.

Bad input of any kind (a bad value, a malformed config or CSV file, a
metric that the series cannot give, a channel the wall lacks) is a
:class:`ValidationError`, a ``ValueError`` too, so plain ``except ValueError``
catches it; the CLI exits 2 on it. Numerical trouble during integration or
iteration is a :class:`StabilityError` or a :class:`NumericalError`, and
the CLI exits 3 on it.
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
