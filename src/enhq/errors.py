"""Exception types shared across the package."""


class DomainError(ValueError):
    """A label or parameter lies outside the mathematical domain of an operation."""


class CapacityError(RuntimeError):
    """A truncated representation is too small for the requested state."""


class NumericalFailure(RuntimeError):
    """A numerical procedure did not converge or produced non-finite values.

    Carries a ``diagnostics`` dict with whatever the failing routine measured.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class InvalidTransformError(ValueError):
    """A relabeling matrix has a non-finite entry or does not preserve area (det M != 1)."""
