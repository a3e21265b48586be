"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """Raised when an exhaustive operation would exceed its size guard."""


class Diverged(RuntimeError):
    """Raised when a solver meets a non-finite energy or gradient.

    Carries the partial trace so callers can inspect what happened.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InstanceFormatError(ValueError):
    """Raised for malformed instance files (JSON or UAI)."""


class UnsupportedFeatureError(InstanceFormatError):
    """Raised for well-formed files using features outside the supported subset."""
