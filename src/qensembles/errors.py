"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a structural invariant (hermiticity, trace, norm, ...)."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class EnergyRangeError(ValueError):
    """A mean energy outside the oscillator's achievable interval [0, inf)."""

    def __init__(self, energy):
        super().__init__(f"mean energy {energy} outside achievable interval [0.0, inf)")


class TruncationError(ValueError):
    """A truncated representation cannot meet the requested accuracy budget."""


class ConvergenceError(RuntimeError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, message, gap=None):
        self.gap = gap
        super().__init__(message)
