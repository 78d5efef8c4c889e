"""Exception types shared across the package."""

import math


class ValidationError(ValueError):
    """An input violates a structural invariant (hermiticity, trace, norm, ...)."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class EnergyRangeError(ValueError):
    """Requested mean energy is outside the achievable interval of a spectrum.

    The interval is (lo, hi], or [lo, hi] when lo_closed; an infinite hi is
    an open end.
    """

    def __init__(self, requested, lo, hi, lo_closed=False):
        self.requested = float(requested)
        self.lo = float(lo)
        self.hi = float(hi)
        left = "[" if lo_closed else "("
        right = ")" if math.isinf(self.hi) else "]"
        super().__init__(
            f"mean energy {requested} outside achievable interval "
            f"{left}{self.lo}, {self.hi}{right}"
        )


class TruncationError(ValueError):
    """A truncated representation cannot meet the requested accuracy budget."""


class ConvergenceError(RuntimeError):
    """An iterative solver stopped before reaching its tolerance."""

    def __init__(self, message, gap=None):
        self.gap = gap
        super().__init__(message)
