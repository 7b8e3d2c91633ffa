"""Exception types shared across the package."""


class DomainError(ValueError):
    """Arguments violate a function's mathematical domain."""


class RegimeError(ValueError):
    """Arguments violate the validity preconditions of an asymptotic case."""


class ToleranceError(ValueError):
    """No available method can certify the requested relative tolerance."""


class ConvergenceError(RuntimeError):
    """A numerical scheme could not produce a result it can vouch for.

    Raised by the quadrature oracle when its trapezoid rule misses the
    accuracy target, a row's arguments spread past its node table, or the
    value leaves the normal float64 range, and by the duplication evaluators
    (rf, rd, rj and what builds on them) when float64 overflows or
    underflows inside the iteration.
    """
