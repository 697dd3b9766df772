"""Exception types and domain checks shared across the package."""

import math


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to meet its accuracy target."""


class ToleranceError(RuntimeError):
    """Quadrature could not certify the requested tolerance.

    Carries the best estimate obtained so far in ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


def check_pq(p: float, q: float):
    """Raise DomainError unless p and q both lie in (1, inf); NaN fails."""
    if not (1.0 < p < math.inf and 1.0 < q < math.inf):
        raise DomainError(f"need p, q in (1, inf), got ({p}, {q})")


def check_order(n, least: int = 0) -> int:
    """Return int(n) for a finite integer n >= least (an integral float is
    accepted); raise DomainError otherwise, NaN and inf included."""
    if not (math.isfinite(n) and n >= least) or n != int(n):
        raise DomainError(f"need an integer >= {least}, got {n}")
    return int(n)
