"""Exception types and domain checks shared across the package.

Two exceptions: DomainError for an argument outside a function's domain,
and ToleranceError, the quadrature oracle's failure to certify a
tolerance.  No other loop of the package gives up on a budget: hyp2f1's
series stop within term counts proved for its box (specfun)."""

from __future__ import annotations

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class ToleranceError(RuntimeError):
    """Quadrature could not certify the requested tolerance.

    Carries the best estimate obtained so far in ``result``.  ``layer``
    names the module that gave up, ``budget`` the number of refinement
    levels it was allowed (and ran: it gives up only after the last),
    ``evaluations`` the integrand values each failing integrand used, and
    ``rows`` the indices of those that failed in their batch.
    """

    def __init__(self, message, result=None, *, layer=None, evaluations=None,
                 budget=None, rows=None):
        super().__init__(message)
        self.result = result
        self.layer = layer
        self.evaluations = evaluations
        self.budget = budget
        self.rows = rows


def check_pq(p: float, q: float) -> tuple[float, float]:
    """(float(p), float(q)) where p and q both lie in (1, inf); DomainError
    otherwise.  NaN fails the test, and so does an int beyond the doubles,
    which passes it (10**400 < inf holds) but not float()."""
    try:
        if 1.0 < p < math.inf and 1.0 < q < math.inf:  # written so that NaN fails
            return float(p), float(q)
    except OverflowError:  # an int beyond the doubles
        pass
    raise DomainError(f"need p, q in (1, inf), got ({p}, {q})")


def as_float(x, what: str) -> float:
    """float(x), or DomainError naming what where x is an int beyond the
    doubles, which a range test may pass (10**400 < inf holds)."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"need {what} within the doubles") from None


def as_floats(x, what: str):
    """as_float for arrays: np.asarray(x, dtype=float), a float array as it
    is and anything else converted (0-d at a number), or DomainError where
    x holds an int beyond the doubles.  No caller writes into the result."""
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:
        raise DomainError(f"need {what} within the doubles") from None


def within(x, lo: float, hi: float) -> bool:
    """lo <= x <= hi at every point of the float array x (an empty array
    passes), by one min() and one max() instead of two full-size masks.
    Both reductions propagate NaN, and every comparison with NaN is false,
    so NaN fails."""
    return x.size == 0 or bool(lo <= x.min() and x.max() <= hi)


def check_order(n, least: int = 0, what: str | None = None) -> int:
    """Return int(n) for a finite integer n >= least (an integral float is
    accepted); raise DomainError otherwise, NaN, inf and an int beyond the
    doubles included.  what, if given, names the rejected argument at the
    head of the message."""
    try:
        if math.isfinite(n) and n >= least and n == int(n):
            return int(n)
    except OverflowError:  # math.isfinite of an int beyond the doubles
        pass
    head = f"{what}: " if what else ""
    raise DomainError(f"{head}need an integer >= {least}, got {n}")
