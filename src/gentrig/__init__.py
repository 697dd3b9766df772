"""Generalized trigonometric functions with two parameters.

Library layout:

- ``specfun``: log-gamma, beta, the Pochhammer ratio (a)_n / (b)_n, the
  polished inverse of the regularized incomplete beta function, Gauss
  hypergeometric function on [0, 1].
- ``gtf``: pi_pq, sin_pq, cos_pq, the fused pair sincos_pq, the inverse sine,
  and identity residuals.
- ``integrals``: primitives, definite integrals, Wallis-type formulas, the
  lemniscate catalog, generalized elliptic integrals, the infinite product.
- ``bvp``: closed-form boundary value problem solutions and verifiers.
- ``quadrature``: the independent tanh-sinh integration oracle and its
  Wallis-moment form power_moment.
- ``cli``: the ``gentrig`` command (eval / verify / table).
"""

from . import bvp, gtf, integrals, quadrature, specfun
from .errors import ConvergenceError, DomainError, ToleranceError
from .gtf import (
    ParamPair,
    asin_pq,
    conjugate,
    cos_pq,
    extend_sin_symmetric,
    pi_pq,
    sin_pq,
    sincos_pq,
)
from .quadrature import QuadResult, integrate

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "ParamPair",
    "QuadResult",
    "ToleranceError",
    "asin_pq",
    "bvp",
    "conjugate",
    "cos_pq",
    "extend_sin_symmetric",
    "gtf",
    "integrals",
    "integrate",
    "pi_pq",
    "quadrature",
    "sin_pq",
    "sincos_pq",
    "specfun",
]
