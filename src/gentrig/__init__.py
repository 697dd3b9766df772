"""Generalized trigonometric functions with two parameters.

Library layout:

- ``specfun``: three public functions, beta, the Pochhammer ratio
  (a)_n / (b)_n and the Gauss hypergeometric function on the box the
  elliptic integrals use, plus private kernels of the regularized
  incomplete beta function and its inverse: gtf's for shapes a, b <= 1,
  and the primitives' incomplete beta integral.
- ``gtf``: pi_pq, sin_pq, cos_pq, the fused pair sincos_pq, the inverse sine,
  the appendix's reflection residuals and the symmetric extension.
- ``integrals``: primitives (the definite integral at pi_pq/2), Wallis-type
  formulas, the lemniscate catalog, generalized elliptic integrals with
  Elliott's identity, the infinite product.
- ``bvp``: closed-form boundary value problem solutions, the general
  problem's one verifier general_checks (the ODE as the paper solves it:
  the travel time x/H = I_{sin^q(w x)}(1/q, 1/p), within 2e-13 plus
  rounding, and the phase-plane first integral, both from the oracle) and
  the nonlocal closure.
- ``quadrature``: the independent tanh-sinh integration oracle integrate,
  a batch of m integrands over [0, 1] on shared nodes (f(x, rows), one
  call per level), and beta_integrals, any number of complete or
  incomplete beta integrals in one pass (the Wallis moments and bvp's
  travel times are such rows); neither is re-exported at the top level.
- ``verify``: the identity-verification suites, run(name, grid).
- ``cli``: the ``gentrig`` command (eval / verify / table): it only parses
  its flags, calls the modules above and prints.
"""

from . import bvp, gtf, integrals, quadrature, specfun
from .errors import DomainError, ToleranceError
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

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ParamPair",
    "ToleranceError",
    "asin_pq",
    "bvp",
    "conjugate",
    "cos_pq",
    "extend_sin_symmetric",
    "gtf",
    "integrals",
    "pi_pq",
    "quadrature",
    "sin_pq",
    "sincos_pq",
    "specfun",
]
