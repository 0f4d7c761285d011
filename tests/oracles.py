"""Closed forms the tests check the engines against; the package does not use them."""

import math

import numpy as np
from numpy.polynomial import chebyshev

from randmap.dde import _STRETCH, X_MAX, EvaluationRangeError
from randmap.specfun import SpecfunDomainError, dilog


def hk_closed_form(k: int, xi: float) -> float:
    """Closed forms of L^-1[E(eta)^k / eta], available for k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"closed form available for k in {{0,1,2}}, got {k}")
    if not 0.0 <= xi < math.inf:
        raise SpecfunDomainError(f"xi must be finite and >= 0, got {xi}")
    if k == 0:
        return 1.0
    if k == 1:
        return math.log(xi) if xi >= 1.0 else 0.0
    if xi < 2.0:
        return 0.0
    return -math.pi**2 / 6.0 + math.log(xi) ** 2 + 2.0 * dilog(1.0 / xi)


def derivative(sol, x: float) -> float:
    """d/dx of a DDE solution's stored interpolant (pieces region only, x > 2)."""
    if not 2.0 < x <= X_MAX:
        raise EvaluationRangeError("interpolant derivative defined on (2, x_max]")
    idx = min(int(math.floor(x - 2.0)), len(sol.coef) - 1)
    s = (x - (idx + 2.0)) ** (1.0 / _STRETCH)
    dg_dzeta = chebyshev.chebval(2.0 * s - 1.0, chebyshev.chebder(sol.coef[idx]))
    return float(dg_dzeta * 2.0 / (_STRETCH * s ** (_STRETCH - 1)))


def dde_residual(sol, x: float) -> float:
    """Residual of a solution's delay equation at x, from its interpolant's derivative."""
    g = sol(x)
    gd = sol(x - 1.0)
    gp = derivative(sol, x)
    if sol.theta is not None:
        return x * gp + (1.0 - sol.theta) * g + sol.theta * gd
    return x * gp + gd - sol.lower(x - 1.0)


def residual_grid(sol) -> np.ndarray:
    """Interior sample points of a solution away from breakpoints, one set per piece."""
    s = np.linspace(0.3, 0.98, 9)
    return (2.0 + np.arange(len(sol.coef))[:, None] + s**_STRETCH).ravel()
