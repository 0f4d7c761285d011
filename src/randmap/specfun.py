"""Special functions: exponential integral E1 (real and complex),
dilogarithm, complementary error function and inverse hyperbolic tangent.

All functions are pure and deterministic.  Real E1 (scalar or array) and the
dilogarithm come from ``scipy.special`` (``exp1`` and ``spence``).  Complex
E1 is implemented here, by its power series near the origin and a
modified-Lentz continued fraction beyond (with the series again where the
fraction stalls, near the negative real axis), because scipy's complex ``exp1``
is less accurate on the positive real axis; the test suite cross-checks
both against independent oracles.

``scipy.special`` is imported by the first call that needs it, not with this
module, so code that never calls ``e1_real`` or ``dilog`` runs without it.
``e1_real`` keeps ``exp1`` in a module global after its first call, because
the quadratures call it thousands of times.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061

_SERIES_RADIUS_COMPLEX = 4.0
_MAX_ITER = 2000
# partial numerators -(j-1)^2 of the contracted fraction, j = 2, 3, ...
_CF_NUMERATORS = (-np.arange(1.0, _MAX_ITER - 1) ** 2).tolist()

_exp1 = None  # scipy.special.exp1, bound by the first e1_real call


class SpecfunDomainError(ValueError):
    """Argument outside a function's domain (e.g. E1 on the branch cut)."""


def _e1_series(z: complex) -> complex:
    # E1(z) = -gamma - log z + sum_{k>=1} (-1)^(k+1) z^k / (k k!)
    p = complex(1.0)
    s = complex(0.0)
    for k in range(1, _MAX_ITER):
        p *= -z / k
        term = -p / k
        s += term
        if abs(term) <= 1e-18 * (abs(s) + 1e-300):
            break
    return s


def _e1_cf(z: complex) -> complex | None:
    # Even-contracted continued fraction e^{-z}/(z+1 - 1/(z+3 - 4/(z+5 - ...)))
    # evaluated by the modified Lentz algorithm; None if it has not converged.
    # No smaller cap keeps every value that converges: on Re z in [-45, -0.5],
    # |Im z| <= 8, points near the negative real axis converge after as many
    # as 1997 iterations, right beside points that stall.
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for a in _CF_NUMERATORS:
        b = b + 2.0
        d = b + a * d
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        return None
    return cmath.exp(-z) * h


def e1_real(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0.

    Takes a scalar or an array; a scalar gives a float.  Every element must
    be > 0 (NaN is rejected too).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise SpecfunDomainError(f"e1_real requires x > 0, got {arr[~(arr > 0.0)][0]}")
    global _exp1
    if _exp1 is None:
        from scipy.special import exp1 as _exp1
    out = _exp1(arr)
    return float(out) if out.ndim == 0 else out


def e1_complex(z: complex) -> complex:
    """Analytic continuation of E1, principal branch (cut on (-inf, 0])."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise SpecfunDomainError(f"e1_complex is undefined on the branch cut, got {z}")
    if abs(z) > _SERIES_RADIUS_COMPLEX:
        if z.real > 700.0:
            return complex(0.0)
        value = _e1_cf(z)
        if value is not None:
            return value
        if z.real >= 0.0:
            raise SpecfunDomainError(f"continued fraction for E1 did not converge at {z!r}")
        # Near the negative real axis the fraction can stall.  There the
        # series terms (-1)^(k+1) z^k/(k k!) nearly share one sign, so they
        # barely cancel and the series keeps full accuracy far past |z| = 4.
    return -EULER_GAMMA - cmath.log(z) + _e1_series(z)


def dilog(x: float) -> float:
    """Dilogarithm Li2(x) = sum_{k>=1} x^k/k^2 for real x <= 1, as spence(1 - x).

    Against mpmath on [-50, 1] the relative error is at most 2.8e-15, except
    near x = 0, where the rounding of 1 - x bounds the error by about 1e-16
    absolute rather than relative.
    """
    if x > 1.0:
        raise SpecfunDomainError(f"dilog requires x <= 1, got {x}")
    from scipy.special import spence

    return float(spence(1.0 - x))


def erfc(x: float) -> float:
    """Complementary error function; underflows to 0 past ~|x| = 27."""
    return math.erfc(x)


def arctanh(x: float) -> float:
    """Inverse hyperbolic tangent, |x| < 1."""
    if not -1.0 < x < 1.0:
        raise SpecfunDomainError(f"arctanh requires |x| < 1, got {x}")
    return math.atanh(x)
