"""Special functions: exponential integral E1 (real and complex), the scaled
complementary error function erfcx, dilogarithm, complementary error
function and inverse hyperbolic tangent.

All functions are pure and deterministic, and all are implemented here with
NumPy and the standard library:

* real E1 (scalar or array): its power series, summed by Horner's rule, for
  x <= 1; beyond, the continued fraction E1(x) = e^(-x)/(x + 1/(1 + 1/(x +
  2/(1 + 2/(x + ...))))) evaluated backward from a fixed depth per band of x.
  A scalar runs as a one-element array, so it gets an array element's bits.
* complex E1: its power series near the origin and a modified-Lentz
  continued fraction beyond (with the series again where the fraction
  stalls, near the negative real axis).
* erfcx (real or complex, scalar or array): Weideman's (1994) rational
  series for the Faddeeva function w, erfcx(z) = w(iz), in Re z >= 0, and
  erfcx(z) = 2 e^(z^2) - erfcx(-z) in Re z < 0.  Its 40 coefficients come
  from one FFT on the first call.
* the dilogarithm: the Bernoulli series in -ln(1 - x) on [-1, 1/2], with the
  reflection x -> 1 - x on (1/2, 1] and the inversion x -> 1/x below -1.

The test suite checks each against mpmath and an independent quadrature.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.57721566490153286061

_SERIES_RADIUS_COMPLEX = 4.0
_MAX_ITER = 2000
# partial numerators -(j-1)^2 of the contracted fraction, j = 2, 3, ...
_CF_NUMERATORS = (-np.arange(1.0, _MAX_ITER - 1) ** 2).tolist()

# E1 series coefficients (-1)^(k+1)/(k k!), k = 25 down to 1, for Horner's rule
_E1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(25, 0, -1))
# (upper end of a band of x > 1, depth of the continued fraction on it)
_E1_CF_BANDS = ((2.0, 100), (4.0, 60), (10.0, 40), (math.inf, 28))
_WEIDEMAN_TERMS = 40
# the Bernoulli numbers B_2, B_4, ..., B_24 as (numerator, denominator)
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
    (7, 6), (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
)
# B_2k/(2k+1)!, k = 12 down to 1, for Horner's rule in u^2
_DILOG_SERIES = tuple(
    n / (d * math.factorial(2 * k + 1)) for k, (n, d) in zip(range(12, 0, -1), reversed(_BERNOULLI))
)


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


def _e1_series_real(x):
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k/(k k!); 25 terms reach
    # full precision for x <= 1
    s = 0.0
    for c in _E1_SERIES:
        s = s * x + c
    return (s * x - EULER_GAMMA) - np.log(x)


def _e1_cf_real(x, depth: int):
    # E1(x) = e^(-x)/(x + t_1) with t_k = k/(1 + k/(x + t_(k+1))), t_(depth+1) = 0
    t = 0.0
    for k in range(depth, 0, -1):
        t = k / (1.0 + k / (x + t))
    return np.exp(-x) / (x + t)


def e1_real(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0.

    Takes a scalar or an array; a scalar gives a float, with the bits of the
    same element in an array.  Every element must be > 0 (NaN is rejected
    too).  Against mpmath on [1e-300, 700] the relative error is below 4e-16.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise SpecfunDomainError(f"e1_real requires x > 0, got {arr[~(arr > 0.0)][0]}")
    flat = arr.reshape(-1)  # a scalar runs as an array element, and gets its bits
    out = np.empty_like(flat)
    small = flat <= 1.0
    out[small] = _e1_series_real(flat[small])
    lo = 1.0
    for hi, depth in _E1_CF_BANDS:
        band = (flat > lo) & (flat <= hi)
        if np.any(band):
            out[band] = _e1_cf_real(flat[band], depth)
        lo = hi
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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


def _dilog_series(x: float) -> float:
    # Li2(x) = u - u^2/4 + sum_{k>=1} B_2k u^(2k+1)/(2k+1)! with u = -ln(1 - x);
    # |u| <= ln 2 on [-1, 1/2], where 12 terms reach full precision
    u = -math.log1p(-x)
    u2 = u * u
    s = 0.0
    for c in _DILOG_SERIES:
        s = s * u2 + c
    return u - 0.25 * u2 + u * u2 * s


def dilog(x: float) -> float:
    """Dilogarithm Li2(x) = sum_{k>=1} x^k/k^2 for real x <= 1.

    Against mpmath on [-50, 1] the relative error is below 4e-16, near x = 0
    included.
    """
    if not x <= 1.0:
        raise SpecfunDomainError(f"dilog requires x <= 1, got {x}")
    if x == 1.0:
        return math.pi**2 / 6.0
    if x < -1.0:
        return -math.pi**2 / 6.0 - 0.5 * math.log(-x) ** 2 - _dilog_series(1.0 / x)
    if x > 0.5:
        return math.pi**2 / 6.0 - math.log(x) * math.log1p(-x) - _dilog_series(1.0 - x)
    return _dilog_series(x)


@lru_cache(maxsize=1)
def _weideman_coefficients():
    """L and the polynomial coefficients (highest power first) of Weideman's
    N-term series w(z) = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)) with
    Z = (L + iz)/(L - iz), N = 40."""
    n = _WEIDEMAN_TERMS
    m = 2 * n
    lam = math.sqrt(n / math.sqrt(2.0))
    t = lam * np.tan(np.arange(-m + 1, m) * (math.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (lam * lam + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return lam, tuple(a[n:0:-1].tolist())


def _erfcx_right(z):
    # erfcx(z) = w(iz) for Re z >= 0: with iz in Weideman's series,
    # L - i(iz) = L + z and Z = (L - z)/(L + z)
    lam, coef = _weideman_coefficients()
    d = lam + z
    zz = (lam - z) / d
    p = 0.0
    for c in coef:
        p = p * zz + c
    big = np.abs(d) > 1e152  # d*d overflows past |d| ~ 1.3e154: divide by d twice there
    tail = 2.0 * p / (d * np.where(big, 1.0, d))
    if big.any():
        tail[big] /= d[big]
    return tail + (1.0 / math.sqrt(math.pi)) / d


def erfcx(z):
    """Scaled complementary error function e^(z^2) erfc(z).

    Takes a real or complex scalar or array and keeps its type; a scalar
    gives the bits of the same element in an array.  Against mpmath the
    relative error is below 1e-15 on the real axis to x = 30, on Re z in
    [0, 20] with |Im z| <= 60, and on Re z in [-1, 0) with |Im z| <= 1.
    On Re z >= 0 it stays finite, without a warning, up to |z| = 1e300,
    where it meets the asymptote 1/(sqrt(pi) z).  Farther left the
    reflection e^(z^2) carries the rounding of z^2, about |z|^2 ulp, and
    where e^(z^2) overflows the value is infinite or NaN, without a warning.
    """
    arr = np.asarray(z)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    flat = arr.reshape(-1)  # a scalar runs as an array element, and gets its bits
    left = flat.real < 0.0
    out = _erfcx_right(np.where(left, -flat, flat))
    if np.any(left):
        zl = flat[left]
        with np.errstate(over="ignore", invalid="ignore"):
            out[left] = 2.0 * np.exp(zl * zl) - out[left]
    return out.reshape(arr.shape)[()]


def erfc(x: float) -> float:
    """Complementary error function; underflows to 0 past ~|x| = 27."""
    return math.erfc(x)


def arctanh(x: float) -> float:
    """Inverse hyperbolic tangent, |x| < 1."""
    if not -1.0 < x < 1.0:
        raise SpecfunDomainError(f"arctanh requires |x| < 1, got {x}")
    return math.atanh(x)
