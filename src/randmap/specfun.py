"""Special functions: exponential integral E1 (real and complex), the scaled
complementary error function erfcx, dilogarithm and inverse hyperbolic
tangent.

All functions are pure and deterministic, and all are implemented here with
NumPy and the standard library:

* E1, real or complex, scalar or array, on Re z >= 0: one kernel, chosen
  per point by d = (|z| + Re z)/2 = (Re sqrt z)^2 (x on the real axis).
  Where d <= 1, so |z| <= 2, it sums the power series with a fixed number of
  terms per band of |z|, and elsewhere the continued fraction E1(z) =
  e^(-z)/(z + 1/(1 + 1/(z + 2/(1 + 2/(z + ...))))) backward from a fixed
  depth per band of d.  A scalar runs as a one-element array, so it gets an
  array element's bits.
* erfcx (real or complex, scalar or array) on Re z >= 0: Weideman's (1994)
  rational series for the Faddeeva function w, erfcx(z) = w(iz).  Its 40
  coefficients come from one FFT on the first call.
* the dilogarithm: the Bernoulli series in -ln(1 - x) on [-1, 1/2], with the
  reflection x -> 1 - x on (1/2, 1] and the inversion x -> 1/x below -1.

The engines call E1 and erfcx only on Re z >= 0: the Talbot nodes of
``cycle-cdf`` reach E1 through a principal square root, and the Bromwich
line and the divisibility report reach erfcx at positive multiples of an
eta with Re eta > 0.  Re z < 0 (and an infinite erfcx argument) is refused.

The test suite checks each against mpmath and an independent quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.57721566490153286061

# E1 series coefficients (-1)^(k+1)/(k k!), k = 41 down to 1, for Horner's rule
_E1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(41, 0, -1))
# (upper end of a band of |z|, terms of the series on it) where d <= 1, so
# |z| <= 2: 25 terms reach full precision for |z| <= 1, 41 beyond
_E1_SERIES_BANDS = ((1.0, 25), (4.0, 41))
# (upper end of a band of d > 1, depth of the continued fraction on it)
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


def _e1_series(z, terms: int):
    # E1(z) = -gamma - ln z + sum_{k=1}^terms (-1)^(k+1) z^k/(k k!), by Horner's rule
    s = 0.0
    for c in _E1_SERIES[-terms:]:
        s = s * z + c
    s = s * z
    return (s - EULER_GAMMA) - np.log(z)


def _e1_cf(z, depth: int):
    # E1(z) = e^(-z)/(z + t_1) with t_k = k/(1 + k/(z + t_(k+1))), t_(depth+1) = 0
    t = 0.0
    for k in map(float, range(depth, 0, -1)):  # float operands dispatch faster
        t = k / (1.0 + k / (z + t))
    return np.exp(-z) / (z + t)


def _e1(z, d, modulus):
    # E1 at the points z (float or complex) with Re z >= 0 and z != 0,
    # d = (|z| + Re z)/2: the series where d <= 1, in bands of modulus = |z|,
    # and the continued fraction beyond, in bands of d
    out = np.full_like(z, np.nan)
    near = d <= 1.0
    lo = 0.0
    for hi, terms in _E1_SERIES_BANDS:
        band = near & (modulus > lo) & (modulus <= hi)
        if np.any(band):
            out[band] = _e1_series(z[band], terms)
        lo = hi
    lo = 1.0
    for hi, depth in _E1_CF_BANDS:
        band = (d > lo) & (d <= hi)
        if np.any(band):
            out[band] = _e1_cf(z[band], depth)
        lo = hi
    return out


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
    out = _e1(flat, flat, flat)  # on the real axis d = |x| = x
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def e1_complex(z):
    """E1 on the right half-plane Re z >= 0, z != 0, principal branch.

    Takes a scalar or an array, like ``e1_real``, and runs its kernel.  Re z
    < 0, NaN, z = 0 and an infinite Im z, where the kernel gives no finite
    value, raise SpecfunDomainError, without a warning.  Against mpmath the
    relative error is below 6e-16 on Re z in [0, 40] with |z| up to 650 and
    on the series region |z| <= 2.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.reshape(-1)  # a scalar runs as an array element, and gets its bits
    bad = np.isnan(flat) | (flat.real < 0.0) | (flat == 0.0)
    if np.any(bad):
        raise SpecfunDomainError(f"e1_complex requires Re z >= 0 and z != 0, got {flat[bad][0]}")
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        modulus = np.abs(flat)
        out = _e1(flat, 0.5 * (modulus + flat.real), modulus)
    if not np.all(np.isfinite(out)):
        raise SpecfunDomainError(f"e1_complex has no finite value at {flat[~np.isfinite(out)][0]}")
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
    # d*d overflows past |d| ~ 1.3e154, and near the float maximum so does a
    # complex quotient by d: where |d| > 1e152 each quotient is by d/4, its
    # numerator scaled by the same exact power of 2, and by d twice, not d*d
    big = np.abs(d) > 1e152
    scale = np.where(big, 0.25, 1.0)
    dq = scale * d
    zz = scale * (lam - z) / dq
    p = 0.0
    for c in coef:
        p = p * zz + c
    tail = 2.0 * scale * scale * p / (dq * np.where(big, 1.0, dq))
    if big.any():
        tail[big] /= dq[big]
    return tail + (scale / math.sqrt(math.pi)) / dq


def erfcx(z):
    """Scaled complementary error function e^(z^2) erfc(z) for Re z >= 0.

    Takes a real or complex scalar or array and keeps its type; a scalar
    gives the bits of the same element in an array.  Re z < 0, NaN and an
    infinite real or imaginary part raise SpecfunDomainError, before any
    arithmetic and without a warning.  Against mpmath the relative
    error is below 1e-15 on the real axis to x = 30 and on Re z in [0, 20]
    with |Im z| <= 60.  It stays finite, without a warning, up to the
    largest finite |z|, where it meets the asymptote 1/(sqrt(pi) z).
    """
    arr = np.asarray(z)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    flat = arr.reshape(-1)  # a scalar runs as an array element, and gets its bits
    bad = ~np.isfinite(flat) | (flat.real < 0.0)
    if np.any(bad):
        raise SpecfunDomainError(f"erfcx requires finite z with Re z >= 0, got {flat[bad][0]}")
    return _erfcx_right(flat).reshape(arr.shape)[()]


def arctanh(x: float) -> float:
    """Inverse hyperbolic tangent, |x| < 1."""
    if not -1.0 < x < 1.0:
        raise SpecfunDomainError(f"arctanh requires |x| < 1, got {x}")
    return math.atanh(x)
