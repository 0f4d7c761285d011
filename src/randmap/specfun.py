"""Special functions: exponential integral E1 (real and complex), the scaled
complementary error function erfcx, dilogarithm and inverse hyperbolic
tangent.

All functions are pure and deterministic, and all are implemented here with
NumPy and the standard library:

* E1, real or complex, scalar or array: one kernel, chosen per point by
  d = (|z| + Re z)/2 = (Re sqrt z)^2 (x on the real axis).  Where d <= 1 it
  sums the power series with a fixed number of terms per band of |z|, and
  elsewhere the continued fraction E1(z) = e^(-z)/(z + 1/(1 + 1/(z + 2/(1 +
  2/(z + ...))))) backward from a fixed depth per band of d.  A scalar runs
  as a one-element array, so it gets an array element's bits.
* erfcx (real or complex, scalar or array): Weideman's (1994) rational
  series for the Faddeeva function w, erfcx(z) = w(iz), in Re z >= 0, and
  erfcx(z) = 2 e^(z^2) - erfcx(-z) in Re z < 0.  Its 40 coefficients come
  from one FFT on the first call.
* the dilogarithm: the Bernoulli series in -ln(1 - x) on [-1, 1/2], with the
  reflection x -> 1 - x on (1/2, 1] and the inversion x -> 1/x below -1.

The test suite checks each against mpmath and an independent quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

EULER_GAMMA = 0.57721566490153286061

# E1 series coefficients (-1)^(k+1)/(k k!), k = 41 down to 1, for Horner's rule
_E1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(41, 0, -1))
# (upper end of a band of |z|, terms of the series on it) where d <= 1: 25
# terms reach full precision for |z| <= 1, ceil(e |z|) + 30 beyond
_E1_SERIES_BANDS = ((1.0, 25),) + tuple(
    (2.0**j, math.ceil(math.e * 2.0**j) + 30) for j in range(2, 11)
)
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
    # E1(z) = -gamma - ln z + sum_{k=1}^terms (-1)^(k+1) z^k/(k k!): by Horner's
    # rule while _E1_SERIES holds the terms, else forward, as k! overflows (the
    # long sums run near the negative real axis, where the terms barely cancel)
    if terms <= len(_E1_SERIES):
        s = 0.0
        for c in _E1_SERIES[-terms:]:
            s = s * z + c
        s = s * z
    else:
        p, s, minus_z = 1.0, 0.0, -z  # p = (-z)^k/k!
        for k in range(1, terms + 1):
            p = p * minus_z / k
            s = s - p / k
    return (s - EULER_GAMMA) - np.log(z)


def _e1_cf(z, depth: int):
    # E1(z) = e^(-z)/(z + t_1) with t_k = k/(1 + k/(z + t_(k+1))), t_(depth+1) = 0
    t = 0.0
    for k in map(float, range(depth, 0, -1)):  # float operands dispatch faster
        t = k / (1.0 + k / (z + t))
    return np.exp(-z) / (z + t)


def _e1(z, d, modulus):
    # E1 at the points z (float or complex) off the branch cut, d = (|z| + Re z)/2:
    # the series where d <= 1, in bands of modulus = |z|, and the continued
    # fraction beyond, in bands of d; a point past every series band stays NaN
    out = np.full_like(z, np.nan)
    near = d <= 1.0
    top = modulus[near].max(initial=0.0)
    lo = 0.0
    for hi, terms in _E1_SERIES_BANDS:
        if lo >= top:
            break
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
    """Analytic continuation of E1, principal branch (cut on (-inf, 0]).

    Takes a scalar or an array, like ``e1_real``, and runs its kernel.  NaN,
    the cut and a value that overflows (Re z below about -709) raise
    SpecfunDomainError, without a warning.  Against mpmath the relative error
    is below 3e-15 on Re z in [-45, -0.5] with |Im z| <= 8 and on [-40, 40]
    x [-30, 30], and below 6e-15 for |z| up to 650 (the long series sums).
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.reshape(-1)  # a scalar runs as an array element, and gets its bits
    bad = np.isnan(flat) | ((flat.imag == 0.0) & (flat.real <= 0.0))
    if np.any(bad):
        raise SpecfunDomainError(f"e1_complex is undefined at NaN and on the cut: {flat[bad][0]}")
    with np.errstate(all="ignore"):  # an overflow is refused below
        modulus = np.abs(flat)
        out = _e1(flat, 0.5 * (modulus + flat.real), modulus)
    if not np.all(np.isfinite(out)):
        raise SpecfunDomainError(f"e1_complex overflows at {flat[~np.isfinite(out)][0]}")
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
    """Scaled complementary error function e^(z^2) erfc(z).

    Takes a real or complex scalar or array and keeps its type; a scalar
    gives the bits of the same element in an array.  Against mpmath the
    relative error is below 1e-15 on the real axis to x = 30, on Re z in
    [0, 20] with |Im z| <= 60, and on Re z in [-1, 0) with |Im z| <= 1.
    On Re z >= 0 it stays finite, without a warning, up to the largest
    finite |z|, where it meets the asymptote 1/(sqrt(pi) z).  On the left
    the reflection 2 e^(z^2) - erfcx(-z) takes Re z^2 as (x - y)(x + y) and
    the phase 2xy as an exact two-double product, so e^(z^2) keeps its
    modulus and phase while z^2 is finite: the left diagonals, where
    |erfcx| is about 2, stay within 1e-15 of mpmath up to |z| = 1e150.
    Where e^(z^2) overflows the value is infinite or NaN, without a warning:
    NaN wherever z^2 itself overflows (|z| past about 1.3e154), save on the
    real axis, where e^(z^2) is +inf.
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
            zz = zl * zl
            # e^(zz) would keep the rounding of x^2 - y^2 and of 2xy, about
            # |z|^2 ulp of modulus and phase; ez2 + ez2 is no complex product
            ez2 = _exp_square(zl) if np.iscomplexobj(zl) else np.exp(zz)
            value = ez2 + ez2 - out[left]
        # past |z| ~ 1.3e154 z*z overflows, and e^(z^2) then tells nothing of
        # the value's size, save on the real axis (z*z = +inf): NaN there
        out[left] = np.where(np.isfinite(zz) | (zz == math.inf), value, math.nan)
    return out.reshape(arr.shape)[()]


def _two_product_error(a, b, p):
    """a * b - p, exactly, for p = fl(a * b): Dekker's product of the halves
    that Veltkamp's split by 2^27 + 1 gives (no overflow below about 1e300)."""
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _exp_square(z):
    """e^(z^2) for complex z from e^((x - y)(x + y)) and the phase 2xy = 2p + 2q,
    xy = p + q exactly; not finite where it overflows, or 2xy does, save on
    the real axis, where the phase is 0 and so is the imaginary part."""
    x, y = z.real, z.imag
    re = (x - y) * (x + y)
    p = x * y
    q = np.where(y == 0.0, 0.0, _two_product_error(x, y, p))  # its split overflows past 1.3e300
    cp, sp = np.cos(2.0 * p), np.sin(2.0 * p)
    cq, sq = np.cos(2.0 * q), np.sin(2.0 * q)
    mag = np.exp(re)
    out = np.empty_like(z)
    out.real = mag * (cp * cq - sp * sq)
    sin = sp * cq + cp * sq
    out.imag = np.where(sin == 0.0, sin, mag * sin)  # a zero phase, not inf * 0
    return out


def arctanh(x: float) -> float:
    """Inverse hyperbolic tangent, |x| < 1."""
    if not -1.0 < x < 1.0:
        raise SpecfunDomainError(f"arctanh requires |x| < 1, got {x}")
    return math.atanh(x)
