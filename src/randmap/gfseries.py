"""Exact truncated power series over the rationals.

Verifies the counting identity for mappings by components and cyclic points:
with tau the labeled-rooted-tree series (tau = x e^tau, coefficients
n^(n-1)/n!), the bivariate series (1/m!) ln(1/(1 - y tau))^m carries
a(n, m, l)/n! at x^n y^l, where a(n, m, l) counts n-mappings with exactly m
components and l cyclic points.

A bivariate series is a plain dict {(i, j): Fraction} holding its nonzero
coefficients of x^i y^j, truncated by x-degree; y-degrees never exceed the
x-degree here because every y comes attached to at least one power of x
through tau.  Everything is Fraction arithmetic; the acceptance comparison
against brute-force enumeration is integer-exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "SeriesOrderError",
    "NonIntegerCoefficientError",
    "component_cycle_egf",
    "a_count",
]

MAX_EGF_ORDER = 12


class SeriesOrderError(ValueError):
    """Requested truncation order outside the supported range."""


class NonIntegerCoefficientError(ArithmeticError):
    """An n! * coefficient that must be integral is not (implementation bug)."""


def _is_integer(k) -> bool:
    """Whether k is an int or an integral float."""
    return -math.inf < k < math.inf and k == int(k)


def _tree_coeffs(n_max: int) -> list:
    # [x^n] tau = n^(n-1)/n!
    return [Fraction(0)] + [Fraction(n ** (n - 1), math.factorial(n)) for n in range(1, n_max + 1)]


def _truncated_product(a: dict, b: dict, order: int) -> dict:
    """a * b without the terms above x-degree ``order`` or zero coefficients."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i = i1 + i2
            if i <= order:
                key = (i, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=64)
def component_cycle_egf(m: int, n_max: int) -> dict:
    """(1/m!) ln(1/(1 - y tau(x)))^m truncated at x-order n_max, as the dict
    {(i, j): Fraction} of its nonzero coefficients.  The dict is the cached
    value itself: callers must not mutate it.  An m or n_max that is not an
    integer raises SeriesOrderError; an integral float is taken as that
    integer."""
    if not all(_is_integer(k) for k in (m, n_max)):
        raise SeriesOrderError(f"m and n_max must be integers, got {m}, {n_max}")
    m, n_max = int(m), int(n_max)
    if not 1 <= n_max <= MAX_EGF_ORDER:
        raise SeriesOrderError(f"EGF supports 1 <= n_max <= {MAX_EGF_ORDER}")
    if not 1 <= m <= n_max:
        raise SeriesOrderError(f"need 1 <= m <= n_max, got m={m}")
    tau = _tree_coeffs(n_max)
    # ln(1/(1 - y tau)) = sum_j y^j tau^j / j, and tau^j has lowest x-degree
    # j, so the sum truncates at j = n_max
    log_series: dict = {}
    tau_power = [Fraction(1)] + [Fraction(0)] * n_max
    for j in range(1, n_max + 1):
        nxt = [Fraction(0)] * (n_max + 1)
        for a in range(j - 1, n_max + 1):
            if tau_power[a] == 0:
                continue
            for b in range(1, n_max + 1 - a):
                nxt[a + b] += tau_power[a] * tau[b]
        tau_power = nxt
        for a in range(j, n_max + 1):
            if tau_power[a] != 0:
                log_series[(a, j)] = tau_power[a] / j
    power = log_series
    for _ in range(m - 1):
        power = _truncated_product(power, log_series, n_max)
    scale = Fraction(1, math.factorial(m))
    return {k: v * scale for k, v in power.items()}


def a_count(n: int, m: int, l: int) -> int:
    """Number of n-mappings with exactly m components and l cyclic points.

    An n, m or l that is not an integer raises ValueError; an integral
    float is taken as that integer.
    """
    if not all(_is_integer(k) for k in (n, m, l)):
        raise ValueError(f"n, m and l must be integers, got {n}, {m}, {l}")
    n, m, l = int(n), int(m), int(l)
    if not 1 <= n <= MAX_EGF_ORDER:
        raise SeriesOrderError(f"a_count supports 1 <= n <= {MAX_EGF_ORDER}")
    if m < 1 or l < 0:
        raise ValueError("need m >= 1 and l >= 0")
    if l < m or l > n:
        return 0
    coeff = component_cycle_egf(m, n).get((n, l), 0) * math.factorial(n)
    if coeff.denominator != 1:
        raise NonIntegerCoefficientError(f"n! * [x^{n} y^{l}] is {coeff}, not an integer")
    return int(coeff)
