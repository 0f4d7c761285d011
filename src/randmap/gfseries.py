"""Exact truncated power series over the rationals.

Verifies the counting identity for mappings by components and cyclic points:
with tau the labeled-rooted-tree series (tau = x e^tau, coefficients
n^(n-1)/n!), the bivariate series (1/m!) ln(1/(1 - y tau))^m carries
a(n, m, l)/n! at x^n y^l, where a(n, m, l) counts n-mappings with exactly m
components and l cyclic points.  Everything is Fraction arithmetic; the
acceptance comparison against brute-force enumeration is integer-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "RationalSeries",
    "SeriesOrderError",
    "NonIntegerCoefficientError",
    "tree_function_series",
    "tree_equation_residual",
    "component_cycle_egf",
    "a_count",
    "mapping_count_row_sum",
    "cyclic_point_weighted_trend",
]

MAX_TREE_ORDER = 16
MAX_EGF_ORDER = 12


class SeriesOrderError(ValueError):
    """Requested truncation order outside the supported range."""


class NonIntegerCoefficientError(ArithmeticError):
    """An n! * coefficient that must be integral is not (implementation bug)."""


@dataclass(frozen=True)
class RationalSeries:
    """Truncated bivariate series sum c[(i, j)] x^i y^j, exact rationals.

    Truncation is by x-degree; y-degrees never exceed the x-degree here
    because every y comes attached to at least one power of x through tau.
    """

    order: int
    coeffs: tuple  # sorted tuple of ((i, j), Fraction)

    @classmethod
    def from_dict(cls, order: int, d: dict) -> "RationalSeries":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return cls(order=order, coeffs=items)

    def to_dict(self) -> dict:
        return dict(self.coeffs)

    def coefficient(self, xdeg: int, ydeg: int = 0) -> Fraction:
        if xdeg > self.order:
            raise SeriesOrderError(f"x-degree {xdeg} beyond truncation order {self.order}")
        return self.to_dict().get((xdeg, ydeg), Fraction(0))

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        if self.order != other.order:
            raise SeriesOrderError("operands must share the truncation order")
        out: dict = {}
        a = self.to_dict()
        b = other.to_dict()
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                i = i1 + i2
                if i > self.order:
                    continue
                key = (i, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return RationalSeries.from_dict(self.order, out)

    def scaled(self, factor: Fraction) -> "RationalSeries":
        return RationalSeries.from_dict(
            self.order, {k: v * Fraction(factor) for k, v in self.coeffs}
        )


def _tree_coeffs(n_max: int) -> list:
    # [x^n] tau = n^(n-1)/n!
    return [Fraction(0)] + [
        Fraction(n ** (n - 1), math.factorial(n)) for n in range(1, n_max + 1)
    ]


def _series_exp(c: list) -> list:
    """exp of a univariate series with zero constant term (list of Fractions)."""
    n_max = len(c) - 1
    e = [Fraction(0)] * (n_max + 1)
    e[0] = Fraction(1)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * c[k] * e[n - k]
        e[n] = acc / n
    return e


def tree_function_series(n_max: int) -> RationalSeries:
    """The labeled-rooted-tree series tau(x), truncated at x^n_max."""
    if not 1 <= n_max <= MAX_TREE_ORDER:
        raise SeriesOrderError(f"tree series supports 1 <= n_max <= {MAX_TREE_ORDER}")
    tau = _tree_coeffs(n_max)
    return RationalSeries.from_dict(
        n_max, {(n, 0): tau[n] for n in range(1, n_max + 1)}
    )


def tree_equation_residual(n_max: int) -> RationalSeries:
    """tau - x exp(tau) as a truncated series; identically zero coefficients."""
    if not 1 <= n_max <= MAX_TREE_ORDER:
        raise SeriesOrderError(f"tree series supports 1 <= n_max <= {MAX_TREE_ORDER}")
    tau = _tree_coeffs(n_max)
    e = _series_exp(tau)
    resid = {}
    for n in range(0, n_max + 1):
        val = tau[n] - (e[n - 1] if n >= 1 else Fraction(0))
        if val != 0:
            resid[(n, 0)] = val
    return RationalSeries.from_dict(n_max, resid)


@lru_cache(maxsize=64)
def component_cycle_egf(m: int, n_max: int) -> RationalSeries:
    """(1/m!) ln(1/(1 - y tau(x)))^m truncated at x-order n_max."""
    if not 1 <= n_max <= MAX_EGF_ORDER:
        raise SeriesOrderError(f"EGF supports 1 <= n_max <= {MAX_EGF_ORDER}")
    if not 1 <= m <= n_max:
        raise SeriesOrderError(f"need 1 <= m <= n_max, got m={m}")
    tau = _tree_coeffs(n_max)
    # tau^j has lowest x-degree j, so ln(1/(1 - y tau)) truncates at j = n_max
    log_series: dict = {}
    tau_power = [Fraction(0)] * (n_max + 1)
    tau_power[0] = Fraction(1)
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
                log_series[(a, j)] = log_series.get((a, j), Fraction(0)) + tau_power[a] / j
    log_rs = RationalSeries.from_dict(n_max, log_series)
    power = log_rs
    for _ in range(m - 1):
        power = power * log_rs
    return power.scaled(Fraction(1, math.factorial(m)))


def a_count(n: int, m: int, l: int) -> int:
    """Number of n-mappings with exactly m components and l cyclic points.

    An n, m or l that is not an integer raises ValueError; an integral
    float is taken as that integer.
    """
    if not all(-math.inf < k < math.inf and k == int(k) for k in (n, m, l)):
        raise ValueError(f"n, m and l must be integers, got {n}, {m}, {l}")
    n, m, l = int(n), int(m), int(l)
    if not 1 <= n <= MAX_EGF_ORDER:
        raise SeriesOrderError(f"a_count supports 1 <= n <= {MAX_EGF_ORDER}")
    if m < 1 or l < 0:
        raise ValueError("need m >= 1 and l >= 0")
    if l < m or l > n:
        return 0
    coeff = component_cycle_egf(m, n).coefficient(n, l) * math.factorial(n)
    if coeff.denominator != 1:
        raise NonIntegerCoefficientError(
            f"n! * [x^{n} y^{l}] is {coeff}, not an integer"
        )
    return int(coeff)


def mapping_count_row_sum(n: int) -> int:
    """sum over m and l of a(n, m, l); equals n^n."""
    return sum(a_count(n, m, l) for m in range(1, n + 1) for l in range(m, n + 1))


def cyclic_point_weighted_trend(n_max: int, m: int) -> list:
    """Ratios of sum_l l a(n, m, l)/n^n to log(n)^(m-1)/(2^(m-1) (m-1)!).

    Report only: the asymptotic is logarithmic, so no tolerance is attached.
    """
    rows = []
    for n in range(max(m, 2), n_max + 1):
        weighted = sum(l * a_count(n, m, l) for l in range(m, n + 1))
        lead = math.log(n) ** (m - 1) / (2 ** (m - 1) * math.factorial(m - 1))
        rows.append((n, weighted / n**n / lead))
    return rows
