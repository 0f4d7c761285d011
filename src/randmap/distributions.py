"""Limiting laws for cycles and components of random mappings.

Scalings: cycle lengths and the cyclic-point count N live on the sqrt(n)
scale; component sizes live on the n scale.  Three regimes for the law of
N/sqrt(n) are supported:

* rayleigh     nu exp(-nu^2/2)                   unconstrained mappings
* halfnormal   sqrt(2/pi) exp(-nu^2/2)           component count fixed or
                                                 growing slower than log n
* pavlov(c)    (2^c Gamma(c)/(sqrt(2 pi) Gamma(2c))) nu^(2c) e^(-nu^2/2)
               component count ~ c log n; c = 1/2 recovers rayleigh and the
               c -> 0 limit recovers halfnormal

Conditioned on N = nu sqrt(n), the cyclic points form a uniform random
permutation, so P{r-th longest cycle <= lambda sqrt(n) | N} is the rank-r
Dickman value rho_r(nu/lambda); mixing against the regime density yields the
unconditional CDFs and joint densities below.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _quad, dde
from .specfun import SpecfunDomainError

__all__ = [
    "Regime",
    "perm_longest_cycle_cdf",
    "largest_component_cdf",
    "mapping_longest_cycle_cdf",
    "joint_density",
    "cyclic_points_density",
    "connected_cycle_cdf",
]

_NU_CUT = 8.75  # exp(-nu^2/2) < 3e-17 beyond; truncation noted in error budget
# N-density mass a truncated window may drop: the pavlov tail past _NU_CUT
# stays below it up to c = 3, so those keep the rayleigh window
_TAIL_TOL = 1e-13
# the pavlov log-density cancels terms of size c log(2c), so its relative
# error grows like c log(2c) 2^-53, about 1e-10 at this bound
_PAVLOV_C_MAX = 1e5


@dataclass(frozen=True)
class Regime:
    """Which limiting density of N/sqrt(n) applies."""

    tag: str
    c: float | None = None

    def __post_init__(self):
        if self.tag not in ("rayleigh", "halfnormal", "pavlov"):
            raise ValueError(f"unknown regime {self.tag!r}")
        if self.tag == "pavlov":
            if self.c is None or not 0.0 <= self.c <= _PAVLOV_C_MAX:
                raise ValueError(
                    f"pavlov regime requires finite c in [0, {_PAVLOV_C_MAX:g}], got {self.c}"
                )

    @classmethod
    def rayleigh(cls) -> "Regime":
        return cls(tag="rayleigh")

    @classmethod
    def halfnormal(cls) -> "Regime":
        return cls(tag="halfnormal")

    @classmethod
    def pavlov(cls, c: float) -> "Regime":
        return cls(tag="pavlov", c=float(c))


def cyclic_points_density(nu, regime: Regime):
    """Limiting density of N/sqrt(n) under the regime; nu > 0."""
    arr = np.asarray(nu, dtype=float)
    if np.any(arr <= 0.0):
        raise SpecfunDomainError("cyclic-point density defined for nu > 0")
    if regime.tag == "pavlov":
        # in log space: for large c the coefficient underflows where nu^(2c)
        # overflows.  2^c Gamma(c)/(sqrt(2 pi) Gamma(2c)) = 2^(1/2-c)/Gamma(c+1/2)
        # by the duplication formula, which is finite at c = 0 (halfnormal)
        c = regime.c
        log_coef = (0.5 - c) * math.log(2.0) - math.lgamma(c + 0.5)
        out = np.exp(log_coef + 2.0 * c * np.log(arr) - arr * arr / 2.0)
    else:
        gauss = np.exp(-arr * arr / 2.0)
        out = arr * gauss if regime.tag == "rayleigh" else math.sqrt(2.0 / math.pi) * gauss
    return float(out) if np.isscalar(nu) else out


def _nu_window(regime: Regime):
    """Edges that bound the N-density's mass to within _TAIL_TOL.

    [0, _NU_CUT] unless the pavlov mass beyond _NU_CUT may exceed _TAIL_TOL;
    then the density's mode sqrt(2c) -/+ _NU_CUT, split at the mode.  The
    log-density has second derivative -1 - 2c/nu^2 <= -1, so the mass beyond
    a point x past the mode is at most density(x) / (x - 2c/x), and the mass
    more than _NU_CUT from the mode is below 3e-17 for every c.
    """
    if regime.tag != "pavlov":
        return [0.0, _NU_CUT]
    two_c = 2.0 * regime.c
    if _NU_CUT * _NU_CUT > two_c:
        tail = cyclic_points_density(_NU_CUT, regime) / (_NU_CUT - two_c / _NU_CUT)
        if tail <= _TAIL_TOL:
            return [0.0, _NU_CUT]
    mode = math.sqrt(two_c)
    return [max(mode - _NU_CUT, 0.0), mode, mode + _NU_CUT]


@lru_cache(maxsize=16)
def _rank_solution(r: int):
    return dde.dickman_solution(r)


def perm_longest_cycle_cdf(a: float, r: int = 1) -> float:
    """Limiting P{r-th longest cycle of a permutation <= a n} = rho_r(1/a).

    rho_r is 1 on [0, r]; its fitted pieces there read up to a few ulps
    above 1, so the value is capped at 1.
    """
    if not 0.0 < a <= 1.0:
        raise SpecfunDomainError(f"requires a in (0, 1], got {a}")
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    return min(float(_rank_solution(r)(1.0 / a)), 1.0)


def largest_component_cdf(a: float) -> float:
    """Limiting P{largest component <= a n} = sqrt(1/a) sigma(1/a)."""
    if not 0.0 < a <= 1.0:
        raise SpecfunDomainError(f"requires a in (0, 1], got {a}")
    sol = dde.watterson_solution()
    return float(dde.sigma_tilde(sol, 1.0 / a))


def connected_cycle_cdf(b: float) -> float:
    """CDF of the cycle length of a connected mapping: half-normal law.

    0 for b <= 0; NaN raises SpecfunDomainError.
    """
    if math.isnan(b):
        raise SpecfunDomainError(f"requires b to be a number, got {b}")
    if b <= 0.0:
        return 0.0
    return math.erf(b / math.sqrt(2.0))


def _rank_values(sol, x):
    """rho_r at possibly deep arguments: treat anything past the solved
    domain as 0 (the solution there is below the Gaussian weight's noise).
    A float takes the solution's scalar path and gives a float."""
    if isinstance(x, float):
        return sol(x) if x <= sol.x_max else 0.0
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = x <= sol.x_max
    if np.any(inside):
        out[inside] = sol(x[inside])
    return out


def mapping_longest_cycle_cdf(b: float, r: int = 1, regime: Regime = Regime.rayleigh()) -> float:
    """Limiting P{r-th longest cycle of a mapping <= b sqrt(n)}.

    Integral of the regime's N-density against rho_r(nu/b), with panels split
    at the integrand's kink abscissae nu = b, 2b, ... on the window of
    _nu_window: [0, 8.75], where the Gaussian weight ends below 3e-17, or a
    window around the mode when the pavlov mass past 8.75 may exceed
    _TAIL_TOL (c above about 3).  The integrand is 0 past nu = x_max b, so
    kinks stop at (x_max + 1) b: the panels they would split add exactly 0,
    and small b costs no more than b = 8.75 / (x_max + 1).  The 32 nodes of
    every panel go into one (panels, 32) array and one density call.  A
    window that starts at 0 begins with the panels [kb, (k+1)b], k = 0, 1, ...,
    up to its next edge; at their nodes nu/b is k + (1 + x_i)/2 up to
    rounding, so rho_r there is row k of the solution's 32-node
    ``unit_table``.  Only the remaining panels, the last partial one and
    those of a mode window, evaluate rho_r at nu/b node by node.  Each
    panel's sum is sum(w * density * rho), and the panel sums are added in
    edge order.  For subnormal b the nodes of [0, b] may round to 0; that
    panel adds less than b and is skipped, and nu / b may overflow to inf,
    where rho_r is 0.
    """
    if not b > 0.0:
        raise SpecfunDomainError(f"requires b > 0, got {b}")
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    sol = _rank_solution(r)
    window = _nu_window(regime)
    lo, hi = window[0], window[-1]
    kinks = [k * b for k in range(1, int(min(hi / b, sol.x_max + 1.0)) + 1)]
    # a sorted set rather than np.unique, whose first call imports numpy.ma
    # (about 12 ms of a cold `randmap cdf`)
    edges = np.array(sorted({*window, *(k for k in kinks if lo < k < hi)}))
    # panels [kb, (k+1)b] from 0 to the window's next edge; at most x_max + 1
    tabled = bisect.bisect_left(kinks, window[1]) if lo == 0.0 else 0
    _, w = _quad.gl_rule(32)
    nu, half = _quad.gl_nodes(edges[:-1], edges[1:], 32)
    skip = 0 if nu[0, 0] > 0.0 else 1  # only [0, b], a table panel, can round to 0
    nu, half = nu[skip:], half[skip:]
    tabled -= skip
    rho = np.empty_like(nu)
    rho[:tabled] = sol.unit_table(32)[skip : skip + tabled]
    with np.errstate(over="ignore"):
        rho[tabled:] = _rank_values(sol, nu[tabled:] / b)
    weighted = w * cyclic_points_density(nu, regime)
    sums = np.sum(weighted * rho, axis=1)
    total = 0.0
    for h, s in zip(half.tolist(), sums.tolist()):
        total += h * s
    return min(max(total, 0.0), 1.0)


@dataclass(frozen=True)
class JointPoint:
    """Scaled (cycle length, cyclic-point count) coordinates, units sqrt(n)."""

    lam: float
    nu: float


def joint_density(p: JointPoint, r: int = 1, regime: Regime = Regime.rayleigh()) -> float:
    """Joint density of (r-th longest cycle, N)/sqrt(n) under the regime.

    w(nu) [rho_r - rho_{r-1}](nu/lambda - 1) / lambda on 0 < lambda < nu,
    with rho_0 identically 0; zero outside the support.
    """
    if p.lam <= 0.0 or p.nu <= 0.0:
        raise SpecfunDomainError(f"joint density requires positive coordinates, got {p}")
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if p.nu <= p.lam:
        return 0.0
    arg = p.nu / p.lam - 1.0
    val = _rank_values(_rank_solution(r), arg)
    if r > 1:
        val -= _rank_values(_rank_solution(r - 1), arg)
    return cyclic_points_density(p.nu, regime) * val / p.lam
