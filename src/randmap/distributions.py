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
    """Limiting density of N/sqrt(n) under the regime; nu > 0 and finite.

    A Python float gives a float by the same NumPy ufuncs on the scalar,
    which match their array loop bit for bit, so it equals the element of
    an array holding it; ``math.exp`` would not.  Anything else goes
    through an array.
    """
    if isinstance(nu, float):
        if not 0.0 < nu < math.inf:
            raise SpecfunDomainError(f"cyclic-point density defined for finite nu > 0, got {nu}")
        return float(_density(nu, regime))
    arr = np.asarray(nu, dtype=float)
    if not ((0.0 < arr) & (arr < math.inf)).all():
        raise SpecfunDomainError("cyclic-point density defined for finite nu > 0")
    out = _density(arr, regime)
    return float(out) if np.isscalar(nu) else out


def _density(nu, regime: Regime):
    """The regime's density at nu > 0 (a float or an array), unchecked."""
    if regime.tag == "pavlov":
        # in log space: for large c the coefficient underflows where nu^(2c)
        # overflows.  2^c Gamma(c)/(sqrt(2 pi) Gamma(2c)) = 2^(1/2-c)/Gamma(c+1/2)
        # by the duplication formula, which is finite at c = 0 (halfnormal)
        c = regime.c
        log_coef = (0.5 - c) * math.log(2.0) - math.lgamma(c + 0.5)
        return np.exp(log_coef + 2.0 * c * np.log(nu) - nu * nu / 2.0)
    gauss = np.exp(nu * nu * -0.5)  # the bits of -nu*nu/2: halving is exact
    return nu * gauss if regime.tag == "rayleigh" else math.sqrt(2.0 / math.pi) * gauss


@lru_cache(maxsize=64)
def _nu_window(regime: Regime):
    """Edges that bound the N-density's mass to within _TAIL_TOL.

    [0, _NU_CUT] unless the pavlov mass beyond _NU_CUT may exceed _TAIL_TOL;
    then the density's mode sqrt(2c) -/+ _NU_CUT, split at the mode.  The
    log-density has second derivative -1 - 2c/nu^2 <= -1, so the mass beyond
    a point x past the mode is at most density(x) / (x - 2c/x), and the mass
    more than _NU_CUT from the mode is below 3e-17 for every c.  The mixture
    CDF may end a window that starts at 0 on the next kink past its end;
    that piece lies in this bounded tail, so it moves a value by at most the
    tail bound (up to 7e-14 at c = 3, below rounding for c <= 1).
    Cached per regime: callers must not mutate the list.
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


def _check_rank(r) -> None:
    """ValueError for a rank below 1, and the solver layer's DdeError for
    one that is not an integer, before any solve."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if not (r < math.inf and r == int(r)):
        raise dde.DdeError(f"the limit laws require an integer rank, got {r}")


@lru_cache(maxsize=16)
def _rank_solution(r: int):
    return dde.dickman_solution(r)


def _reciprocal(a) -> float:
    """1/a, or SpecfunDomainError naming a unless a is in [1/64, 1]."""
    x = 1.0 / float(a) if 0.0 < a <= 1.0 else math.nan
    if not x <= dde.X_MAX * (1.0 + 1e-12):  # the solutions' own slack at X_MAX
        raise SpecfunDomainError(f"requires a in [1/{dde.X_MAX}, 1], got {a}")
    return x


def perm_longest_cycle_cdf(a: float, r: int = 1) -> float:
    """Limiting P{r-th longest cycle of a permutation <= a n} = rho_r(1/a).

    rho_r is 1 on [0, r]; its fitted pieces there read up to a few ulps
    above 1, so the value is capped at 1.  The solutions cover 1/a <= 64:
    an a outside [1/64, 1] raises SpecfunDomainError before any solve.
    """
    x = _reciprocal(a)
    _check_rank(r)
    return min(float(_rank_solution(r)(x)), 1.0)


def largest_component_cdf(a: float) -> float:
    """Limiting P{largest component <= a n} = sqrt(1/a) sigma(1/a), for a
    in [1/64, 1] as ``perm_longest_cycle_cdf``."""
    x = _reciprocal(a)
    return float(dde.sigma_tilde(dde.watterson_solution(), x))


def connected_cycle_cdf(b: float, r: int = 1) -> float:
    """Limiting P{r-th longest cycle of a connected mapping <= b sqrt(n)}.

    A connected mapping has one cycle, whose length follows the half-normal
    law, so rank 1 is erf(b / sqrt 2) (0 for b <= 0) and every rank r >= 2,
    where the r-th longest cycle is 0, is 1 for b >= 0.  NaN raises
    SpecfunDomainError, and a rank that is not an integer DdeError, as for
    the other laws.
    """
    if math.isnan(b):
        raise SpecfunDomainError(f"requires b to be a number, got {b}")
    _check_rank(r)
    if r > 1 and b >= 0.0:
        return 1.0
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

    Integral of the regime's N-density against rho_r(nu/b) on the window of
    _nu_window: [0, 8.75], where the Gaussian weight ends below 3e-17, or a
    window around the mode when the pavlov mass past 8.75 may exceed
    _TAIL_TOL (c above about 3).  ``_quad.kink_panels`` splits it into
    32-node panels at the integrand's kinks nu = b, 2b, ...: a panel
    [kb, (k+1)b] reads rho_r from row k of the solution's 32-node
    ``unit_table``, and only pieces off the kinks evaluate rho_r at nu/b node
    by node.  The integrand is 0 past nu = x_max b, so kinks stop at
    (x_max + 1) b, and small b costs no more than b = 8.75 / (x_max + 1).
    A window that starts at 0, with b at most half its end, ends on the
    first kink at or past its end (or at (x_max + 1) b): on [0, 8.75] with
    b <= 4.375 a warm call evaluates the solution nowhere, and a pavlov
    window split at the mode only on the pieces at the split.  The piece
    this adds past the end lies in the tail that _nu_window bounds.  All
    nodes go into one density call; each panel's sum is
    sum(w * density * rho), and the panel sums are added in edge order.
    For subnormal b the nodes of [0, b] may round to 0; that panel adds less
    than b and is skipped, and nu / b may overflow to inf, where rho_r is 0.
    """
    if not b > 0.0:
        raise SpecfunDomainError(f"requires b > 0, got {b}")
    _check_rank(r)
    sol = _rank_solution(r)
    nu, half, rho = _quad.kink_panels(
        _nu_window(regime), b, 0, sol.unit_table(32), lambda x: _rank_values(sol, x)
    )
    if not nu[0, 0] > 0.0:  # only [0, b], a kink panel, can round to 0
        nu, half, rho = nu[1:], half[1:], rho[1:]
    _, w = _quad.gl_rule(32)
    weighted = w * _density(nu, regime)  # every node is past 0
    total = _quad.edge_order_sum(half, (weighted * rho).sum(axis=1))
    return min(max(total, 0.0), 1.0)


@dataclass(frozen=True)
class JointPoint:
    """Scaled (cycle length, cyclic-point count) coordinates, units sqrt(n)."""

    lam: float
    nu: float


def joint_density(p: JointPoint, r: int = 1, regime: Regime = Regime.rayleigh()) -> float:
    """Joint density of (r-th longest cycle, N)/sqrt(n) under the regime.

    w(nu) [rho_r - rho_{r-1}](nu/lambda - 1) / lambda on 0 < lambda < nu,
    with rho_0 identically 0; zero outside the support.  A coordinate that
    is not finite and positive raises SpecfunDomainError.
    """
    if not (0.0 < p.lam < math.inf and 0.0 < p.nu < math.inf):
        raise SpecfunDomainError(f"joint density requires finite positive coordinates, got {p}")
    _check_rank(r)
    if p.nu <= p.lam:
        return 0.0
    arg = p.nu / p.lam - 1.0
    val = _rank_values(_rank_solution(r), arg)
    if r > 1:
        val -= _rank_values(_rank_solution(r - 1), arg)
    return cyclic_points_density(p.nu, regime) * val / p.lam
