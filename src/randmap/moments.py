"""Moment constants of the longest-cycle laws.

The building block is

    G(r, h) = 1/(h! (r-1)!) int_0^inf x^(h-1) E(x)^(r-1) exp(-E(x) - x) dx

with E the exponential integral: G(r, 1) is the limiting mean of the r-th
longest cycle of a permutation divided by its size (r = 1 is the
Golomb-Dickman constant).  For mappings the cycle scale is N, so the regime
moments follow from E(N) and E(N^2):

    rayleigh    mean = sqrt(pi/2) G(r,1),  var = 2 G(r,2) - (pi/2) G(r,1)^2
    halfnormal  mean = sqrt(2/pi) G(r,1),  var = G(r,2) - (2/pi) G(r,1)^2

together with the cross-correlation between the r-th cycle and N, and the
mode/median solvers for the rank-1 law.  The solvers find their roots with
``_brent_root``, Brent's method as scipy's ``brentq`` takes it, step for
step, so the roots are the ones brentq returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _quad, dde, distributions
from .distributions import Regime
from .specfun import e1_real

__all__ = [
    "MomentReport",
    "g_constant",
    "cross_rank_moment",
    "moment_table",
    "mode_lambda1",
    "median_lambda",
]

_RANKS = (1, 2, 3, 4)
_BRENT_RTOL = 4.0 * 2.220446049250313e-16  # 4 eps, brentq's default rtol
_BRENT_MAXITER = 100


@lru_cache(maxsize=64)
def g_constant(r: int, h: int, tol: float = 1e-12) -> float:
    """G(r, h) by panel quadrature.

    Near zero the integrand behaves like x^(h-1) (-ln x)^(r-1) e^gamma x; the
    substitution x = e^(-u) maps that tail to u^(r-1) e^(-(h+1)u), tamed on
    exponentially spaced panels.  The upper tail is cut where e^(-x) E(x)^(r-1)
    is below 1e-18.  The panels and the 48-point rule are fixed: ``tol`` must
    be positive but does not change them.  It stays a parameter because
    callers pass it positionally (the analytic benchmark's G table passes
    1e-12), and the lru_cache keys on it.  An integral float r or h is
    taken as that integer.
    """
    if r not in _RANKS or h not in (1, 2):
        raise ValueError(f"supported ranks 1..4 and heights 1..2, got r={r} h={h}")
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    r, h = int(r), int(h)

    def integrand(x):
        e1 = e1_real(x)
        val = x ** (h - 1) * np.exp(-e1 - x)
        if r > 1:
            val = val * e1 ** (r - 1)
        return val

    def integrand_log(u):
        # x = exp(-u) for the (0, 1/2] end
        x = np.exp(-u)
        e1 = e1_real(x)
        val = np.exp(-h * u) * np.exp(-e1 - x)
        if r > 1:
            val = val * e1 ** (r - 1)
        return val

    lower = _quad.gl_panels(integrand_log, [math.log(2.0), 4.0, 8.0, 16.0, 32.0, 48.0], 48)
    upper = _quad.gl_panels(integrand, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0, 45.0], 48)
    return (lower + upper) / (math.factorial(h) * math.factorial(r - 1))


_CROSS_INNER_EDGES = (1e-9, 1e-6, 1e-3, 0.05, 0.25, 1.0, 2.0)
_CROSS_OUTER_EDGES = (1e-9, 1e-6, 1e-3, 0.05, 0.25, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@lru_cache(maxsize=16)
def cross_rank_moment(r: int, s: int) -> float:
    """E(V_r V_s) for the scaled r-th and s-th longest permutation cycles.

    The ranked cycle fractions are the points of the Poisson process with
    intensity e^(-x)/x dx divided by their sum S, and that normalized vector
    is independent of S, which is a unit exponential.  The double integral
    below is the mixed moment of the (r, s)-th largest raw points, whose
    joint density factors through E(x) and E(y) - E(x); dividing by
    E(S^2) = 2 converts it to the normalized moment.

    The outer integral over x and the inner one over y < x both use 48-point
    Gauss-Legendre panels.  The inner panels of an outer node x are the
    fixed panels between 1e-9, 1e-6, 1e-3, 0.05, 0.25, 1 and 2 that end
    below x, then one last panel [e, x] from the largest of those edges
    below x.  E(y) and exp(-E(y) - y) on the fixed panels are computed once
    per call; only the last panel's are computed per node.  Each node's
    panel sums are added in edge order, so the value is the one a separate
    quadrature per outer node gives.  Ranks that are not integers raise
    ValueError before any quadrature; an integral float is that integer.
    """
    if not (1 <= r < s < math.inf and r == int(r) and s == int(s)):
        raise ValueError(f"need integers 1 <= r < s, got r={r}, s={s}")
    r, s = int(r), int(s)
    _, w = _quad.gl_rule(48)
    fixed = np.array(_CROSS_INNER_EDGES)
    y_fixed, half_fixed = _quad.gl_nodes(fixed[:-1], fixed[1:], 48)
    e1_fixed = e1_real(y_fixed)
    weight_fixed = np.exp(-e1_fixed - y_fixed)

    def panel_sums(e1y, weight, e1x):
        # sum of w * exp(-E(y) - y) (E(y) - E(x))^(s-r-1) over each panel row
        return np.sum(w * (weight * (e1y - e1x) ** (s - r - 1)), axis=-1)

    def outer(xs):
        e1x = e1_real(xs)
        # inner panels of each node: the fixed ones below it, then [e, x]
        n_full = np.searchsorted(fixed, xs) - 1
        sums = panel_sums(e1_fixed, weight_fixed, e1x[:, None, None])
        y_last, half_last = _quad.gl_nodes(fixed[n_full], xs, 48)
        e1_last = e1_real(y_last)
        last = panel_sums(e1_last, np.exp(-e1_last - y_last), e1x[:, None])
        total = np.zeros_like(xs)
        for k, h in enumerate(half_fixed.tolist()):
            full = k < n_full
            total[full] += h * sums[full, k]
        total += half_last * last
        return total * np.exp(-xs) * e1x ** (r - 1)

    total = _quad.gl_panels(outer, _CROSS_OUTER_EDGES, 48)
    return total / (2.0 * math.factorial(r - 1) * math.factorial(s - r - 1))


@dataclass
class MomentReport:
    """Per-rank means, variances and correlations with N for one regime."""

    regime: Regime
    g1: dict = field(default_factory=dict)  # r -> G(r,1)
    g2: dict = field(default_factory=dict)  # r -> G(r,2)
    mean: dict = field(default_factory=dict)  # coefficient of sqrt(n)
    variance: dict = field(default_factory=dict)  # coefficient of n
    corr_with_n: dict = field(default_factory=dict)
    cross_rank_corr: dict = field(default_factory=dict)  # (r, s) -> value
    mode: float | None = None
    median: float | None = None

    def validate(self):
        """Raise RuntimeError, naming the failed condition, on an implausible table."""
        means = [self.mean[r] for r in _RANKS]
        if not (all(m > 0 for m in means) and all(a > b for a, b in zip(means, means[1:]))):
            raise RuntimeError(f"means must be positive and decreasing in rank, got {means}")
        variances = [self.variance[r] for r in _RANKS]
        if not all(v > 0 for v in variances):
            raise RuntimeError(f"variances must be positive, got {variances}")
        corrs = [self.corr_with_n[r] for r in _RANKS]
        if not all(0.0 < c < 1.0 for c in corrs):
            raise RuntimeError(f"correlations with N must lie in (0, 1), got {corrs}")


def moment_table(
    regime: Regime,
    include_cross_rank: bool = False,
    include_location: bool = True,
) -> MomentReport:
    """Means, variances and correlations of the four longest cycles.

    rayleigh: E(N) = sqrt(pi/2), E(N^2) = 2; halfnormal: E(N) = sqrt(2/pi),
    E(N^2) = 1.  Cross-rank correlations (no tabulated reference values) are
    included on request.  ``include_location`` adds the rank-1 mode and
    median, which cost root solves over the mixture CDF.
    """
    if regime.tag not in ("rayleigh", "halfnormal"):
        raise ValueError(f"moment tables cover rayleigh and halfnormal, got {regime.tag!r}")
    en2 = 2.0 if regime.tag == "rayleigh" else 1.0
    en = math.sqrt(math.pi / 2.0) if regime.tag == "rayleigh" else math.sqrt(2.0 / math.pi)
    var_n = en2 - en * en
    report = MomentReport(regime=regime)
    for r in _RANKS:
        g1 = g_constant(r, 1, 1e-12)  # the cache key the analytic benchmark fills
        g2 = g_constant(r, 2, 1e-12)
        report.g1[r] = g1
        report.g2[r] = g2
        report.mean[r] = en * g1
        if regime.tag == "rayleigh":
            report.variance[r] = 2.0 * g2 - (math.pi / 2.0) * g1 * g1
        else:
            report.variance[r] = g2 - (2.0 / math.pi) * g1 * g1
        report.corr_with_n[r] = math.sqrt(var_n) * g1 / math.sqrt(report.variance[r])
    if include_cross_rank:
        for r in _RANKS:
            for s in _RANKS:
                if r < s:
                    evv = cross_rank_moment(r, s)
                    cov = en2 * evv - report.mean[r] * report.mean[s]
                    report.cross_rank_corr[(r, s)] = cov / math.sqrt(
                        report.variance[r] * report.variance[s]
                    )
    if include_location:
        if regime.tag == "rayleigh":
            report.mode = mode_lambda1(regime)
        else:
            report.mode = 0.0
        report.median = median_lambda(1, regime)
    report.validate()
    return report


def _brent_root(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in the bracket [xa, xb] by Brent's method.

    The steps are those of scipy's ``brentq`` (its C code, with rtol = 4 eps
    and at most 100 iterations): inverse quadratic or secant steps while they
    shrink the bracket fast enough, bisection otherwise.  Stops when half the
    bracket is below (xtol + rtol |x|)/2.  Raises ValueError if f has the
    same sign at both ends and RuntimeError if it has not converged.
    """
    xpre, xcur = xa, xb
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f has the same sign at both ends of [{xa}, {xb}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")


def _mode_balance(lam: float) -> float:
    """Stationarity condition for the rank-1 marginal density, rayleigh regime.

    exp(-lam^2/2) = (1/lam^2) int_lam^inf [ -rho((nu-lam)/lam)
        + nu/(nu-lam) rho((nu-2 lam)/lam) ] nu exp(-nu^2/2) dnu.
    The second term vanishes for nu < 2 lam, cancelling the nu/(nu-lam) pole.
    Both terms run on ``_quad.kink_panels`` over [lam, _NU_CUT] and
    [2 lam, _NU_CUT], 48-point panels split at the kinks k lam.  On a panel
    [k lam, (k+1) lam] the argument of rho is k - 1 + (1 + x_i)/2 in the
    first term and k - 2 + (1 + x_i)/2 in the second, up to rounding, so rho
    there is row k - 1 or k - 2 of rho's 48-node ``unit_table`` (0 past its
    last row, as past x_max).  Both windows start on a kink, so for
    lam <= _NU_CUT / 2 they end on the first kink at or past _NU_CUT, where
    the Gaussian weight is below 3e-17, and rho is read from the table
    alone; for larger lam the first term's one panel evaluates rho node by
    node.
    """
    sol = dde.dickman_solution(1)
    table = sol.unit_table(48)
    cut = distributions._NU_CUT
    _, w = _quad.gl_rule(48)

    def panels(shift):
        return _quad.kink_panels(
            [shift * lam, cut], lam, shift, table, lambda x: distributions._rank_values(sol, x)
        )

    nu, half, rho = panels(1)
    vals = -rho * nu * np.exp(-nu * nu / 2.0)
    integral = _quad.edge_order_sum(half, np.sum(w * vals, axis=1))
    if 2.0 * lam < cut:
        nu, half, rho = panels(2)
        vals = nu / (nu - lam) * rho * nu * np.exp(-nu * nu / 2.0)
        integral += _quad.edge_order_sum(half, np.sum(w * vals, axis=1))
    return math.exp(-lam * lam / 2.0) - integral / (lam * lam)


def mode_lambda1(regime: Regime = Regime.rayleigh()) -> float:
    """Mode of the rank-1 cycle law (rayleigh regime only)."""
    if regime.tag != "rayleigh":
        raise ValueError("the mode solver applies to the rayleigh regime")
    return _brent_root(_mode_balance, 0.1, 1.5, xtol=1e-8)


def median_lambda(r: int = 1, regime: Regime | str = Regime.rayleigh()) -> float:
    """Median of the rank-r cycle law: root of CDF = 1/2.

    Accepts the string "connected" for the one-component law, whose rank-1
    CDF is the half-normal error function; its rank r >= 2 is 0, whose CDF
    is 1 on the whole bracket, so the bracket fails.
    """
    if isinstance(regime, str):
        if regime != "connected":
            raise ValueError(f"unknown regime string {regime!r}")
        cdf = lambda b: distributions.connected_cycle_cdf(b, r)
    else:
        cdf = lambda b: distributions.mapping_longest_cycle_cdf(b, r, regime)
    lo, hi = 1e-3, 8.0
    if cdf(lo) > 0.5 or cdf(hi) < 0.5:
        raise ValueError("median bracket [1e-3, 8] failed")
    return _brent_root(lambda b: cdf(b) - 0.5, lo, hi, xtol=1e-8)
