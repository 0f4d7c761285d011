"""One-sided Laplace transforms: forward quadrature, numerical inversion,
iterated convolutions of the reciprocal tail, truncated CDF series, and the
divisibility bound/approximation checks for the half-normal and Rayleigh laws.

Throughout, h denotes the reciprocal tail h(xi) = 1/xi for xi >= 1 (0 below),
whose transform is the exponential integral E(eta).  Named transforms:

    dickman     exp(-E(eta))/eta                    -> Dickman rho
    watterson   sqrt(pi) exp(-E(eta)/2)/sqrt(eta)   -> Watterson sigma
    theta       Gamma(t) exp(-t E(eta))/eta^t       -> theta-family g
    cycle-cdf   exp(-E(sqrt(2 b eta)))/sqrt(eta)    -> longest-cycle law kernel
    halfnormal  exp(eta^2/2) erfc(eta/sqrt(2))
    rayleigh    1 - sqrt(pi/2) eta exp(eta^2/2) erfc(eta/sqrt(2))
    erfc-gauss  exp(eta^2/pi) erfc(eta/sqrt(pi))

Inversion is routed by the transform's behaviour in the left half-plane:

* ``cycle-cdf`` decays off the negative-axis branch cut, so a fixed Talbot
  contour applies.
* The erfc family is entire with O(1/eta) decay along vertical lines; a
  truncated Bromwich line with Gauss-Legendre panels works once the known
  large-eta power expansion (the small-xi Taylor data of the inverse) is
  subtracted and restored in closed form.
* The Dickman/Watterson/theta family is entire but grows like
  exp(Ei(|Re eta|)) toward the left, which rules the Talbot contour out
  entirely (the deformed integral diverges; in IEEE arithmetic the node
  values overflow).  These are inverted on a vertical line by the de Hoog
  accelerated Fourier method at elevated precision, after peeling the first
  two terms of the exp(-t E) expansion, whose inverse is ``dde.exact_part``
  (t in [dde.MIN_THETA, dde.MAX_THETA], as for the DDE).

The levels f_k = L^-1[E^k/eta^t] behind the truncated CDF series are a tower
keyed by t, built by the DDE's collocation step on the base levels
x^(t-1)/Gamma(t) and that times ``dde.theta_delay_integral``'s T.  Like the
DDE solutions it covers xi <= 64; beyond, it raises SpecfunDomainError.

The erfc family is evaluated by ``specfun.erfcx``, once on the whole array
of line nodes, and ``cycle-cdf`` by ``specfun.e1_complex``, once on the
Talbot nodes.  ``mpmath`` (the de Hoog engine) is imported inside the
functions that use it, so every other path runs without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _quad
from .dde import MAX_THETA, MIN_THETA, X_MAX, _STRETCH, _clenshaw, _fit_piece, _row_at_nodes
from .dde import exact_part, theta_delay_integral
from .specfun import SpecfunDomainError, dilog, e1_complex, e1_real, erfcx

__all__ = [
    "TransformSpec",
    "LaplaceAccuracyError",
    "MethodMismatchError",
    "NonConvergenceError",
    "forward_laplace",
    "transform_value",
    "invert",
    "hk_closed_form",
    "convolve_h",
    "sqrt_weighted_hk",
    "truncated_cdf_series",
    "mapping_cycle_cdf_contour",
    "divisibility_report",
    "LINE_MAX_PANELS",
    "LINE_MAX_ROUNDING",
    "TALBOT_MAX_ROUNDING",
    "DIVISIBILITY_MAX_ETA",
]

# Most Gauss-Legendre panels the Bromwich line engine may use: it needs
# about 76 xi of them (T = 60), so inversions beyond xi of about 53 are
# refused before any node is built.
LINE_MAX_PANELS = 4096

# Largest rounding error estimate the Bromwich line engine accepts: 10x below
# the 1e-8 tolerance of invert(check=True).
LINE_MAX_ROUNDING = 1e-9

# Largest eta of the divisibility report: the Rayleigh transform cancels to
# 1/eta^2, so its reported error is 2e-4 off at 1e3, 2.2x at 1e4, inf at 1e200.
DIVISIBILITY_MAX_ETA = 1e3

# Largest Talbot rounding estimate relative to the value: the cycle-cdf values
# in use have at most 3.4e-8 (b = 0.01); b = 0.5 passes 1e-6 near xi = 5e6.
TALBOT_MAX_ROUNDING = 1e-6


class LaplaceAccuracyError(RuntimeError):
    """Internal error estimate exceeded the requested tolerance."""


class MethodMismatchError(ValueError):
    """Requested contour is invalid for the transform's growth class."""


class NonConvergenceError(RuntimeError):
    """Forward transform tail did not fall below tolerance."""


def _node_values(f, scalar):
    """A function of a node array giving f's complex value at each node.

    f is called on the whole array if it takes one: the first call probes
    it, and a TypeError, a ValueError or a result of another shape selects
    one call per node, on ``scalar(node)``, from then on.  Any other
    exception from f propagates.
    """
    vectorized = None

    def values(x):
        nonlocal vectorized
        if vectorized is None:
            try:
                vals = np.asarray(f(x), dtype=complex)
            except (TypeError, ValueError):
                vals = None
            vectorized = vals is not None and vals.shape == x.shape
            if vectorized:
                return vals
        if vectorized:
            return np.asarray(f(x), dtype=complex)
        return np.asarray([f(scalar(t)) for t in x], dtype=complex)

    return values


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------


def _refined_edges(a: float, b: float, left: bool, right: bool, levels: int = 16):
    """Panel edges on [a, b], geometrically refined toward flagged ends.

    Refinement absorbs algebraic branch points (up to inverse-square-root
    strength) sitting exactly at a flagged end: each geometric subpanel sees
    an analytic integrand with singularity at proportional distance.
    """
    if not (left or right):
        return np.array([a, b])
    width = b - a
    edges = {a, b}
    if left and right:
        width *= 0.5
        edges.add(a + width)
    if left:
        edges.update(a + width * 4.0 ** (-j) for j in range(1, levels + 1))
    if right:
        edges.update(b - width * 4.0 ** (-j) for j in range(1, levels + 1))
    return np.array(sorted(edges))


def forward_laplace(
    f,
    eta,
    tol: float = 1e-10,
    xi_max: float | None = None,
    breakpoints=(),
):
    """Numerically integrate int_0^inf e^(-eta xi) f(xi) dxi on dyadic panels.

    Panels double outward from 2^-80 and stop once three consecutive
    contributions fall below tol relative to the accumulated value (or at
    xi_max when given, for integrands of known compact support).  Algebraic
    endpoint singularities up to xi^(-1/2) at the origin are absorbed by the
    dyadic refinement toward zero; interior kinks or branch points of f should
    be passed as ``breakpoints`` so panels split and refine there.  Raises
    NonConvergenceError if the tail is still significant at xi = 2^30.

    f is called on the array of a panel set's nodes if it takes one: the first
    panel set probes it once, and a TypeError, a ValueError or a result of
    another shape selects one call per node for the whole transform.  Any
    other exception from f propagates.
    """
    eta_c = complex(eta)
    if eta_c.real <= 0.0:
        raise SpecfunDomainError(f"forward transform requires Re eta > 0, got {eta}")
    f_values = _node_values(f, float)

    def integrand(x):
        return np.exp(-eta_c * x) * f_values(x)

    bps = sorted({float(b) for b in breakpoints if b > 0.0})
    bp_set = set(bps)
    last_bp = bps[-1] if bps else 0.0

    dyadic = [0.0] + [2.0**j for j in range(-80, 32)]
    edges = sorted(set(dyadic) | bp_set)
    if xi_max is not None:
        edges = [e for e in edges if e < xi_max] + [float(xi_max)]

    total = 0.0 + 0.0j
    quiet = 0
    for lo, hi in zip(edges, edges[1:]):
        sub = _refined_edges(lo, hi, left=lo in bp_set, right=hi in bp_set)
        piece = _quad.gl_panels(integrand, sub, 24)
        total += piece
        if hi >= 1.0 and hi > last_bp and abs(piece) <= tol * max(abs(total), tol):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        if xi_max is None:
            raise NonConvergenceError("forward transform tail still significant at 2^30")
    if isinstance(eta, complex):
        return total
    return total.real


# ---------------------------------------------------------------------------
# named transforms
# ---------------------------------------------------------------------------

_BRANCH_CUT_DECAYING = "branch-cut-on-negative-axis"
_ENTIRE_GAUSSIAN = "entire-gaussian-decay"
_ENTIRE_GROWING = "entire-growing-left"

_NAMED_CLASSES = {
    "dickman": _ENTIRE_GROWING,
    "watterson": _ENTIRE_GROWING,
    "theta": _ENTIRE_GROWING,
    "cycle-cdf": _BRANCH_CUT_DECAYING,
    "halfnormal": _ENTIRE_GAUSSIAN,
    "rayleigh": _ENTIRE_GAUSSIAN,
    "erfc-gauss": _ENTIRE_GAUSSIAN,
    "halfnormal-m2-root": _ENTIRE_GAUSSIAN,
}


def _positive_finite(v) -> bool:
    return v is not None and 0.0 < v < math.inf


@dataclass(frozen=True)
class TransformSpec:
    """A transform to invert: a named family member or a custom callable."""

    id: str
    theta: float | None = None
    b: float | None = None
    func: object | None = None  # custom transforms: callable of complex eta
    analyticity: str | None = None
    # custom transforms may declare their large-eta expansion as
    # ((power, coefficient), ...) pairs c/eta^p for Bromwich subtraction
    subtraction: tuple = ()

    def __post_init__(self):
        if self.id == "custom":
            if self.func is None or self.analyticity not in (
                _BRANCH_CUT_DECAYING,
                _ENTIRE_GAUSSIAN,
            ):
                raise ValueError(
                    "custom transforms need func and analyticity in "
                    f"{{{_BRANCH_CUT_DECAYING!r}, {_ENTIRE_GAUSSIAN!r}}}"
                )
        elif self.id not in _NAMED_CLASSES:
            raise ValueError(f"unknown transform id {self.id!r}")
        if self.id == "theta" and not MIN_THETA <= (self.theta or 0.0) <= MAX_THETA:
            raise ValueError(
                f"theta transform requires finite theta in [{MIN_THETA}, {MAX_THETA}], "
                f"got {self.theta}"
            )
        if self.id == "cycle-cdf" and not _positive_finite(self.b):
            raise ValueError(f"cycle-cdf transform requires finite b > 0, got {self.b}")

    @property
    def growth_class(self) -> str:
        if self.id == "custom":
            return self.analyticity
        return _NAMED_CLASSES[self.id]

    @property
    def effective_theta(self) -> float:
        return {"dickman": 1.0, "watterson": 0.5}.get(self.id, self.theta)


def transform_value(spec: TransformSpec, eta):
    """Evaluate the transform at a (possibly complex) point eta or array of them.

    A named transform gives an array element the bits of the same point alone;
    a custom transform gets eta as it is.
    """
    if spec.id == "custom":
        return spec.func(eta)
    if spec.id in ("dickman", "watterson", "theta"):
        th = spec.effective_theta
        eta = np.asarray(eta)
        e1 = e1_real(eta) if np.isrealobj(eta) else e1_complex(eta)
        return (math.gamma(th) * np.exp(-th * e1) / eta**th)[()]
    if spec.id == "cycle-cdf":
        eta = np.asarray(eta, dtype=complex)
        return (np.exp(-e1_complex(np.sqrt(2.0 * spec.b * eta))) / np.sqrt(eta))[()]
    if spec.id == "halfnormal":
        return erfcx(eta / math.sqrt(2.0))
    if spec.id == "rayleigh":
        return 1.0 - math.sqrt(math.pi / 2.0) * eta * erfcx(eta / math.sqrt(2.0))
    if spec.id == "erfc-gauss":
        return erfcx(eta / math.sqrt(math.pi))
    if spec.id == "halfnormal-m2-root":
        return np.sqrt(erfcx(eta / math.sqrt(2.0)))
    raise AssertionError(spec.id)


# subtraction data for the erfc family: (power p, coefficient c) pairs with
# L^-1[c/eta^p] = c xi^(p-1)/Gamma(p), matching the transform's large-eta
# expansion so the remainder decays fast on the Bromwich line.
def _subtraction_terms(spec: TransformSpec):
    terms = []
    if spec.id == "custom":
        return list(spec.subtraction)
    if spec.id == "halfnormal":
        for m in range(5):
            c = math.sqrt(2.0 / math.pi) * (-0.5) ** m / math.factorial(m)
            terms.append((2 * m + 1, c * math.factorial(2 * m)))
    elif spec.id == "rayleigh":
        for m in range(5):
            c = (-1.0) ** m * math.factorial(2 * m + 1) / (2**m * math.factorial(m))
            terms.append((2 * m + 2, c))
    elif spec.id == "erfc-gauss":
        for m in range(5):
            c = (-math.pi / 4.0) ** m / math.factorial(m)
            terms.append((2 * m + 1, c * math.factorial(2 * m)))
    elif spec.id == "halfnormal-m2-root":
        c0 = (2.0 / math.pi) ** 0.25
        terms = [(0.5, c0), (2.5, -0.5 * c0), (4.5, (11.0 / 8.0) * c0), (6.5, -(109.0 / 16.0) * c0)]
    return terms


# ---------------------------------------------------------------------------
# inversion engines
# ---------------------------------------------------------------------------


def _invert_talbot(F, xi: float, nodes: int = 32) -> float:
    """Fixed Talbot contour; valid only for transforms decaying off the cut.

    Node count is capped by IEEE double precision: roundoff grows like
    eps * exp(2M/5), so M near 32 is the practical optimum.  Non-finite nodes
    or weights raise a ValueError before F is called, once on the array
    [r, p_1, ..., p_(M-1)] if F takes one (``_node_values``); a rounding
    estimate eps sum |w_k F(p_k)| / (2.5 xi) above ``TALBOT_MAX_ROUNDING`` of
    the value raises a LaplaceAccuracyError.
    """
    with np.errstate(all="ignore"):  # refused below unless finite
        r = 2.0 * nodes / (5.0 * xi)
        theta = np.pi * np.arange(1, nodes) / nodes
        cot = 1.0 / np.tan(theta)
        pk = r * theta * (cot + 1j)
        weights = np.exp(xi * pk) * (1 + 1j * theta * (1 + cot**2) - 1j * cot)
    if not (0.0 < r < math.inf and np.isfinite(pk).all() and np.isfinite(weights).all()):
        raise ValueError(f"the Talbot contour at xi = {xi!r} has non-finite nodes or weights")
    values = _node_values(F, complex)(np.concatenate(([r], pk)))
    total = 0.5 * math.exp(r * xi) * float(values[0].real)
    terms = weights * values[1:]
    rounding = np.finfo(float).eps * (abs(total) + float(np.sum(np.abs(terms))))
    total += float(np.sum(terms.real))
    if not rounding <= TALBOT_MAX_ROUNDING * abs(total):
        raise LaplaceAccuracyError(
            f"the Talbot contour at xi = {xi!r} has rounding error estimate "
            f"{rounding / (2.5 * xi):.2e}, above TALBOT_MAX_ROUNDING = "
            f"{TALBOT_MAX_ROUNDING:.0e} of the value {total / (2.5 * xi):.2e}"
        )
    return total / (2.5 * xi)


def _invert_line_subtracted(
    F, terms, xi: float, gamma: float = 1.0, t_max: float = 60.0, panel_nodes: int = 24
) -> float:
    """Bromwich line at Re eta = gamma with power-term subtraction.

    f(xi) = sum_j c_j xi^(p_j-1)/Gamma(p_j)
            + (e^(gamma xi)/pi) Re int_0^T e^(i xi t) Ftilde(gamma+it) dt

    F is called once on the whole node array if it takes one (see
    ``_node_values``), else once per node.  More than ``LINE_MAX_PANELS``
    panels raise a ValueError before any node is built.  The rounding the
    factor e^(gamma xi) lifts, (e^(gamma xi)/pi) eps sum |w Ftilde| over the
    same nodes, raises a LaplaceAccuracyError above ``LINE_MAX_ROUNDING``.
    """
    F_values = _node_values(F, complex)
    moduli = []  # |Ftilde| at the nodes, for the rounding estimate

    def remainder(t):
        eta = gamma + 1j * t
        s = F_values(eta)
        for p_, c_ in terms:
            s = s - c_ * eta ** (-p_)
        moduli.append(np.abs(s))
        return np.exp(1j * xi * t) * s

    n_panels = max(40, int(t_max * max(xi, 1.0) / math.pi) * 4 + 40)
    if n_panels > LINE_MAX_PANELS:
        raise ValueError(
            f"the Bromwich line at xi = {xi!r} needs {n_panels} panels, "
            f"more than LINE_MAX_PANELS = {LINE_MAX_PANELS}"
        )
    edges = np.linspace(0.0, t_max, n_panels + 1)
    total = _quad.gl_panels(remainder, edges, panel_nodes)
    _, w = _quad.gl_rule(panel_nodes)
    l1 = np.diff(edges) / 2.0 @ (moduli[0].reshape(n_panels, panel_nodes) @ w)
    rounding = math.exp(gamma * xi) / math.pi * np.finfo(float).eps * l1
    if rounding > LINE_MAX_ROUNDING:
        raise LaplaceAccuracyError(
            f"the Bromwich line at xi = {xi!r} has rounding error estimate "
            f"{rounding:.2e}, above LINE_MAX_ROUNDING = {LINE_MAX_ROUNDING:.0e}"
        )
    value = math.exp(gamma * xi) / math.pi * total.real
    for p_, c_ in terms:
        value += c_ * xi ** (p_ - 1.0) / math.gamma(p_)
    return value


def _mp_theta_peeled(theta: float):
    import mpmath as mp

    th = mp.mpf(theta)
    gam = mp.gamma(th)

    def F(p):
        e = mp.e1(p)
        return gam * (mp.exp(-th * e) - 1 + th * e) / p**th

    return F


def _dehoog(F, xi: float, degree: int, dps: int):
    """de Hoog, Knight and Stokes inverse of F at xi, as an mpmath number.

    The result is the number mpmath's ``invertlaplace(F, xi,
    method="dehoog", degree=degree)`` returns when called at ``dps`` digits:
    the operations are mpmath's, in its order.  Only the quotient-difference
    table differs in form: it is kept in Python lists, one column at a time,
    where mpmath fills an ``mpmath.matrix`` element by element through slices.
    As in mpmath, alpha = 10^-d and tol = 10 alpha are rounded at the
    caller's precision (here ``dps``) and everything after them runs at
    d = int(1.38 degree) digits.  ``dps`` is not idle: near the integer kinks
    of the Dickman family the inverse moves by up to about 5e-13 with it.
    mpmath's precision is left as it was.
    """
    import mpmath as mp

    ctx = mp.mp
    m = degree
    digits = int(1.38 * degree)
    with ctx.workdps(dps):
        t = ctx.convert(xi)
        alpha = ctx.power(10.0, -digits)
        tol = alpha * 10.0
    with ctx.workdps(digits):
        T = 2 * t  # twice the largest time, mpmath's default scale
        gamma = alpha - ctx.log(tol) / (2 * T)
        fp = [F(gamma + ctx.pi * k / T * 1j) for k in ctx.arange(2 * m + 1)]
        # quotient-difference table; d collects the continued-fraction
        # coefficients from the head of each column as it is finished
        q = [fp[1] / (fp[0] / 2)] + [fp[i + 1] / fp[i] for i in range(1, 2 * m)]
        e = [ctx.mpc(0)] * (2 * m + 1)
        d = [fp[0] / 2, -q[0]]
        for r in range(1, m + 1):
            rows = 2 * (m - r) + 1
            e = [q[i + 1] - q[i] + e[i + 1] for i in range(rows)]
            d.append(-e[0])
            if r < m:
                q = [q[i + 1] * e[i + 1] / e[i] for i in range(rows - 1)]
                d.append(-q[0])
        # Pade recurrence in z, with the improved remainder for the last term
        z = ctx.expjpi(t / T)
        a_prev, a = ctx.mpc(0), d[0]
        b_prev, b = ctx.mpc(1), ctx.mpc(1)
        for i in range(1, 2 * m):
            a_prev, a = a, a + d[i] * a_prev * z
            b_prev, b = b, b + d[i] * b_prev * z
        brem = (1 + (d[2 * m - 1] - d[2 * m]) * z) / 2
        rem = brem * ctx.powm1(1 + d[2 * m] * z / brem, ctx.fraction(1, 2))
        a = a + rem * a_prev
        b = b + rem * b_prev
        return ctx.exp(gamma * t) / T * (a / b).real


def _invert_theta_family(theta: float, xi: float, dps: int = 80, degree: int = 80) -> float:
    """Dickman/Watterson/theta-family inverse at one point.

    The first two expansion terms have the inverse ``dde.exact_part`` (a
    FloatingPointError if it overflows), exact on (0,2], where the peeled
    remainder's inverse vanishes.  Beyond 2 ``_dehoog`` inverts the remainder
    at int(1.38 degree) digits (110 at degree 80), its parameters rounded at
    ``dps``.  Against the DDE solution on xi = 2.25, 2.5, ..., 6 its worst
    error at degree 80 is 4.6e-10 (theta = 1) and 1.5e-9 (theta = 1/2), at
    the kink xi = 3; off the integers it is below 1e-14.  Lower degrees lose
    accuracy at the kinks first.  The inverse is positive, but de Hoog's
    error is absolute, a few 1e-17: a value below 0 (theta = 2e-5 at
    xi = 3.5 gives -2.6e-17, where the DDE gives 1.2e-17) has lost every
    digit and raises a LaplaceAccuracyError.
    """
    if xi <= 0.0:
        raise SpecfunDomainError(f"inverse evaluation requires xi > 0, got {xi}")
    with np.errstate(over="raise", divide="raise"):
        closed = float(exact_part(theta, xi))
    if xi <= 2.0:
        return closed
    import mpmath as mp

    with mp.workdps(dps):  # Gamma(theta) is rounded at dps digits
        F = _mp_theta_peeled(theta)
    value = closed + float(_dehoog(F, xi, degree, dps))
    if value < 0.0:
        raise LaplaceAccuracyError(
            f"de Hoog gave {value:.2e} at xi = {xi!r}, theta = {theta!r}: the inverse is "
            "positive, so the value is below the engine's absolute error"
        )
    return value


def _invert_mp_line(F_mp, xi: float, dps: int = 60, degree: int = 40) -> float:
    """de Hoog inverse of an mpmath-valued transform (the Bromwich override)."""
    return float(_dehoog(F_mp, xi, degree, dps))


def invert(
    spec: TransformSpec,
    xi: float,
    method: str | None = None,
    check: bool = False,
    tol: float = 1e-8,
) -> float:
    """Invert a transform at xi > 0.

    The contour is chosen from the transform's growth class; passing
    ``method`` overrides it where mathematically legitimate.  With
    ``check=True`` the computation is repeated at higher resolution (Talbot
    32 -> 40 nodes; de Hoog degree 80 -> 100 and dps 80 -> 100 for the
    theta family, degree 40 -> 50 and dps 60 -> 80 on the Bromwich
    override; line panels 24 -> 32 nodes), a LaplaceAccuracyError is raised
    if the two disagree beyond tol, and the refined value is returned.
    """
    if not _positive_finite(xi):
        raise SpecfunDomainError(f"invert requires finite xi > 0, got {xi}")
    cls = spec.growth_class
    if method == "talbot" and cls != _BRANCH_CUT_DECAYING:
        raise MethodMismatchError(
            f"Talbot contour diverges for {spec.id!r}: the transform grows in the left half-plane"
        )

    def compute(scale=1):
        if cls == _BRANCH_CUT_DECAYING and method != "bromwich":
            return _invert_talbot(lambda p: transform_value(spec, p), xi, nodes=32 + 8 * (scale - 1))
        if cls == _ENTIRE_GROWING:
            return _invert_theta_family(
                spec.effective_theta, xi, dps=80 + 20 * (scale - 1), degree=80 + 20 * (scale - 1)
            )
        if cls == _BRANCH_CUT_DECAYING:  # bromwich override for the cycle transform
            def F_mp(p):
                import mpmath as mp

                return mp.exp(-mp.e1(mp.sqrt(2 * spec.b * p))) / mp.sqrt(p)

            return _invert_mp_line(F_mp, xi, dps=60 + 20 * (scale - 1), degree=40 + 10 * (scale - 1))
        return _invert_line_subtracted(
            lambda p: transform_value(spec, p),
            _subtraction_terms(spec),
            xi,
            t_max=60.0 if spec.id != "halfnormal-m2-root" else 120.0,
            panel_nodes=24 + 8 * (scale - 1),
        )

    value = compute()
    if check:
        refined = compute(scale=2)
        if abs(refined - value) > tol:
            raise LaplaceAccuracyError(
                f"inversion estimate {abs(refined - value):.2e} exceeds tol {tol:.2e}"
            )
        value = refined
    return value


# ---------------------------------------------------------------------------
# reciprocal-tail convolutions
# ---------------------------------------------------------------------------


def hk_closed_form(k: int, xi: float) -> float:
    """Closed forms of L^-1[E(eta)^k / eta], available for k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"closed form available for k in {{0,1,2}}, got {k}")
    if xi < 0.0:
        raise SpecfunDomainError(f"xi must be >= 0, got {xi}")
    if k == 0:
        return 1.0
    if k == 1:
        return math.log(xi) if xi >= 1.0 else 0.0
    if xi < 2.0:
        return 0.0
    return -math.pi**2 / 6.0 + math.log(xi) ** 2 + 2.0 * dilog(1.0 / xi)


def _base_level(k: int, theta: float, x):
    """Levels 0 and 1 of the tower at x >= k: f_0 = x^(theta-1)/Gamma(theta), f_1 = f_0 T."""
    f0 = np.power(x, theta - 1.0) / math.gamma(theta)
    return f0 * (theta_delay_integral(theta, x) / theta) if k else f0


@lru_cache(maxsize=None)
def _level(k: int, theta: float) -> list:
    """Chebyshev pieces of f_k = L^-1[E^k/eta^theta], k >= 2, on [k, X_MAX].

    Entry i is ``dde._fit_piece``'s piece on [j, j+1], j = k + i, x = j + s^4:
    f_k(x) = k x^(theta-1) (I(j) + int_j^x t^-theta f_{k-1}(t-1) dt) reads level
    k-1's piece on [j-1, j] at the same nodes, and I(j) = int_k^j carries on.
    """
    lower = _level(k - 1, theta) if k > 2 else None
    carry = 0.0

    def step(s, vand, q):  # the piece on [j, j+1] with the current j and carry
        u = s**_STRETCH
        if lower is None:
            lag = _base_level(1, theta, (j - 1) + u)
        else:
            lag = _row_at_nodes(lower[j - k], s, vand)
        t = j + u
        span = q @ (_STRETCH * s ** (_STRETCH - 1) * t**-theta * lag)
        return k * t ** (theta - 1.0) * (carry + span), carry + span[-1]

    rows = []
    for j in range(k, X_MAX):
        coef, carry = _fit_piece(j, step)
        rows.append(coef)
    return rows


def _tower(k: int, theta: float, xi: float) -> float:
    """f_k(xi) = L^-1[E^k/eta^theta](xi); 0 on [0, k] for k >= 1."""
    if not xi <= X_MAX:
        raise SpecfunDomainError(f"the E^k tower covers xi <= {X_MAX}, got {xi}")
    if xi <= 0.0 or (k and xi <= k):
        return 0.0
    if k <= 1:
        return float(_base_level(k, theta, xi))
    rows = _level(k, theta)
    j = min(int(xi - k), len(rows) - 1)
    s = (xi - (k + j)) ** (1.0 / _STRETCH)
    return _clenshaw(rows[j].tolist(), 2.0 * s - 1.0)


def convolve_h(k: int, xi: float) -> float:
    """L^-1[E(eta)^k / eta] at xi <= 64 (SpecfunDomainError beyond); 0 for xi < k."""
    if k < 1:
        raise ValueError(f"convolve_h requires k >= 1, got {k}")
    return _tower(k, 1.0, xi)


def sqrt_weighted_hk(k: int, xi: float) -> float:
    """L^-1[E(eta)^k / sqrt(eta)] at xi <= 64 (SpecfunDomainError beyond)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _tower(k, 0.5, xi)


# ---------------------------------------------------------------------------
# truncated series and the cycle-length contour
# ---------------------------------------------------------------------------


def truncated_cdf_series(a: float, kind: str) -> float:
    """Truncated alternating expansion of the limiting CDFs at xi = 1/a.

    Both are the theta family's Gamma(theta) sum_{k<=floor(xi)} (-theta)^k/k!
    L^-1[E^k/eta^theta]: kind "permutation" is theta = 1, which equals
    rho(1/a), and kind "component" is theta = 1/2 times sqrt(xi), which
    equals sqrt(xi) sigma(xi).  Terms with index above floor(xi) vanish on
    the support, so the truncation is exact.  The levels come from the E^k
    tower, which covers xi <= 64: a below 1/64 raises SpecfunDomainError.
    """
    if not 1.0 / X_MAX <= a <= 1.0:
        raise SpecfunDomainError(f"series requires a in [1/{X_MAX}, 1], got {a}")
    xi = 1.0 / a
    if kind not in ("permutation", "component"):
        raise ValueError(f"kind must be 'permutation' or 'component', got {kind!r}")
    theta = 1.0 if kind == "permutation" else 0.5
    terms = ((-theta) ** k / math.factorial(k) * _tower(k, theta, xi) for k in range(int(xi) + 1))
    total = math.gamma(theta) * sum(terms)
    return total if theta == 1.0 else math.sqrt(xi) * total


def mapping_cycle_cdf_contour(b: float, check: bool = False) -> float:
    """Limiting P{longest cycle <= b sqrt(n)} by Talbot inversion.

    sqrt(pi/b) L^-1[exp(-E(sqrt(2 b eta)))/sqrt(eta)] evaluated at xi = 1/b.
    """
    if b <= 0.0:
        raise SpecfunDomainError(f"b must be positive, got {b}")
    spec = TransformSpec(id="cycle-cdf", b=b)
    val = math.sqrt(math.pi / b) * invert(spec, 1.0 / b, check=check, tol=1e-6)
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# divisibility report
# ---------------------------------------------------------------------------


def _lower_bound_inverse(c: float):
    # L^-1[1/sqrt(1 + c eta)] with c = sqrt(pi/2): 2^(1/4) pi^(-3/4) xi^(-1/2) e^(-xi sqrt(2/pi))
    def f(xi):
        return math.exp(-xi / c) / math.sqrt(math.pi * c * xi)

    return f


@dataclass
class DivisibilityReport:
    """Bound chain, root approximation error, bound round trips and the
    two-part allocation probe for the half-normal law."""

    eta: np.ndarray
    lower: np.ndarray
    center: np.ndarray
    upper: np.ndarray
    bounds_strict: bool
    approx_rel_err: np.ndarray
    max_approx_rel_err: float
    roundtrip_eta: np.ndarray
    roundtrip_err_lower: np.ndarray
    roundtrip_err_upper: np.ndarray
    m2_root_small_xi: float
    m2_root_small_value: float
    m2_root_unit_value: float
    m2_root_ratio: float

    def values_dict(self) -> dict:
        return {
            "bounds_strict": float(self.bounds_strict),
            "max_approx_rel_err": self.max_approx_rel_err,
            "max_roundtrip_err_lower": float(np.max(np.abs(self.roundtrip_err_lower))),
            "max_roundtrip_err_upper": float(np.max(np.abs(self.roundtrip_err_upper))),
            "m2_root_small_value": self.m2_root_small_value,
            "m2_root_unit_value": self.m2_root_unit_value,
            "m2_root_ratio": self.m2_root_ratio,
        }


def divisibility_report(eta_grid) -> DivisibilityReport:
    """Evaluate the half-normal/Rayleigh divisibility checks on a grid.

    Per grid point: the strict bound chain
    pi/(sqrt(2 pi) + pi eta) < sqrt(pi/2) e^(eta^2/2) erfc(eta/sqrt(2))
    < pi/(sqrt(2 pi) + 2 eta), and the relative error of approximating the
    square root of the Rayleigh transform by e^(eta^2/pi) erfc(eta/sqrt(pi)).
    The two closed-form inverse bounds are pushed back through
    forward_laplace on a small log-spaced subset, and the two-component
    allocation probe (square root of the half-normal transform) is inverted
    near the origin to exhibit its unbounded growth.
    """
    eta = np.asarray(eta_grid, dtype=float)
    if np.any(eta <= 0.0):
        raise SpecfunDomainError("eta grid must be positive")
    if not np.all(eta <= DIVISIBILITY_MAX_ETA):
        raise SpecfunDomainError(f"eta grid must lie below DIVISIBILITY_MAX_ETA = 1e3")
    center = np.sqrt(math.pi / 2.0) * erfcx(eta / math.sqrt(2.0))
    lower = math.pi / (math.sqrt(2.0 * math.pi) + math.pi * eta)
    upper = math.pi / (math.sqrt(2.0 * math.pi) + 2.0 * eta)
    strict = bool(np.all(lower < center) and np.all(center < upper))

    ray = 1.0 - np.sqrt(math.pi / 2.0) * eta * erfcx(eta / np.sqrt(2.0))
    root = np.sqrt(ray)
    approx = erfcx(eta / math.sqrt(math.pi))
    rel = np.abs(root - approx) / root

    n_sub = min(8, len(eta))
    sub = np.unique(np.geomspace(eta.min(), eta.max(), n_sub)) if len(eta) > 1 else eta
    c_lo = math.sqrt(math.pi / 2.0)
    c_hi = math.sqrt(2.0 / math.pi)
    f_lo = _lower_bound_inverse(c_lo)
    f_hi = _lower_bound_inverse(c_hi)
    err_lo = np.array(
        [forward_laplace(f_lo, e, tol=1e-11) - 1.0 / math.sqrt(1.0 + c_lo * e) for e in sub]
    )
    err_hi = np.array(
        [forward_laplace(f_hi, e, tol=1e-11) - 1.0 / math.sqrt(1.0 + c_hi * e) for e in sub]
    )

    m2 = TransformSpec(id="halfnormal-m2-root")
    small_xi = 0.01
    v_small = invert(m2, small_xi)
    v_unit = invert(m2, 1.0)

    return DivisibilityReport(
        eta=eta,
        lower=lower,
        center=center,
        upper=upper,
        bounds_strict=strict,
        approx_rel_err=rel,
        max_approx_rel_err=float(np.max(rel)),
        roundtrip_eta=sub,
        roundtrip_err_lower=err_lo,
        roundtrip_err_upper=err_hi,
        m2_root_small_xi=small_xi,
        m2_root_small_value=v_small,
        m2_root_unit_value=v_unit,
        m2_root_ratio=v_small / v_unit,
    )
