"""One-sided Laplace transforms: forward quadrature, numerical inversion,
closed forms of the reciprocal tail's convolutions, truncated CDF series, and
the divisibility bound/approximation checks for the half-normal and Rayleigh
laws.

Throughout, h denotes the reciprocal tail h(xi) = 1/xi for xi >= 1 (0 below),
whose transform is the exponential integral E(eta).  Named transforms:

    dickman     exp(-E(eta))/eta                    -> Dickman rho
    watterson   sqrt(pi) exp(-E(eta)/2)/sqrt(eta)   -> Watterson sigma
    theta       Gamma(t) exp(-t E(eta))/eta^t       -> theta-family g
    cycle-cdf   exp(-E(sqrt(2 b eta)))/sqrt(eta)    -> longest-cycle law kernel
    halfnormal  exp(eta^2/2) erfc(eta/sqrt(2))
    rayleigh    1 - sqrt(pi/2) eta exp(eta^2/2) erfc(eta/sqrt(2))
    erfc-gauss  exp(eta^2/pi) erfc(eta/sqrt(pi))
    halfnormal-m2-root  the square root of halfnormal (the divisibility probe)

Inversion is routed by the transform's id, to the engine its behaviour in
the left half-plane allows.  Each id's data is written once: the theta of
the theta family in ``_THETAS``, and the erfc family's transform, expansion
and line length in ``_LINES``.

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

The levels f_k = L^-1[E^k/eta^t] behind the truncated CDF series are
``dde.tower``, fitted in the DDE solutions' piece format and loop.  Like the
solutions it covers xi <= 64; beyond, it raises SpecfunDomainError.

A function handed to an engine (the integrand of ``forward_laplace``, the
transform of the Talbot and line engines) is called on an array of nodes
and returns an array of the same shape, or a constant that broadcasts.  The
erfc family is evaluated by ``specfun.erfcx``, once on the whole array of
line nodes, and ``cycle-cdf`` by ``specfun.e1_complex``, once on the
Talbot nodes.  ``mpmath`` (the de Hoog engine) is imported inside the
functions that use it, so every other path runs without loading it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _quad
from .dde import MAX_THETA, MIN_THETA, X_MAX, exact_part, tower
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
    """Requested contour diverges for the transform."""


class NonConvergenceError(RuntimeError):
    """Forward transform tail did not fall below tolerance."""


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------


def _refined_edges(a: float, b: float, left: bool, right: bool):
    """Panel edges on [a, b], refined toward flagged ends by 16 geometric levels.

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
        edges.update(a + width * 4.0 ** (-j) for j in range(1, 17))
    if right:
        edges.update(b - width * 4.0 ** (-j) for j in range(1, 17))
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
    be passed as ``breakpoints`` so panels split and refine there; those
    <= 0 are dropped.  Raises NonConvergenceError if the tail is still
    significant at xi = 2^30, and SpecfunDomainError for an eta that is not
    finite or has Re eta <= 0, an xi_max that is not finite and > 0, or a
    breakpoint that is not finite.

    f is called on the array of a panel's nodes and returns an array of the
    same shape or a constant; whatever f raises propagates.
    """
    eta_c = complex(eta)
    if not (cmath.isfinite(eta_c) and eta_c.real > 0.0):
        raise SpecfunDomainError(
            f"forward transform requires finite eta with Re eta > 0, got {eta}"
        )
    if xi_max is not None and not _positive_finite(xi_max):
        raise SpecfunDomainError(f"forward transform requires finite xi_max > 0, got {xi_max}")
    bps = [float(b) for b in breakpoints]
    for b in bps:
        if not math.isfinite(b):
            raise SpecfunDomainError(f"forward transform requires finite breakpoints, got {b}")

    def integrand(x):
        return np.exp(-eta_c * x) * f(x)

    bps = sorted({b for b in bps if b > 0.0})
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

def _positive_finite(v) -> bool:
    return v is not None and 0.0 < v < math.inf


@dataclass(frozen=True)
class _Line:
    """A transform the Bromwich line engine inverts: its value on an array of
    eta, the (power p, coefficient c) pairs of its large-eta expansion, whose
    inverses c xi^(p-1)/Gamma(p) are subtracted on the line and restored in
    closed form, and the line length T."""

    value: Callable
    terms: tuple
    t_max: float = 60.0


# The theta of each member of the theta family; "theta" takes its spec's.
_THETAS = {"dickman": 1.0, "watterson": 0.5, "theta": None}

# The erfc family on the Bromwich line.  The transforms look erfcx up when
# called, so a patched module attribute is the one they call.
_LINES = {
    "halfnormal": _Line(
        lambda eta: erfcx(eta / math.sqrt(2.0)),
        tuple((2 * m + 1, math.sqrt(2.0 / math.pi) * (-0.5) ** m / math.factorial(m)
               * math.factorial(2 * m)) for m in range(5)),
    ),
    "rayleigh": _Line(
        lambda eta: 1.0 - math.sqrt(math.pi / 2.0) * eta * erfcx(eta / math.sqrt(2.0)),
        tuple((2 * m + 2, (-1.0) ** m * math.factorial(2 * m + 1) / (2**m * math.factorial(m)))
              for m in range(5)),
    ),
    "erfc-gauss": _Line(
        lambda eta: erfcx(eta / math.sqrt(math.pi)),
        tuple((2 * m + 1, (-math.pi / 4.0) ** m / math.factorial(m) * math.factorial(2 * m))
              for m in range(5)),
    ),
    "halfnormal-m2-root": _Line(
        lambda eta: np.sqrt(erfcx(eta / math.sqrt(2.0))),
        tuple((p, c * (2.0 / math.pi) ** 0.25)
              for p, c in ((0.5, 1.0), (2.5, -0.5), (4.5, 11.0 / 8.0), (6.5, -109.0 / 16.0))),
        t_max=120.0,
    ),
}


@dataclass(frozen=True)
class TransformSpec:
    """A named transform to invert, with its theta or b where it has one."""

    id: str
    theta: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.id not in (*_THETAS, "cycle-cdf", *_LINES):
            raise ValueError(f"unknown transform id {self.id!r}")
        if self.id == "theta" and not MIN_THETA <= (self.theta or 0.0) <= MAX_THETA:
            raise ValueError(
                f"theta transform requires finite theta in [{MIN_THETA}, {MAX_THETA}], "
                f"got {self.theta}"
            )
        if self.id == "cycle-cdf" and not _positive_finite(self.b):
            raise ValueError(f"cycle-cdf transform requires finite b > 0, got {self.b}")

    @property
    def effective_theta(self) -> float:
        theta = _THETAS.get(self.id)
        return self.theta if theta is None else theta


def transform_value(spec: TransformSpec, eta):
    """Evaluate the transform at a (possibly complex) point eta or array of them.

    An array element gets the bits of the same point alone.  The theta and
    erfc families take eta with Re eta >= 0 (eta != 0 for the theta family),
    the half-plane their engines use, where E1 and erfcx are defined: Re eta
    < 0 raises SpecfunDomainError.  ``cycle-cdf`` takes E1 at the principal
    square root sqrt(2 b eta), whose real part is >= 0 for every eta != 0.
    """
    if spec.id in _THETAS:
        th = spec.effective_theta
        eta = np.asarray(eta)
        e1 = e1_real(eta) if np.isrealobj(eta) else e1_complex(eta)
        return (math.gamma(th) * np.exp(-th * e1) / eta**th)[()]
    if spec.id == "cycle-cdf":
        eta = np.asarray(eta, dtype=complex)
        return (np.exp(-e1_complex(np.sqrt(2.0 * spec.b * eta))) / np.sqrt(eta))[()]
    return _LINES[spec.id].value(eta)


# ---------------------------------------------------------------------------
# inversion engines
# ---------------------------------------------------------------------------


def _invert_talbot(F, xi: float, nodes: int = 32) -> float:
    """Fixed Talbot contour; valid only for transforms decaying off the cut.

    Node count is capped by IEEE double precision: roundoff grows like
    eps * exp(2M/5), so M near 32 is the practical optimum.  Non-finite nodes
    or weights raise a ValueError before F is called, once on the array
    [r, p_1, ..., p_(M-1)]; a rounding estimate eps sum |w_k F(p_k)| / (2.5 xi)
    above ``TALBOT_MAX_ROUNDING`` of the value raises a LaplaceAccuracyError.
    """
    with np.errstate(all="ignore"):  # refused below unless finite
        r = 2.0 * nodes / (5.0 * xi)
        theta = np.pi * np.arange(1, nodes) / nodes
        cot = 1.0 / np.tan(theta)
        pk = r * theta * (cot + 1j)
        weights = np.exp(xi * pk) * (1 + 1j * theta * (1 + cot**2) - 1j * cot)
    if not (0.0 < r < math.inf and np.isfinite(pk).all() and np.isfinite(weights).all()):
        raise ValueError(f"the Talbot contour at xi = {xi!r} has non-finite nodes or weights")
    values = F(np.concatenate(([r], pk)))
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
    F, terms, xi: float, t_max: float = 60.0, panel_nodes: int = 24
) -> float:
    """Bromwich line at Re eta = 1 with power-term subtraction.

    f(xi) = sum_j c_j xi^(p_j-1)/Gamma(p_j)
            + (e^xi/pi) Re int_0^T e^(i xi t) Ftilde(1+it) dt

    F is called once, on the flat array of every panel's nodes, and the
    remainder Ftilde = F - sum_j c_j/eta^p_j is formed once there.  More than
    ``LINE_MAX_PANELS`` panels raise a ValueError before any node is built.

    The rounding estimate, 2 eps [(e^xi/pi) int (|F| + sum_j |c_j/eta^p_j|
    + xi t |Ftilde|) dt + sum_j |restored term j|], raises a
    LaplaceAccuracyError above ``LINE_MAX_ROUNDING``.  A node's remainder
    carries eps of every magnitude it was formed from, not of the remainder
    itself, and its phase xi t is rounded to eps xi t; the factor e^xi lifts
    both, and the restored terms, up to 1.6e6 at xi = 10, cancel to the
    value.  Against the closed forms of the erfc family on xi in [5, 11]
    (step 1/8) the error is at most 1.04 times this estimate, and at most
    0.61 times where it exceeds 1e-10; the estimate stays below 7.5e-10 up
    to xi = 8 and refuses from xi = 8.375 (rayleigh), 8.625 (erfc-gauss)
    and 10.5 (halfnormal), where the error reaches 1e-9 from xi = 9.
    """
    n_panels = max(40, int(t_max * max(xi, 1.0) / math.pi) * 4 + 40)
    if n_panels > LINE_MAX_PANELS:
        raise ValueError(
            f"the Bromwich line at xi = {xi!r} needs {n_panels} panels, "
            f"more than LINE_MAX_PANELS = {LINE_MAX_PANELS}"
        )
    edges = np.linspace(0.0, t_max, n_panels + 1)
    t, half = _quad.gl_nodes(edges[:-1], edges[1:], panel_nodes)
    t = t.ravel()
    eta = 1.0 + 1j * t
    rem = F(eta)
    mag = np.abs(rem)
    for p_, c_ in terms:
        term = c_ * eta ** (-p_)
        rem = rem - term
        mag = mag + np.abs(term)
    _, w = _quad.gl_rule(panel_nodes)
    by_panel = (np.exp(1j * xi * t) * rem).reshape(n_panels, panel_nodes)
    total = _quad.edge_order_sum(half, np.sum(w * by_panel, axis=1))
    l1 = half @ ((mag + xi * t * np.abs(rem)).reshape(n_panels, panel_nodes) @ w)
    restored = [c_ * xi ** (p_ - 1.0) / math.gamma(p_) for p_, c_ in terms]
    rounding = 2.0 * np.finfo(float).eps * (
        math.exp(xi) / math.pi * l1 + sum(abs(v) for v in restored)
    )
    if rounding > LINE_MAX_ROUNDING:
        raise LaplaceAccuracyError(
            f"the Bromwich line at xi = {xi!r} has rounding error estimate "
            f"{rounding:.2e}, above LINE_MAX_ROUNDING = {LINE_MAX_ROUNDING:.0e}"
        )
    value = math.exp(xi) / math.pi * total.real
    for v in restored:
        value += v
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
    accuracy at the kinks first.

    The value is the float sum of the closed part and the remainder's
    inverse, which cancel as the inverse decays, so its error floor is
    eps |closed part|: 2.2e-16 at theta = 1, where xi = 20 gave 2.2e-16
    against a true 2.5e-29.  The inverse is positive, so a value below 0
    (theta = 2e-5 at xi = 3.5 gives -2.6e-17, where the DDE gives 1.2e-17)
    has lost every digit and raises a LaplaceAccuracyError, and so does a
    value whose rounding estimate eps (|closed| + |remainder|) exceeds
    ``TALBOT_MAX_ROUNDING`` of it, Talbot's relative rule.
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
    remainder = float(_dehoog(F, xi, degree, dps))
    value = closed + remainder
    if value < 0.0:
        raise LaplaceAccuracyError(
            f"de Hoog gave {value:.2e} at xi = {xi!r}, theta = {theta!r}: the inverse is "
            "positive, so the value is below the engine's absolute error"
        )
    rounding = np.finfo(float).eps * (abs(closed) + abs(remainder))
    if not rounding <= TALBOT_MAX_ROUNDING * abs(value):
        raise LaplaceAccuracyError(
            f"de Hoog at xi = {xi!r}, theta = {theta!r} has rounding error estimate "
            f"{rounding:.2e}, above TALBOT_MAX_ROUNDING = {TALBOT_MAX_ROUNDING:.0e} "
            f"of the value {value:.2e}"
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

    The engine follows the transform's id: Talbot for ``cycle-cdf``, de Hoog
    for the theta family, the subtracted Bromwich line for the erfc family.
    ``method="bromwich"`` moves ``cycle-cdf`` to a de Hoog line, and
    ``method="talbot"`` on any other transform raises MethodMismatchError.
    With ``check=True`` the computation is repeated at higher resolution
    (Talbot 32 -> 40 nodes; de Hoog degree 80 -> 100 and dps 80 -> 100 for
    the theta family, degree 40 -> 50 and dps 60 -> 80 on the Bromwich
    override; line panels 24 -> 32 nodes), a LaplaceAccuracyError is raised
    if the two disagree beyond tol, and the refined value is returned.  The
    theta family, like the DDE, covers xi <= 64 (``dde.X_MAX``); a larger or
    non-finite xi raises SpecfunDomainError, and a ``method`` other than
    None, "talbot" or "bromwich", or a tol not > 0, ValueError.
    """
    if method not in (None, "talbot", "bromwich"):
        raise ValueError(f"method must be None, 'talbot' or 'bromwich', got {method!r}")
    if not _positive_finite(xi):
        raise SpecfunDomainError(f"invert requires finite xi > 0, got {xi}")
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tol must be positive, got {tol}")
    if spec.id in _THETAS and xi > X_MAX:
        raise SpecfunDomainError(f"the {spec.id!r} inverse covers xi <= {X_MAX}, got {xi}")
    if method == "talbot" and spec.id != "cycle-cdf":
        raise MethodMismatchError(
            f"Talbot contour diverges for {spec.id!r}: the transform grows in the left half-plane"
        )

    def compute(scale=1):
        if spec.id == "cycle-cdf" and method != "bromwich":
            return _invert_talbot(lambda p: transform_value(spec, p), xi, nodes=32 + 8 * (scale - 1))
        if spec.id == "cycle-cdf":
            def F_mp(p):
                import mpmath as mp

                return mp.exp(-mp.e1(mp.sqrt(2 * spec.b * p))) / mp.sqrt(p)

            return _invert_mp_line(F_mp, xi, dps=60 + 20 * (scale - 1), degree=40 + 10 * (scale - 1))
        if spec.id in _THETAS:
            return _invert_theta_family(
                spec.effective_theta, xi, dps=80 + 20 * (scale - 1), degree=80 + 20 * (scale - 1)
            )
        line = _LINES[spec.id]
        return _invert_line_subtracted(
            line.value, line.terms, xi, t_max=line.t_max, panel_nodes=24 + 8 * (scale - 1)
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
    if not 0.0 <= xi < math.inf:
        raise SpecfunDomainError(f"xi must be finite and >= 0, got {xi}")
    if k == 0:
        return 1.0
    if k == 1:
        return math.log(xi) if xi >= 1.0 else 0.0
    if xi < 2.0:
        return 0.0
    return -math.pi**2 / 6.0 + math.log(xi) ** 2 + 2.0 * dilog(1.0 / xi)


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
    terms = ((-theta) ** k / math.factorial(k) * tower(k, theta, xi) for k in range(int(xi) + 1))
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


def divisibility_report(eta_grid) -> dict:
    """Evaluate the half-normal/Rayleigh divisibility checks on a grid.

    Per grid point: the strict bound chain
    pi/(sqrt(2 pi) + pi eta) < sqrt(pi/2) e^(eta^2/2) erfc(eta/sqrt(2))
    < pi/(sqrt(2 pi) + 2 eta), and the relative error of approximating the
    square root of the Rayleigh transform by e^(eta^2/pi) erfc(eta/sqrt(pi)).
    The two closed-form inverse bounds are pushed back through
    forward_laplace on a small log-spaced subset, and the two-component
    allocation probe (square root of the half-normal transform) is inverted
    near the origin to exhibit its unbounded growth.  Returns the record
    ``randmap divisibility`` prints.  An eta that is not positive (NaN too)
    or above ``DIVISIBILITY_MAX_ETA`` raises SpecfunDomainError.
    """
    eta = np.asarray(eta_grid, dtype=float)
    if not np.all(eta > 0.0):
        raise SpecfunDomainError("eta grid must be positive")
    if not np.all(eta <= DIVISIBILITY_MAX_ETA):
        raise SpecfunDomainError(f"eta grid must lie below DIVISIBILITY_MAX_ETA = 1e3")
    center = math.sqrt(math.pi / 2.0) * _LINES["halfnormal"].value(eta)
    lower = math.pi / (math.sqrt(2.0 * math.pi) + math.pi * eta)
    upper = math.pi / (math.sqrt(2.0 * math.pi) + 2.0 * eta)
    root = np.sqrt(_LINES["rayleigh"].value(eta))
    rel = np.abs(root - _LINES["erfc-gauss"].value(eta)) / root

    # a sorted set rather than np.unique, whose first call imports numpy.ma
    sub = sorted(set(np.geomspace(eta.min(), eta.max(), min(8, len(eta))).tolist()))
    roundtrip = []
    for c in (math.sqrt(math.pi / 2.0), math.sqrt(2.0 / math.pi)):
        f = lambda xi: np.exp(-xi / c) / np.sqrt(np.pi * c * xi)
        err = [forward_laplace(f, e, tol=1e-11) - 1.0 / math.sqrt(1.0 + c * e) for e in sub]
        roundtrip.append(float(np.max(np.abs(err))))

    m2 = TransformSpec(id="halfnormal-m2-root")
    v_small = invert(m2, 0.01)
    v_unit = invert(m2, 1.0)
    return {
        "bounds_strict": float(np.all(lower < center) and np.all(center < upper)),
        "max_approx_rel_err": float(np.max(rel)),
        "max_roundtrip_err_lower": roundtrip[0],
        "max_roundtrip_err_upper": roundtrip[1],
        "m2_root_small_value": v_small,
        "m2_root_unit_value": v_unit,
        "m2_root_ratio": v_small / v_unit,
    }
