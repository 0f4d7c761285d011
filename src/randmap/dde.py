"""Delay differential equations solved by the method of steps.

Two families are covered, both with unit delay:

* the theta family  x g'(x) + (1-theta) g(x) + theta g(x-1) = 0  for x > 1,
  with g(x) = x^(theta-1) on (0,1].  theta = 1 is Dickman's rho, theta = 1/2
  is Watterson's sigma.
* the generalized Dickman recursion  x rho_r'(x) + rho_r(x-1) = rho_{r-1}(x-1)
  for x > 1, rho_r = 1 on [0,1], with rho_0 taken identically zero on (0, inf)
  so that rank 1 reduces to the classical equation.

Integrating either equation from x = 1 gives an identity with positive terms
only,  x g(x) = c int_{x-1}^x g + M(x-1):  c = theta and M = 0 for the theta
family; c = 1 and M(z) = int_0^z rho_{r-1} for rank r (M = 0 for rank 1).
A solution is ``exact_part`` on [0, 2], the one closed form of both
families (``laplace`` reads it too), and one Chebyshev piece per unit
interval beyond, for theta in [MIN_THETA, MAX_THETA], fitted in the stretched
variable s = (x-k)^(1/4): the solutions carry algebraic branch points of
exponent theta+k-1 at the integer abscissa k, which the stretch turns into
terms a polynomial basis resolves to full tolerance.  Each piece is one
collocation solve of the identity.  Nothing is subtracted from a larger
value, so the solution keeps its relative accuracy as it decays (rho(64) is
about 3e-132).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from . import _quad
from .specfun import SpecfunDomainError, arctanh, dilog

_STRETCH = 4  # x = k + s**_STRETCH on each numeric piece
_DEGREE = 48
_DEGREE_RETRY = 96
_UNDERFLOW = 1e-300
X_MAX = 64  # the solved domain (0, X_MAX]: rho(64) is about 3e-132
TAIL_TOL = 1e-12  # every piece's Chebyshev tail, DDE and E^k tower alike
_PAST_TWO_EDGES = math.log(2.0) + np.array([0.0] + [2.0**i for i in range(11)])
MAX_RANK = 1000  # rank r costs r solves (every lower rank) and keeps them all
# Relative error against mpmath below 1e-6: on [2, 3] it is 7e-7 at 50 and
# 0.1 at 80; the (1, 2] segment 1 - theta T cancels to O(theta^2) near 2,
# 3.4e-7 at 2e-5, 1.4e-6 at 1e-5 and all digits from 1e-8.
MIN_THETA = 2e-5
MAX_THETA = 50.0


class DdeError(ValueError):
    """Invalid solver specification."""


class ToleranceNotAchievedError(RuntimeError):
    """A piece's Chebyshev tail did not fall below the requested tolerance."""


class EvaluationRangeError(ValueError):
    """Evaluation point beyond the solved domain."""


@dataclass(frozen=True)
class DdeSpec:
    """What to solve: the family and its theta or rank."""

    kind: str  # "theta-family" | "generalized-dickman"
    theta: float | None = None
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ("theta-family", "generalized-dickman"):
            raise DdeError(f"unknown kind {self.kind!r}")
        if self.kind == "theta-family":
            if self.theta is None or not MIN_THETA <= self.theta <= MAX_THETA:
                raise DdeError(
                    f"theta-family requires {MIN_THETA} <= theta <= {MAX_THETA}, "
                    f"got {self.theta}: the relative error grows toward both ends "
                    "(3.4e-7 at 2e-5, 7e-7 at 50)"
                )
        else:
            if self.rank is None or not 1 <= self.rank <= MAX_RANK:
                raise DdeError(
                    f"generalized-dickman requires 1 <= rank <= {MAX_RANK}, got {self.rank}"
                )

    @property
    def exact_theta(self) -> float | None:
        """``exact_part``'s theta: the family's, 1 for rank 1, None for rank >= 2."""
        if self.kind == "theta-family":
            return self.theta
        return 1.0 if self.rank == 1 else None


@lru_cache(maxsize=8)
def _collocation(n: int):
    """Chebyshev-Lobatto nodes on [0,1], their Vandermonde matrix, its inverse
    and the value-space integration matrix.

    Q maps integrand values at the nodes to values of int_0^s integrand ds.
    """
    i = np.arange(n + 1)
    zeta = -np.cos(np.pi * i / n)
    s = 0.5 * (zeta + 1.0)
    vand = _cheb.chebvander(zeta, n)
    interp = np.linalg.inv(vand)
    antider = np.zeros((n + 2, n + 1))
    for j in range(n + 1):
        unit = np.zeros(n + 1)
        unit[j] = 1.0
        antider[:, j] = _cheb.chebint(unit)
    vand_hi = _cheb.chebvander(zeta, n + 1)
    vand_lo = _cheb.chebvander(np.array([-1.0]), n + 1)
    q = 0.5 * ((vand_hi - vand_lo) @ antider @ interp)
    return zeta, s, vand, interp, q


@lru_cache(maxsize=64)
def _lerch_coefficients(theta: float) -> tuple:
    # theta/(theta+j) for j = 55, ..., 0: a subnormal theta does not overflow
    return tuple(theta / (theta + j) for j in range(55, -1, -1))


def _lerch_sum(theta: float, u):
    """theta sum_{j<56} u^j/(theta+j), complete to rounding for 0 <= u <= 1/2, by
    Horner's rule in plain IEEE arithmetic: a float gets an array's bits."""
    total = 0.0
    for c in _lerch_coefficients(theta):
        total = total * u + c
    return total


def _past_two(theta: float, x):
    """theta (T(u) - T(1/2)) for x >= 2: with t = 1 - e^-y, the integral of
    (1 - e^-y)^(theta-1), positive and tending to 1, over [ln 2, ln x] by
    32-point Gauss-Legendre panels on ln 2 + [0, 1], [1, 2], [2, 4], ..."""
    top = np.log(np.asarray(x, dtype=float))[..., None]
    edges = np.minimum(_PAST_TWO_EDGES, top)
    pts, half = _quad.gl_nodes(edges[..., :-1].ravel(), edges[..., 1:].ravel(), 32)
    panels = half * (np.power(-np.expm1(-pts), theta - 1.0) @ _quad.gl_rule(32)[1])
    return theta * panels.reshape(top.shape[:-1] + (-1,)).sum(axis=-1)


def theta_delay_integral(theta: float, x):
    """theta T(u) at u = (x-1)/x, x >= 1, where T(u) = int_0^u t^(theta-1)/(1-t) dt:
    ln x at theta = 1, artanh(sqrt(u)) at theta = 1/2, and otherwise u^theta
    times the Lerch sum on [1, 2] plus ``_past_two`` beyond."""
    if theta == 1.0:
        return np.log(x)
    if theta == 0.5:
        return np.arctanh(np.sqrt((x - 1.0) / x))
    array = isinstance(x, np.ndarray)
    near = np.minimum(x, 2.0) if array else min(x, 2.0)
    u = (near - 1.0) / near
    total = np.power(u, theta) * _lerch_sum(theta, u)
    if (x > 2.0).any() if array else x > 2.0:
        total = total + _past_two(theta, np.maximum(x, 2.0))
    return total


def exact_part(theta: float | None, x):
    """The solution on [0, 2], for a Python float or an array x: the theta
    family's head x^(theta-1) on [0, 1] and segment (1 - theta T)/x^(1-theta)
    (rank 1 is theta = 1), or 1 for theta None (a rank r >= 2).

    Past 2 the segment is the inverse of the first two terms of the
    exp(-theta E) expansion, which ``laplace`` peels off.  On [0, 2] a
    Python float gives the bits of the same point in an array.
    """
    if theta is None:
        return np.ones_like(x)
    if not isinstance(x, np.ndarray):
        return np.power(x, theta - 1.0) if x <= 1.0 else _segment(theta, x)
    out = np.power(x, theta - 1.0)
    seg = x > 1.0
    out[seg] = _segment(theta, x[seg])
    return out


def _segment(theta: float, x):
    return (1.0 - theta_delay_integral(theta, x)) / np.power(x, 1.0 - theta)


def _clenshaw(rows, z):
    """chebval's recurrence with one coefficient row per point.

    ``rows`` is an (m, width) array paired with the m values ``z``, or a single
    Python list paired with a Python float.  The operations are chebval's, in
    its order, so zero padding on top of a row leaves the value bitwise equal.
    """
    cols = rows.T if isinstance(rows, np.ndarray) else rows
    z2 = 2.0 * z
    c0 = cols[-2]
    c1 = cols[-1]
    for i in range(3, len(cols) + 1):
        c0, c1 = cols[-i] - c1, c0 + c1 * z2
    return c0 + c1 * z


@dataclass
class PiecewiseSolution:
    """A solved DDE on (0, X_MAX]: ``exact_part`` on [0, 2], which the solver
    reads too, and one Chebyshev piece per unit interval [k, k+1], k = 2, 3, ...

    ``pieces`` (constructor only) lists each piece's Chebyshev coefficients in
    zeta = 2*s - 1, s = (x - k)^(1/4), stored as one table: row j of ``coef``
    is the piece starting at j + 2, zero-padded on top to the widest piece
    (49 coefficients, or 97 after a retried fit).  A call evaluates every
    point x > 2 in one Clenshaw pass over the rows its points select, with
    chebval's values bitwise.  A Python float takes a scalar path through the
    same expressions, so it gets the array path's bits.

    ``unit_table(n)`` holds the solution at the n Gauss-Legendre nodes of
    every unit interval, computed once per rule: a panel [k b, (k+1) b] of
    the mixture quadratures maps onto [k, k+1] at those nodes whatever b is.
    """

    spec: DdeSpec
    pieces: InitVar[list]
    _prev: "PiecewiseSolution | None" = None  # lower rank, generalized family only
    coef: np.ndarray = field(init=False, repr=False)
    _tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self, pieces):
        self.coef = np.zeros((len(pieces), max(len(c) for c in pieces)))
        for row, c in zip(self.coef, pieces):
            row[: len(c)] = c

    @property
    def x_max(self) -> float:
        return float(X_MAX)

    def __call__(self, x):
        if isinstance(x, float) and _UNDERFLOW < x <= X_MAX:  # not near the pole
            if x <= 2.0:
                v = float(exact_part(self.spec.exact_theta, x))
            else:
                j = min(int(x - 2.0), len(self.coef) - 1)
                s = float(np.power(x - (j + 2.0), 1.0 / _STRETCH))
                v = _clenshaw(self.coef[j].tolist(), 2.0 * s - 1.0)
            return 0.0 if abs(v) < _UNDERFLOW else v
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        outside = ~(xs <= X_MAX * (1.0 + 1e-12))
        if np.any(outside):
            raise EvaluationRangeError(
                f"x={xs[outside][0]} outside the solved domain (x <= x_max={self.x_max})"
            )
        out = np.zeros_like(xs)
        exact = (xs >= 0.0) & (xs <= 2.0)
        if np.any(exact):
            with np.errstate(divide="ignore", over="ignore"):  # the pole at 0, theta < 1
                out[exact] = exact_part(self.spec.exact_theta, xs[exact])
        body = xs > 2.0
        if np.any(body):
            xb = xs[body]
            idx = np.minimum(np.floor(xb - 2.0).astype(int), len(self.coef) - 1)
            s = np.power(xb - (idx + 2.0), 1.0 / _STRETCH)
            out[body] = _clenshaw(self.coef[idx], 2.0 * s - 1.0)
        np.copyto(out, 0.0, where=np.abs(out) < _UNDERFLOW)
        return float(out[0]) if scalar else out

    def unit_table(self, nodes: int) -> np.ndarray:
        """Row k, for k = 0, ..., X_MAX - 1, holds the solution at k + (1 + x_i)/2,
        x_i the nodes of the ``nodes``-point Gauss-Legendre rule, from one
        array call; row X_MAX, past the solved domain, is 0.  Read-only and
        cached per rule."""
        table = self._tables.get(nodes)
        if table is None:
            x, _ = _quad.gl_rule(nodes)
            table = np.zeros((X_MAX + 1, nodes))
            table[:X_MAX] = self(np.arange(X_MAX)[:, None] + (1.0 + x) / 2.0)
            table.flags.writeable = False
            self._tables[nodes] = table
        return table

    def derivative(self, x: float) -> float:
        """d/dx of the stored interpolant (pieces region only, x > 2)."""
        if not 2.0 < x <= X_MAX:
            raise EvaluationRangeError("interpolant derivative defined on (2, x_max]")
        idx = min(int(math.floor(x - 2.0)), len(self.coef) - 1)
        s = (x - (idx + 2.0)) ** (1.0 / _STRETCH)
        dcoef = _cheb.chebder(self.coef[idx])
        dg_dzeta = _cheb.chebval(2.0 * s - 1.0, dcoef)
        return float(dg_dzeta * 2.0 / (_STRETCH * s ** (_STRETCH - 1)))

    def dde_residual(self, x: float) -> float:
        """Residual of the delay equation using the interpolant's derivative."""
        g = self(x)
        gd = self(x - 1.0)
        gp = self.derivative(x)
        if self.spec.kind == "theta-family":
            th = self.spec.theta
            return x * gp + (1.0 - th) * g + th * gd
        prev = self._prev(x - 1.0) if self._prev is not None else 0.0
        return x * gp + gd - prev

    def residual_grid(self) -> np.ndarray:
        """Interior sample points away from breakpoints, one set per piece."""
        s = np.linspace(0.3, 0.98, 9)
        return (2.0 + np.arange(len(self.coef))[:, None] + s**_STRETCH).ravel()


def sigma_tilde(sol: PiecewiseSolution, x):
    """sqrt(x) times the solution value."""
    return np.sqrt(x) * sol(x)


def _fit_piece(k, step):
    """Collocate one unit piece on [k, k+1].

    ``step(s, vand, q)`` returns the piece's values at the nodes s and what it
    carries to the next piece; this returns the Chebyshev coefficients and
    that carry, from the first degree whose tail meets ``TAIL_TOL``.
    """
    for degree in (_DEGREE, _DEGREE_RETRY):
        _, s, vand, interp, q = _collocation(degree)
        values, carry = step(s, vand, q)
        coef = interp @ values
        scale = max(np.max(np.abs(coef)), _UNDERFLOW)
        tail = np.max(np.abs(coef[-2:]))
        if tail <= TAIL_TOL * scale:
            return coef, carry
    raise ToleranceNotAchievedError(
        f"piece [{k}, {k + 1}] Chebyshev tail {tail:.2e} exceeds tol {TAIL_TOL:.2e}"
    )


def _row_at_nodes(row, s, vand):
    """A piece's values at the collocation nodes s, whose Chebyshev
    Vandermonde matrix is ``vand``; a row wider than ``vand`` goes through
    chebval."""
    if len(row) <= len(s):
        return vand[:, : len(row)] @ row
    return _cheb.chebval(2.0 * s - 1.0, row)


def _solve_pieces(spec: DdeSpec, c: float, lower=None) -> list:
    """Chebyshev pieces on [2, X_MAX] of  x g(x) = c int_{x-1}^x g + M(x-1).

    M(z) = int_0^z ``lower`` (rho_{r-1}) for rank r >= 2, and M = 0 otherwise.
    On [k, k+1] put x = k + s^4 and w = 4 s^3, so that Q(w f) = int_k^x f.
    The delayed nodes x - 1 are the previous piece's nodes, and the piece's
    values y solve, in one linear system,
        (diag(x) - c Q diag(w)) y = c (P - Q(w g(x-1))) + M(k-1) + Q(w rho_{r-1}(x-1)),
    where P = int_{k-1}^k g is the last entry of Q(w g(x-1)).  The last entry
    of Q(w rho_{r-1}(x-1)) carries M(k-1) on to the next piece.
    """
    pieces = []
    mass = 0.0 if lower is None else 1.0  # M(k-1), starting from M(1)

    def delayed(sol_spec, rows, s, vand):  # a solution at x - 1 = k - 1 + s^4
        if k == 2:
            return exact_part(sol_spec.exact_theta, 1.0 + s**_STRETCH)
        return _row_at_nodes(rows[k - 3], s, vand)  # the piece on [k-1, k]

    def step(s, vand, q):  # the piece on [k, k+1] with the current k and mass
        u = s**_STRETCH
        w = _STRETCH * s ** (_STRETCH - 1)
        span = q @ (w * delayed(spec, pieces, s, vand))
        gain = np.zeros_like(s)
        if lower is not None:
            gain = q @ (w * delayed(lower.spec, lower.coef, s, vand))
        rhs = c * (span[-1] - span) + (mass + gain)
        return np.linalg.solve(np.diag(k + u) - c * q * w, rhs), mass + gain[-1]

    for k in range(2, X_MAX):
        coef, mass = _fit_piece(k, step)
        pieces.append(coef)
    return pieces


def solve_theta_dde(spec: DdeSpec) -> PiecewiseSolution:
    """Solve the theta-family equation on (0, X_MAX]."""
    if spec.kind != "theta-family":
        raise DdeError("solve_theta_dde requires a theta-family spec")
    return PiecewiseSolution(spec=spec, pieces=_solve_pieces(spec, spec.theta))


def solve_generalized_dickman(spec: DdeSpec) -> PiecewiseSolution:
    """Solve the rank-r recursion; lower ranks come from ``dickman_solution``."""
    if spec.kind != "generalized-dickman":
        raise DdeError("solve_generalized_dickman requires a generalized-dickman spec")
    prev = None if spec.rank == 1 else dickman_solution(spec.rank - 1)
    return PiecewiseSolution(spec=spec, pieces=_solve_pieces(spec, 1.0, prev), _prev=prev)


def rho_closed_form(x: float) -> float:
    """Dickman rho on [0, 3] from the elementary piecewise formulas."""
    if not 0.0 <= x <= 3.0:
        raise SpecfunDomainError(f"rho_closed_form covers [0, 3], got {x}")
    if x <= 1.0:
        return 1.0
    if x <= 2.0:
        return 1.0 - math.log(x)
    return (
        1.0
        - math.pi**2 / 12.0
        - math.log(x)
        + 0.5 * math.log(x) ** 2
        + dilog(1.0 / x)
    )


def sigma_closed_form(x: float) -> float:
    """Watterson sigma on (0, 2] from the elementary piecewise formulas."""
    if not 0.0 < x <= 2.0:
        raise SpecfunDomainError(f"sigma_closed_form covers (0, 2], got {x}")
    if x <= 1.0:
        return 1.0 / math.sqrt(x)
    return (1.0 - arctanh(math.sqrt(1.0 - 1.0 / x))) / math.sqrt(x)


@lru_cache(maxsize=64)
def _theta_cached(theta: float) -> PiecewiseSolution:
    return solve_theta_dde(DdeSpec(kind="theta-family", theta=theta))


@lru_cache(maxsize=None)  # each solve fetches ranks 1..r-1 again; _prev keeps them anyway
def _dickman_cached(rank: int) -> PiecewiseSolution:
    # only dickman_solution calls this, after it has fetched rank - 1
    return solve_generalized_dickman(DdeSpec(kind="generalized-dickman", rank=rank))


def theta_solution(theta: float) -> PiecewiseSolution:
    """Cached solution of the theta family."""
    return _theta_cached(float(theta))


def dickman_solution(rank: int = 1) -> PiecewiseSolution:
    """Cached solution of the rank-r recursion (rank 1 is classical rho).

    The ranks below r are fetched first, bottom-up in a loop, so each rank is
    solved from the one below it, just fetched, and the call depth does not
    grow with r.  Ranks above ``MAX_RANK`` raise DdeError.
    """
    spec = DdeSpec(kind="generalized-dickman", rank=int(rank))
    for lower in range(1, spec.rank):
        _dickman_cached(lower)
    return _dickman_cached(spec.rank)


def watterson_solution() -> PiecewiseSolution:
    return theta_solution(0.5)
