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
A solution is an exact head on (0,1], an exact segment on (1,2] and one
Chebyshev piece per unit interval beyond, fitted in the stretched variable
s = (x-k)^(1/4): the solutions carry algebraic branch points of exponent
theta+k-1 at the integer abscissa k, which the stretch turns into terms a
polynomial basis resolves to full tolerance.  Each piece is one collocation
solve of the identity.  Nothing is subtracted from a larger value, so the
solution keeps its relative accuracy as it decays (rho(64) is about 3e-132).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .specfun import SpecfunDomainError, arctanh, dilog

_STRETCH = 4  # x = k + s**_STRETCH on each numeric piece
_DEGREE = 48
_DEGREE_RETRY = 96
_UNDERFLOW = 1e-300
MAX_RANK = 1000  # rank r costs r solves (every lower rank) and keeps them all


class DdeError(ValueError):
    """Invalid solver specification."""


class ToleranceNotAchievedError(RuntimeError):
    """A piece's Chebyshev tail did not fall below the requested tolerance."""


class EvaluationRangeError(ValueError):
    """Evaluation point beyond the solved domain."""


@dataclass(frozen=True)
class DdeSpec:
    """What to solve: family, parameter, domain and tolerance."""

    kind: str  # "theta-family" | "generalized-dickman"
    theta: float | None = None
    rank: int | None = None
    x_max: float = 64.0
    tol: float = 1e-12

    def __post_init__(self):
        if self.kind not in ("theta-family", "generalized-dickman"):
            raise DdeError(f"unknown kind {self.kind!r}")
        if self.kind == "theta-family":
            if self.theta is None or not self.theta > 0.0:
                raise DdeError(f"theta-family requires theta > 0, got {self.theta}")
        else:
            if self.rank is None or not 1 <= self.rank <= MAX_RANK:
                raise DdeError(
                    f"generalized-dickman requires 1 <= rank <= {MAX_RANK}, got {self.rank}"
                )
        if not self.x_max >= 1.0:
            raise DdeError(f"x_max must be >= 1, got {self.x_max}")
        if not 0.0 < self.tol <= 1e-6:
            raise DdeError(f"tol must lie in (0, 1e-6], got {self.tol}")


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


def _lerch_tail(theta: float, u):
    """S(u) = sum_{j>=0} u^j/(theta+j), convergent for |u| < 1."""
    u = np.asarray(u, dtype=float)
    total = np.zeros_like(u)
    power = np.ones_like(u)
    for j in range(0, 100000):
        term = power / (theta + j)
        total += term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)):
            break
        power = power * u
    return total


def theta_delay_integral(theta: float, u):
    """T(u) = int_0^u t^(theta-1)/(1-t) dt = u^theta * S(u), for 0 <= u < 1."""
    u = np.asarray(u, dtype=float)
    return np.power(u, theta, where=u > 0, out=np.zeros_like(u)) * _lerch_tail(theta, u)


def _theta_segment(theta: float, x):
    """Exact solution of the theta family on [1,2], by the Lerch series.

    Integrating-factor form: x^(1-theta) g(x) = 1 - theta * T((x-1)/x).
    """
    x = np.asarray(x, dtype=float)
    u = (x - 1.0) / x
    return x ** (theta - 1.0) * (1.0 - theta * theta_delay_integral(theta, u))


def _segment_theta(spec: DdeSpec):
    """theta of the solution on (1,2], or None where it is identically 1."""
    if spec.kind == "theta-family":
        return spec.theta
    return 1.0 if spec.rank == 1 else None


def _segment(spec: DdeSpec, x):
    """Exact solution on (1,2] of either family.

    T(u) is -ln(1-u) for theta = 1 and 2 artanh(sqrt(u)) for theta = 1/2, so
    there the segment is 1 - ln x and (1 - artanh(sqrt(u)))/sqrt(x) with
    u = (x-1)/x; both are within 2e-16 of mpmath on (1,2], against 7.4e-16
    for the series.  They use numpy ufuncs only, so a Python float and an
    array give the same bits.  Other theta use the series; rank r >= 2 is 1.
    """
    theta = _segment_theta(spec)
    if theta is None:
        return np.ones_like(np.asarray(x, dtype=float))
    if theta == 1.0:
        return 1.0 - np.log(x)
    if theta == 0.5:
        return (1.0 - np.arctanh(np.sqrt((x - 1.0) / x))) / np.sqrt(x)
    return _theta_segment(theta, x)


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
    """A solved DDE: exact head on [0,1], exact segment on (1,2] and one
    Chebyshev piece per unit interval [k, k+1], k = 2, 3, ...

    The solver and evaluation read (1,2] through the same ``_segment``.
    ``pieces`` (constructor only) lists each piece's Chebyshev coefficients in
    zeta = 2*s - 1, s = (x - k)^(1/4).  They are stored as one table: row j of
    ``coef`` is the piece starting at ``lo[j] = j + 2``, zero-padded on top to
    the widest piece (49 coefficients, or 97 after a retried fit).  A call
    evaluates every point x > 2 in one Clenshaw pass over the rows its points
    select; a Python float in (2, x_max] takes a scalar path through the same
    recurrence.  Both give chebval's values bitwise.  A Python float on a
    constant head, or on a closed-form segment (theta = 1 or 1/2), is
    evaluated by the same expression as an array, so it too matches bitwise.
    """

    spec: DdeSpec
    pieces: InitVar[list]
    closed_form_head: str
    _prev: "PiecewiseSolution | None" = None  # lower rank, generalized family only
    coef: np.ndarray = field(init=False, repr=False)
    lo: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, pieces):
        width = max((len(c) for c in pieces), default=2)
        self.coef = np.zeros((len(pieces), width))
        for row, c in zip(self.coef, pieces):
            row[: len(c)] = c
        self.lo = 2.0 + np.arange(len(pieces), dtype=float)

    @property
    def x_max(self) -> float:
        return self.spec.x_max

    @property
    def theta(self) -> float:
        if self.spec.kind == "theta-family":
            return self.spec.theta
        return 1.0

    def _head(self, x):
        x = np.asarray(x, dtype=float)
        if self.spec.kind == "generalized-dickman":
            return np.ones_like(x)
        theta = self.spec.theta
        if theta == 1.0:
            return np.ones_like(x)
        with np.errstate(divide="ignore"):
            return x ** (theta - 1.0)

    def __call__(self, x):
        if isinstance(x, float) and x <= self.spec.x_max:
            if x > 2.0:
                j = min(int(x - 2.0), len(self.lo) - 1)
                s = float(np.power(x - self.lo[j], 1.0 / _STRETCH))
                v = _clenshaw(self.coef[j].tolist(), 2.0 * s - 1.0)
                return 0.0 if abs(v) < _UNDERFLOW else v
            if x > 1.0:
                if _segment_theta(self.spec) in (1.0, 0.5):
                    return float(_segment(self.spec, x))
            elif x >= 0.0 and self.theta == 1.0:
                return 1.0
        return self._values(x)

    def _values(self, x):
        """The array path of ``__call__``."""
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        outside = ~(xs <= self.spec.x_max * (1.0 + 1e-12))
        if np.any(outside):
            raise EvaluationRangeError(
                f"x={xs[outside][0]} outside the solved domain (x <= x_max={self.spec.x_max})"
            )
        out = np.zeros_like(xs)
        head = (xs >= 0.0) & (xs <= 1.0)
        if np.any(head):
            out[head] = self._head(xs[head])
        seg = (xs > 1.0) & (xs <= 2.0)
        if np.any(seg):
            out[seg] = _segment(self.spec, xs[seg])
        body = xs > 2.0
        if np.any(body) and len(self.lo):
            xb = xs[body]
            idx = np.minimum(np.floor(xb - 2.0).astype(int), len(self.lo) - 1)
            s = np.power(xb - self.lo[idx], 1.0 / _STRETCH)
            out[body] = _clenshaw(self.coef[idx], 2.0 * s - 1.0)
        np.copyto(out, 0.0, where=np.abs(out) < _UNDERFLOW)
        return float(out[0]) if scalar else out

    def derivative(self, x: float) -> float:
        """d/dx of the stored interpolant (pieces region only, x > 2)."""
        if not 2.0 < x <= self.spec.x_max:
            raise EvaluationRangeError("interpolant derivative defined on (2, x_max]")
        idx = min(int(math.floor(x - 2.0)), len(self.lo) - 1)
        s = (x - float(self.lo[idx])) ** (1.0 / _STRETCH)
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
        return (self.lo[:, None] + s**_STRETCH).ravel()


def sigma_tilde(sol: PiecewiseSolution, x):
    """sqrt(x) times the solution value."""
    return np.sqrt(x) * sol(x)


def _fit_piece(k, step, tol):
    """Collocate one unit piece on [k, k+1].

    ``step(s, vand, q)`` returns the piece's values at the nodes s and what it
    carries to the next piece; this returns the Chebyshev coefficients and
    that carry, from the first degree whose tail meets ``tol``.
    """
    for degree in (_DEGREE, _DEGREE_RETRY):
        _, s, vand, interp, q = _collocation(degree)
        values, carry = step(s, vand, q)
        coef = interp @ values
        scale = max(np.max(np.abs(coef)), _UNDERFLOW)
        tail = np.max(np.abs(coef[-2:]))
        if tail <= max(tol * scale, 1e-16 * scale):
            return coef, carry
    raise ToleranceNotAchievedError(
        f"piece [{k}, {k + 1}] Chebyshev tail {tail:.2e} exceeds tol {tol:.2e}"
    )


def _row_at_nodes(row, s, vand):
    """A piece's values at the collocation nodes s, whose Chebyshev
    Vandermonde matrix is ``vand``; a row wider than ``vand`` goes through
    chebval."""
    if len(row) <= len(s):
        return vand[:, : len(row)] @ row
    return _cheb.chebval(2.0 * s - 1.0, row)


def _solve_pieces(spec: DdeSpec, c: float, lower=None) -> list:
    """Chebyshev pieces on [2, x_max] of  x g(x) = c int_{x-1}^x g + M(x-1).

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
            return _segment(sol_spec, 1.0 + s**_STRETCH)
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

    for k in range(2, math.ceil(spec.x_max)):
        coef, mass = _fit_piece(k, step, spec.tol)
        pieces.append(coef)
    return pieces


def solve_theta_dde(spec: DdeSpec) -> PiecewiseSolution:
    """Solve the theta-family equation on (0, x_max]."""
    if spec.kind != "theta-family":
        raise DdeError("solve_theta_dde requires a theta-family spec")
    return PiecewiseSolution(
        spec=spec,
        pieces=_solve_pieces(spec, spec.theta),
        closed_form_head=f"x**(theta-1) with theta={spec.theta} on (0,1]",
    )


def solve_generalized_dickman(spec: DdeSpec) -> PiecewiseSolution:
    """Solve the rank-r recursion; lower ranks come from ``dickman_solution``."""
    if spec.kind != "generalized-dickman":
        raise DdeError("solve_generalized_dickman requires a generalized-dickman spec")
    prev = None
    if spec.rank > 1:
        prev = dickman_solution(spec.rank - 1, x_max=spec.x_max, tol=spec.tol)
    return _solve_rank(spec, prev)


def _solve_rank(spec: DdeSpec, prev: PiecewiseSolution | None) -> PiecewiseSolution:
    """The rank-r solution from the rank r - 1 one (None for rank 1)."""
    return PiecewiseSolution(
        spec=spec,
        pieces=_solve_pieces(spec, 1.0, prev),
        closed_form_head="1 on [0,1]",
        _prev=prev,
    )


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
def _theta_cached(theta: float, x_max: float, tol: float) -> PiecewiseSolution:
    return solve_theta_dde(DdeSpec(kind="theta-family", theta=theta, x_max=x_max, tol=tol))


@lru_cache(maxsize=64)
def _dickman_cached(rank: int, x_max: float, tol: float) -> PiecewiseSolution:
    # only dickman_solution calls this, after it has fetched rank - 1
    spec = DdeSpec(kind="generalized-dickman", rank=rank, x_max=x_max, tol=tol)
    prev = _dickman_cached(rank - 1, x_max, tol) if rank > 1 else None
    return _solve_rank(spec, prev)


def theta_solution(theta: float, x_max: float = 64.0, tol: float = 1e-12) -> PiecewiseSolution:
    """Cached solution of the theta family."""
    return _theta_cached(float(theta), float(x_max), float(tol))


def dickman_solution(rank: int = 1, x_max: float = 64.0, tol: float = 1e-12) -> PiecewiseSolution:
    """Cached solution of the rank-r recursion (rank 1 is classical rho).

    The ranks below r are fetched first, bottom-up in a loop, so each rank is
    solved from the one below it, just fetched, and the call depth does not
    grow with r.  Ranks above ``MAX_RANK`` raise DdeError.
    """
    spec = DdeSpec(kind="generalized-dickman", rank=int(rank), x_max=float(x_max), tol=float(tol))
    for lower in range(1, spec.rank):
        _dickman_cached(lower, spec.x_max, spec.tol)
    return _dickman_cached(spec.rank, spec.x_max, spec.tol)


def watterson_solution(x_max: float = 64.0, tol: float = 1e-12) -> PiecewiseSolution:
    return theta_solution(0.5, x_max=x_max, tol=tol)
