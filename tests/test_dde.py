import inspect
import math
import re
import sys

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from oracles import dde_residual, derivative, residual_grid
from scipy.integrate import quad
from scipy.special import gammaln

from randmap import dde
from randmap.dde import (
    DdeError,
    EvaluationRangeError,
    dickman_solution,
    rho_closed_form,
    sigma_closed_form,
    sigma_tilde,
    theta_solution,
    watterson_solution,
)


@pytest.fixture(scope="module")
def rho():
    return dickman_solution(1)


@pytest.fixture(scope="module")
def sigma():
    return watterson_solution()


def _no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started")

    monkeypatch.setattr(dde, "_solve_pieces", no_solve)


class TestSpecValidation:
    """Each solver refuses its theta or rank before any piece is fitted."""

    def test_bad_theta(self, monkeypatch):
        _no_solve(monkeypatch)
        for theta in (-1.0, math.nan):
            with pytest.raises(DdeError, match="2e-05 <= theta <= 50"):
                dde.solve_theta_dde(theta)

    @pytest.mark.parametrize("theta", [np.nextafter(dde.MAX_THETA, 99.0), 100.0, 1e5, 1e300])
    def test_theta_above_bound_fails_before_solving(self, theta, monkeypatch):
        _no_solve(monkeypatch)
        with pytest.raises(DdeError, match="theta <= 50"):
            theta_solution(theta)

    def test_theta_at_bound_is_solved(self):
        sol = theta_solution(dde.MAX_THETA)
        assert np.all(sol(np.linspace(0.0, 64.0, 641)) >= 0.0)

    @pytest.mark.parametrize("theta", [np.nextafter(dde.MIN_THETA, 0.0), 1e-8, 5e-324, 0.0])
    def test_theta_below_bound_fails_before_solving(self, theta, monkeypatch):
        _no_solve(monkeypatch)
        with pytest.raises(DdeError, match="2e-05 <= theta"):
            theta_solution(theta)

    def test_theta_at_lower_bound_is_solved(self):
        # the (1, 2] segment against mpmath: relative error 3.4e-7 at 2e-5
        import mpmath as mp

        sol = theta_solution(dde.MIN_THETA)
        values = sol(np.linspace(1e-3, 64.0, 641))
        assert np.all(np.isfinite(values) & (values >= 0.0))
        th = mp.mpf(dde.MIN_THETA)
        with mp.workdps(30):
            for x in (1.5, 1.9, 2.0):
                # 1 - theta T(u) = 1 - u^theta - theta int_0^u t^theta/(1-t) dt
                u = (mp.mpf(x) - 1) / x
                tail = mp.quad(lambda t: t**th / (1 - t), [0, u])
                exact = x ** (th - 1) * ((1 - u**th) - th * tail)
                assert sol(x) == pytest.approx(float(exact), rel=4e-7)

    def test_bad_rank(self, monkeypatch):
        _no_solve(monkeypatch)
        for rank in (0, dde.MAX_RANK + 1, -1, math.nan, math.inf, 2.5, 1.5, np.float64(3.25)):
            message = f"rank must be an integer in [1, {dde.MAX_RANK}], got {rank}"
            with pytest.raises(DdeError, match=re.escape(message)):
                dde.solve_generalized_dickman(rank)


class TestInitialSegments:
    def test_rho_is_one_on_unit_interval(self, rho):
        for x in [0.0, 0.25, 0.5, 1.0]:
            assert rho(x) == 1.0

    def test_theta_one_at_half(self):
        sol = theta_solution(1.0)
        assert sol(0.5) == 1.0

    def test_theta_half_at_half(self):
        sol = theta_solution(0.5)
        assert sol(0.5) == pytest.approx(1.0 / math.sqrt(0.5), rel=1e-15)

    def test_zero_below_support(self, rho, sigma):
        assert rho(-1.0) == 0.0
        assert sigma(-0.5) == 0.0

    def test_out_of_range(self, rho):
        with pytest.raises(EvaluationRangeError):
            rho(65.0)

    def test_nan_is_out_of_range(self, rho, sigma):
        for sol in (rho, sigma):
            with pytest.raises(EvaluationRangeError):
                sol(float("nan"))
            with pytest.raises(EvaluationRangeError):
                sol(np.array([0.5, 3.0, np.nan]))


class TestClosedForms:
    def test_rho_closed_form_values(self):
        assert rho_closed_form(2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-15)
        # 1 - pi^2/12 - ln x + ln(x)^2/2 + Li2(1/x) at x = 2.5
        assert rho_closed_form(2.5) == pytest.approx(0.13031956183225075, rel=1e-12)

    def test_sigma_closed_form_continuity_at_one(self):
        assert sigma_closed_form(1.0) == pytest.approx(1.0, rel=1e-15)
        assert sigma_closed_form(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-5)

    def test_sigma_tilde_at_two(self, sigma):
        # 1 - arctanh(sqrt(1/2)) and its sqrt(2)-scaled companion
        assert sigma_tilde(sigma, 2.0) == pytest.approx(0.11862641298045697, rel=1e-10)
        assert sigma(2.0) == pytest.approx(0.08388154104631684, rel=1e-10)

    def test_domain_errors(self):
        for bad in [-0.1, 3.5]:
            with pytest.raises(Exception):
                rho_closed_form(bad)
        for bad in [0.0, 2.5]:
            with pytest.raises(Exception):
                sigma_closed_form(bad)


class TestSolverAgainstClosedForms:
    def test_rho_dense_grid(self, rho):
        xs = np.linspace(1.0, 3.0, 501)
        err = max(abs(rho(float(x)) - rho_closed_form(float(x))) for x in xs)
        assert err <= 1e-10

    def test_sigma_dense_grid(self, sigma):
        xs = np.linspace(1.0, 2.0, 301)
        err = max(abs(sigma(float(x)) - sigma_closed_form(float(x))) for x in xs)
        assert err <= 1e-10

    def test_theta_family_reproduces_rho_and_sigma(self, rho, sigma):
        g1 = theta_solution(1.0)
        for x in [0.5, 1.5, 2.5, 4.0, 7.5]:
            assert g1(x) == pytest.approx(rho(x), rel=1e-11, abs=1e-14)
        assert theta_solution(0.5) is watterson_solution()

    @pytest.mark.parametrize("theta, rel", [(3.0, 1e-10), (20.0, 1e-10), (50.0, 1e-6)])
    def test_theta_family_against_mpmath_method_of_steps(self, theta, rel):
        # on [2, 3], x^(1-theta) g(x) = 2^(1-theta) g(2) - theta int_2^x
        # u^-theta g(u-1) du, with g(y) = y^(theta-1) (1 - theta w^theta
        # lerchphi(w, 1, theta)), w = 1 - 1/y, on (1, 2]; theta lerchphi(w, 1,
        # theta) is 2F1(1, theta; theta+1; w), which mpmath evaluates faster.
        # Measured 1.9e-15 at theta = 3, 6.5e-12 at 20 and 6.83e-7 at 50: the
        # 1e-6 bound MAX_THETA documents
        import mpmath as mp

        xs = [2.0001, 2.25, 2.5, 2.75, 3.0]
        with mp.workdps(25):
            th = mp.mpf(theta)

            def g(y):
                w = 1 - 1 / y
                return y ** (th - 1) * (1 - w**th * mp.hyp2f1(1, th, th + 1, w))

            head, integral, left = g(mp.mpf(2)) / 2 ** (th - 1), 0, 2
            expected = []
            for x in xs:
                integral += mp.quad(lambda u: u**-th * g(u - 1), [left, x])
                left = x
                expected.append(float(x ** (th - 1) * (head - th * integral)))
        values = theta_solution(theta)(np.array(xs))
        assert values == pytest.approx(expected, rel=rel, abs=0.0)

    def test_rho_at_two(self, rho):
        assert rho(2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-12)

    def test_deep_values(self, rho):
        # classical reference values of Dickman's function
        assert rho(4.0) == pytest.approx(4.910925648e-3, rel=1e-8)
        assert rho(6.0) == pytest.approx(1.964969635e-5, rel=1e-7)
        # tabulated to 14 digits
        assert rho(5.0) == pytest.approx(3.5472470045603e-4, rel=1e-12, abs=0.0)
        assert rho(6.0) == pytest.approx(1.9649696353955e-5, rel=1e-12, abs=0.0)
        assert rho(10.0) == pytest.approx(2.7701718377259e-11, rel=1e-12, abs=0.0)

    def test_sigma_against_inverse_laplace(self, sigma):
        # 60-digit de Hoog inversions of the transform at degree 140, which
        # agree with degree 100 to 2e-15
        assert sigma(3.5) == pytest.approx(9.7731432421437832191e-4, rel=1e-13, abs=0.0)
        assert sigma(4.25) == pytest.approx(7.5644710032295224195e-5, rel=1e-13, abs=0.0)

    def test_tail_positive_and_below_gamma_bound(self, rho, sigma):
        # u rho(u) = int_{u-1}^u rho <= rho(u-1) and rho <= 1/x on [1, 2]
        # give rho(u) <= 1/Gamma(u+1)
        xs = np.linspace(2.0, 64.0, 62001)[1:]
        r = rho(xs)
        assert np.all(r > 0.0)
        assert np.all(r <= np.exp(-gammaln(xs + 1.0)))
        assert np.all(sigma(xs) > 0.0)


def _series_segment(theta, xs):
    """The general-theta segment x^(theta-1) (1 - theta T) with theta T by
    the Lerch sum, which the closed forms at theta = 1 and 1/2 bypass."""
    u = (xs - 1.0) / xs
    return (1.0 - u**theta * dde._lerch_sum(theta, u)) / xs ** (1.0 - theta)


class TestClosedFormSegment:
    """1 - ln x (theta = 1) and the artanh form (theta = 1/2) on (1, 2]
    against mpmath, and against the Lerch series they replace."""

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_no_less_accurate_than_series(self, theta):
        import mpmath as mp

        xs = np.linspace(1.0, 2.0, 2001)[1:]
        with mp.workdps(40):
            if theta == 1.0:
                exact = [1 - mp.log(mp.mpf(x)) for x in xs]
            else:
                exact = [(1 - mp.atanh(mp.sqrt(1 - 1 / mp.mpf(x)))) / mp.sqrt(x) for x in xs]

            def worst(values):
                return float(max(abs(mp.mpf(float(v)) - e) for v, e in zip(values, exact)))

            sol = theta_solution(theta)
            closed = worst(sol(xs))
            scalar = worst([sol(float(x)) for x in xs])
            series = worst(_series_segment(theta, xs))
        assert closed == scalar
        assert closed <= series
        assert closed <= 2e-16

    @pytest.mark.parametrize("theta", [1e-9, 0.25, 1.5, 3.7, 50.0])
    def test_delay_integral_against_mpmath(self, theta):
        # theta T(u) = theta u^theta Phi(u, 1, theta) on [1, 2], plus
        # theta int_{ln 2}^{ln x} (1 - e^-y)^(theta-1) dy beyond
        import mpmath as mp

        xs = np.concatenate(
            [np.linspace(1.0, 2.0, 11)[1:], np.linspace(2.0, 64.0, 12)[1:], [1e6, 1e100]]
        )
        with mp.workdps(25):
            th = mp.mpf(theta)
            expected = []
            for x in xs:
                x = mp.mpf(x)
                u = min(1 - 1 / x, mp.mpf(0.5))
                t = u**th * mp.lerchphi(u, 1, th)
                if x > 2:
                    cuts = [c for c in (1, 2, 4, 8, 16, 32, 64, 128) if c < mp.log(x)]
                    edges = [mp.log(2), *cuts, mp.log(x)]
                    t += mp.quad(lambda y: (-mp.expm1(-y)) ** (th - 1), edges)
                expected.append(float(th * t))
        values = dde.theta_delay_integral(theta, xs)
        assert values == pytest.approx(expected, rel=1e-14)
        scalars = [dde.theta_delay_integral(theta, float(x)) for x in xs]
        assert scalars == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("theta", [5e-324, 1e-310])
    def test_subnormal_theta_does_not_overflow(self, theta):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            xs = np.array([0.5, 1.5, 2.0, 3.0])
            assert np.array_equal(dde.theta_delay_integral(theta, xs[1:]), [1.0, 1.0, 1.0])
            assert np.array_equal(dde.exact_part(theta, xs[:2]), [2.0, 0.0])

    def test_general_theta_keeps_series(self):
        sol = theta_solution(1.5)
        xs = np.linspace(1.0, 2.0, 101)[1:]
        assert np.array_equal(sol(xs), dde.exact_part(1.5, xs))
        assert np.array_equal(sol(xs), _series_segment(1.5, xs))


class TestGeneralizedDickman:
    def test_rank_one_is_rho(self, rho):
        r1 = dickman_solution(1)
        for x in [0.5, 1.5, 2.7, 5.0]:
            assert r1(x) == rho(x)

    def test_plateau(self):
        r2 = dickman_solution(2)
        for x in [0.3, 1.0, 1.7, 2.0]:
            assert r2(x) == pytest.approx(1.0, abs=1e-14)
        r3 = dickman_solution(3)
        assert r3(2.9) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("rank", range(2, 8))
    def test_exactly_one_on_zero_to_rank_and_never_above(self, rank):
        # the fitted pieces on [2, 3] read 0.9999999999999976 to
        # 1.0000000000000016 at rank 3, and ranks 6 and 7 passed 1 beyond r
        sol = dickman_solution(rank)
        plateau = np.linspace(0.0, rank, 50 * rank + 1)
        assert np.all(sol(plateau) == 1.0)
        assert all(sol(float(x)) == 1.0 for x in plateau)
        xs = np.linspace(0.0, dde.X_MAX, 6401)
        assert sol(xs).max() == 1.0
        assert max(sol(float(x)) for x in xs) == 1.0
        table = sol.unit_table(32)
        assert np.all(table[:rank] == 1.0) and table.max() == 1.0

    def test_rank_two_quadrature_oracle(self):
        # on [2,3]: rho_2(x) = 1 - int_2^x ln(t-1)/t dt
        r2 = dickman_solution(2)
        for x in [2.2, 2.5, 3.0]:
            ref = 1.0 - quad(lambda t: math.log(t - 1.0) / t, 2.0, x)[0]
            assert r2(x) == pytest.approx(ref, abs=1e-11)
        assert r2(2.5) == pytest.approx(0.9533897062935942, rel=1e-11)

    def test_rank_one_at_three(self, rho):
        assert rho(3.0) == pytest.approx(0.0486083883, abs=1e-9)

    def test_rank_monotonicity(self, rho):
        sols = [rho, dickman_solution(2), dickman_solution(3), dickman_solution(4)]
        xs = np.linspace(0.2, 30.0, 200)
        for lo, hi in zip(sols, sols[1:]):
            vals_lo = lo(xs)
            vals_hi = hi(xs)
            assert np.all(vals_hi >= vals_lo - 1e-12)
            assert np.all((vals_hi >= -1e-15) & (vals_hi <= 1.0 + 1e-12))

    def test_high_rank_from_a_cold_cache(self):
        # the lower ranks are built bottom-up in a loop: rank 300 solves
        # within 150 frames of the caller, and ranks 1-4 solved again after
        # it are bitwise the ones solved before
        before = [dickman_solution(r).coef for r in (1, 2, 3, 4)]
        dde._dickman_cached.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 150)
        try:
            high = dickman_solution(300)
        finally:
            sys.setrecursionlimit(limit)
        assert high(3.0) == pytest.approx(1.0, abs=1e-14)
        assert high(64.0) == pytest.approx(1.0, abs=1e-13)
        for r, coef in zip((1, 2, 3, 4), before):
            assert np.array_equal(dickman_solution(r).coef, coef)

    def test_ranks_are_solved_by_solve_generalized_dickman(self, monkeypatch):
        # the cache solves each rank through the public function, so a
        # wrapper of it sees every rank solve, and the solutions keep their bits
        before = [dickman_solution(r).coef for r in (1, 2, 3)]
        solved = []
        real_solve = dde.solve_generalized_dickman

        def counting(rank):
            solved.append(rank)
            return real_solve(rank)

        monkeypatch.setattr(dde, "solve_generalized_dickman", counting)
        dde._dickman_cached.cache_clear()
        assert np.array_equal(dickman_solution(3).coef, before[2])
        assert solved == [1, 2, 3]
        for r, coef in zip((1, 2), before):
            assert np.array_equal(dickman_solution(r).coef, coef)
        assert solved == [1, 2, 3]

    @pytest.mark.parametrize("rank", [0, dde.MAX_RANK + 1, 2.5])
    def test_rank_out_of_range_fails_before_solving(self, rank, monkeypatch):
        # 2.5 was truncated to rank 2 and answered
        _no_solve(monkeypatch)
        dde._dickman_cached.cache_clear()
        with pytest.raises(DdeError, match="rank"):
            dickman_solution(rank)
        assert dde._dickman_cached.cache_info().misses == 0

    def test_integral_float_rank_is_that_rank(self):
        assert dickman_solution(2.0) is dickman_solution(2)
        assert dickman_solution(np.int64(3)) is dickman_solution(3)

    def test_nonincreasing(self):
        r2 = dickman_solution(2)
        xs = np.linspace(0.5, 25.0, 400)
        vals = r2(xs)
        assert np.all(np.diff(vals) <= 1e-13)


class TestDdeResidualsAndDerivatives:
    def test_dickman_derivative_identity(self, rho):
        # rho'(x) = -rho(x-1)/x, checked through the stored interpolant
        rng = np.random.default_rng(42)
        pts = rng.uniform(2.05, 50.0, 1000)
        resid = max(
            abs(derivative(rho, float(x)) + rho(float(x) - 1.0) / float(x)) for x in pts
        )
        assert resid <= 1e-9

    def test_residual_grid(self, rho, sigma):
        for sol in (rho, sigma, theta_solution(1.5), dickman_solution(2)):
            grid = residual_grid(sol)
            worst = max(abs(dde_residual(sol, float(x))) for x in grid)
            assert worst <= 100.0 * dde.TAIL_TOL

    def test_continuity_at_breakpoints(self, rho, sigma):
        for sol in (rho, sigma):
            for k in range(2, 40):
                below = sol(k - 1e-13)
                above = sol(k + 1e-13)
                assert abs(below - above) <= 10.0 * dde.TAIL_TOL


class TestSigmaTildeDerivativeIdentity:
    def test_finite_difference_identity(self, sigma):
        # d/dx sigma~(1/x) = sigma((1-x)/x) / (2 x^(3/2)), 100 points in (0.1, 0.9).
        # Step chosen per point: bounded by the local logarithmic slope (the
        # tail decays superexponentially) and by the distance to breakpoint
        # preimages x = 1/j, where higher derivatives are unbounded.
        xs = np.linspace(0.102, 0.898, 100)
        worst = 0.0
        for x in xs:
            f = lambda t: sigma_tilde(sigma, 1.0 / t)
            slope = abs(f(x + 1e-3) - f(x - 1e-3)) / (2e-3 * abs(f(x)))
            d_break = min(abs(x - 1.0 / j) for j in range(2, 12))
            h = max(1e-5, min(2e-3, 0.02 / max(slope, 1.0), 0.05 * d_break))
            deriv = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
            rhs = sigma((1.0 - x) / x) / (2.0 * x**1.5)
            worst = max(worst, abs(deriv - rhs) / abs(rhs))
        assert worst <= 1e-6


def test_vectorized_eval_matches_scalar(rho=None):
    sol = dickman_solution(1)
    xs = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 10.0, 63.9])
    vec = sol(xs)
    for x, v in zip(xs, vec):
        assert v == sol(float(x))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestFlatTable:
    """The one-table evaluator against per-piece chebval, which it replaced."""

    def test_mixed_widths_match_per_piece_chebval(self):
        rng = np.random.default_rng(7)
        widths = [49, 97, 49, 97, 49]
        pieces = [rng.standard_normal(n) * 0.5 ** np.arange(n) for n in widths]
        sol = dde.PiecewiseSolution(1.0, pieces)
        assert sol.coef.shape == (5, 97)
        xs = np.concatenate([rng.uniform(2.0, 7.0, 2000), np.arange(3.0, 8.0)])
        expected = np.empty_like(xs)
        idx = np.minimum(np.floor(xs - 2.0).astype(int), 4)
        for k, coef in enumerate(pieces):
            sel = idx == k
            s = np.power(xs[sel] - (k + 2.0), 0.25)
            expected[sel] = chebyshev.chebval(2.0 * s - 1.0, coef)
        assert np.array_equal(_bits(sol(xs)), _bits(expected))
        scalars = [sol(float(x)) for x in xs[::20]]
        assert np.array_equal(_bits(scalars), _bits(expected[::20]))

    def test_one_call_equals_calls_per_chunk(self, rho):
        rng = np.random.default_rng(8)
        chunks = [
            rng.uniform(-0.5, 1.0, 50),
            rng.uniform(1.0, 2.0, 50),
            rng.uniform(2.0, 64.0, 300),
            np.arange(1.0, 65.0),
            rng.uniform(-1.0, 64.0, 200),
        ]
        whole = rho(np.concatenate(chunks))
        parts = np.concatenate([rho(chunk) for chunk in chunks])
        assert np.array_equal(_bits(whole), _bits(parts))

    @pytest.mark.parametrize(
        "sol",
        [dickman_solution(r) for r in (1, 2, 3, 4)]
        + [theta_solution(t) for t in (0.25, 0.5, 1.5, 2.0, dde.MAX_THETA)],
    )
    def test_scalar_path_equals_vector_path(self, sol):
        xs = np.concatenate(
            [
                np.linspace(0.05, 1.0, 6),
                np.linspace(1.01, 2.0, 6),
                np.linspace(2.0, 64.0, 90),
                np.nextafter(np.arange(3.0, 65.0), 0.0),
                [2.0 + 1e-15, 64.0],
            ]
        )
        scalars = [sol(float(x)) for x in xs]
        assert all(type(v) is float for v in scalars)
        singles = [sol(np.array([x]))[0] for x in xs]
        assert np.array_equal(_bits(scalars), _bits(singles))
        exact = np.linspace(0.0, 2.0, 2001)[1:]  # every point of (0, 2] in one array
        assert np.array_equal(_bits([sol(float(x)) for x in exact]), _bits(sol(exact)))


    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_scalar_rows_survive_table_and_tower_calls(self, rank):
        # the float path reads rows built once from ``coef``: unit tables and
        # tower levels built on the way leave them and their bits alone
        sol = dickman_solution(rank)
        sol.unit_table(32)
        sol.unit_table(48)
        for k in (2, 3, 4):
            dde.tower(k, 1.0, 7.5)
            dde.tower(k, 0.5, 11.25)
        assert sol._rows == sol.coef.tolist()
        xs = np.concatenate([np.linspace(0.01, 2.0, 50), np.linspace(2.0, 64.0, 400)])
        scalars = [sol(float(x)) for x in xs]
        assert np.array_equal(_bits(scalars), _bits(sol(xs)))
        if rank >= 2:  # the head of a rank r >= 2 is 1.0, a float
            assert all(type(v) is float and v == 1.0 for v in scalars[:50])


class TestUnitTable:
    @pytest.mark.parametrize("nodes", [32, 48])
    @pytest.mark.parametrize(
        "sol",
        [dickman_solution(r) for r in (1, 2, 4)] + [watterson_solution(), theta_solution(1.5)],
    )
    def test_rows_are_the_solution_at_unit_nodes(self, sol, nodes):
        x, _ = np.polynomial.legendre.leggauss(nodes)
        table = sol.unit_table(nodes)
        assert table.shape == (dde.X_MAX + 1, nodes)
        for k in range(dde.X_MAX):
            assert np.array_equal(_bits(table[k]), _bits(sol(k + (1.0 + x) / 2.0)))
        assert not table[dde.X_MAX].any()  # past the solved domain

    def test_computed_once_and_read_only(self):
        sol = dickman_solution(1)
        table = sol.unit_table(32)
        assert sol.unit_table(32) is table
        assert not table.flags.writeable
