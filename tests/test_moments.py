import math

import numpy as np
import pytest

from randmap import _quad, dde, distributions, moments
from randmap.distributions import Regime
from randmap.moments import (
    cross_rank_moment,
    g_constant,
    median_lambda,
    mode_lambda1,
    moment_table,
)
from randmap.specfun import e1_real

RAYLEIGH_MEANS = {
    1: 0.78248160099165661501,
    2: 0.26267067265131265469,
    3: 0.11068781528281010827,
    4: 0.05056118481134243184,
}
RAYLEIGH_VARS = {
    1: 0.24111407342881901748,
    2: 0.04395998473216610374,
    3: 0.01233552055537805858,
    4: 0.00386619224804518754,
}
RAYLEIGH_CORR = {1: 0.83298010, 2: 0.65486924, 3: 0.52094617, 4: 0.42505712}
HALFNORMAL_MEANS = {
    1: 0.49814325870512904597,
    2: 0.16722134383091813637,
    3: 0.07046605176920746245,
    4: 0.03218824996523203019,
}
HALFNORMAL_VARS = {
    1: 0.17854905846627743895,
    2: 0.02851495566901143371,
    3: 0.00732819205178914862,
    4: 0.00217522939296169629,
}
HALFNORMAL_CORR = {1: 0.89066843, 2: 0.74816251, 3: 0.62190221, 4: 0.52141727}


@pytest.fixture(scope="module")
def rayleigh_table():
    return moment_table(Regime.rayleigh(), include_location=False)


@pytest.fixture(scope="module")
def halfnormal_table():
    return moment_table(Regime.halfnormal(), include_location=False)


class TestGConstant:
    def test_golomb_dickman(self):
        assert g_constant(1, 1) == pytest.approx(0.62432998854355087099, abs=1e-12)

    def test_scaled_rank_two_mean(self):
        assert math.sqrt(math.pi / 2.0) * g_constant(2, 1) == pytest.approx(
            0.26267067265131265469, abs=1e-10
        )

    def test_rank_one_variance_combination(self):
        val = 2.0 * g_constant(1, 2) - (math.pi / 2.0) * g_constant(1, 1) ** 2
        assert val == pytest.approx(0.24111407342881901748, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            g_constant(5, 1)
        with pytest.raises(ValueError):
            g_constant(1, 3)
        with pytest.raises(ValueError):
            g_constant(1.5, 1)

    def test_integral_floats_are_those_integers(self):
        # g_constant(1.0, 1) and g_constant(2, 1.0) raised a bare TypeError
        # from math.factorial
        g_constant.cache_clear()
        assert g_constant(1.0, 1) == g_constant(1, 1)
        assert g_constant(2, 1.0) == g_constant(2, 1)
        g_constant.cache_clear()
        assert g_constant(3.0, 2.0, 1e-12) == g_constant(3, 2, 1e-12)


class TestMomentTables:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_rayleigh_entries(self, rayleigh_table, r):
        assert rayleigh_table.mean[r] == pytest.approx(RAYLEIGH_MEANS[r], abs=1e-9)
        assert rayleigh_table.variance[r] == pytest.approx(RAYLEIGH_VARS[r], abs=1e-9)
        assert rayleigh_table.corr_with_n[r] == pytest.approx(RAYLEIGH_CORR[r], abs=1e-6)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_halfnormal_entries(self, halfnormal_table, r):
        assert halfnormal_table.mean[r] == pytest.approx(HALFNORMAL_MEANS[r], abs=1e-9)
        assert halfnormal_table.variance[r] == pytest.approx(HALFNORMAL_VARS[r], abs=1e-9)
        assert halfnormal_table.corr_with_n[r] == pytest.approx(HALFNORMAL_CORR[r], abs=1e-6)

    def test_mean_ratio_between_regimes(self, rayleigh_table, halfnormal_table):
        for r in (1, 2, 3, 4):
            ratio = halfnormal_table.mean[r] / rayleigh_table.mean[r]
            assert ratio == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_requires_supported_regime(self):
        with pytest.raises(ValueError):
            moment_table(Regime.pavlov(1.0))


class TestModeAndMedian:
    def test_rayleigh_mode(self):
        mode = mode_lambda1(Regime.rayleigh())
        assert mode == pytest.approx(0.4809, abs=1e-3)

    def test_mode_residual_small_at_root(self):
        mode = mode_lambda1(Regime.rayleigh())
        assert abs(moments._mode_balance(mode)) < 1e-8

    @pytest.mark.parametrize("lam", [0.1, 0.13, 0.3, 0.4809195267434427, 0.75, 1.2, 1.5, 4.0])
    def test_mode_balance_table_matches_per_node(self, lam):
        # the balance with rho evaluated at nu/lam - 1 and nu/lam - 2 on every
        # node, as before the panels read rho's unit table; at lam = 0.1 and
        # 0.13 the kink panels run past the table's rows
        sol = dde.dickman_solution(1)
        cut = distributions._NU_CUT
        kinks = [k * lam for k in range(1, int(cut / lam) + 2)]

        def term(shift):
            def f(nu):
                rho = distributions._rank_values(sol, nu / lam - shift)
                factor = nu / (nu - lam) if shift == 2.0 else -1.0
                return factor * rho * nu * np.exp(-nu * nu / 2.0)

            start = shift * lam
            edges = sorted({start, cut} | {k for k in kinks if start < k < cut})
            return _quad.gl_panels(f, edges, 48)

        per_node = math.exp(-lam * lam / 2.0) - (term(1.0) + term(2.0)) / (lam * lam)
        assert moments._mode_balance(lam) == pytest.approx(per_node, rel=0, abs=4e-15)

    def test_mode_integrand_finite_near_lambda(self):
        # the nu/(nu - lambda) factor multiplies a vanishing rho argument
        # below 2 lambda, so the balance function evaluates finitely
        assert math.isfinite(moments._mode_balance(0.3))
        assert math.isfinite(moments._mode_balance(1.2))

    def test_rayleigh_median(self):
        assert median_lambda(1, Regime.rayleigh()) == pytest.approx(0.6842, abs=5e-4)

    def test_halfnormal_median(self):
        assert median_lambda(1, Regime.halfnormal()) == pytest.approx(0.3903, abs=5e-4)

    def test_connected_median(self):
        assert median_lambda(1, "connected") == pytest.approx(0.6744897501960817, abs=1e-7)

    @pytest.mark.parametrize("r", [2, 4])
    def test_connected_median_of_a_missing_cycle_is_error(self, r):
        # a connected mapping has one cycle: lambda_r = 0 for r >= 2, so the
        # CDF is 1 on the whole bracket (it returned the rank-1 median)
        with pytest.raises(ValueError, match="median bracket"):
            median_lambda(r, "connected")

    def test_roots_are_brentq_roots(self):
        # the in-house Brent takes scipy brentq's steps, so it returns its roots
        from scipy.optimize import brentq

        from randmap import distributions

        assert mode_lambda1() == brentq(moments._mode_balance, 0.1, 1.5, xtol=1e-8)
        for regime in (Regime.rayleigh(), Regime.halfnormal()):
            f = lambda b: distributions.mapping_longest_cycle_cdf(b, 1, regime) - 0.5
            assert median_lambda(1, regime) == brentq(f, 1e-3, 8.0, xtol=1e-8)
        assert mode_lambda1() == 0.4809195267434426
        assert median_lambda(1, Regime.rayleigh()) == 0.6842747941345148

    @pytest.mark.parametrize("xtol", [1e-3, 1e-8, 2e-12])
    def test_brent_root_steps_like_brentq(self, xtol):
        from scipy.optimize import brentq

        fs = [
            lambda x: x**3 - 2.0 * x - 5.0,
            lambda x: math.cos(x) - x,
            lambda x: math.tanh(5.0 * (x - 0.3)) + 1e-3 * x,
            lambda x: math.atan(x - 1.234567),
            lambda x: (x - 0.7) ** 5,
        ]
        rng = np.random.default_rng(3)
        for f in fs:
            for a, b in zip(rng.uniform(-3.0, 0.2, 20), rng.uniform(1.5, 4.0, 20)):
                a, b = float(a), float(b)
                if math.copysign(1.0, f(a)) == math.copysign(1.0, f(b)):
                    with pytest.raises(ValueError):
                        moments._brent_root(f, a, b, xtol)
                    continue
                try:
                    expected = brentq(f, a, b, xtol=xtol)
                except RuntimeError:  # (x - 0.7)^5 at a coarse xtol
                    with pytest.raises(RuntimeError):
                        moments._brent_root(f, a, b, xtol)
                    continue
                assert moments._brent_root(f, a, b, xtol) == expected

    def test_halfnormal_mode_is_zero_by_monotone_marginal(self):
        # the rank-1 marginal density decreases on a lambda grid, so the
        # mode sits at the origin
        from randmap.distributions import JointPoint, Regime as R, joint_density
        from scipy.integrate import quad

        def marginal(lam):
            val, _ = quad(
                lambda nu: joint_density(JointPoint(lam, nu), 1, R.halfnormal()),
                lam,
                10.0,
                limit=200,
            )
            return val

        grid = [0.05 * k for k in range(1, 21)]
        vals = [marginal(l) for l in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_table_with_locations(self):
        tab = moment_table(Regime.halfnormal())
        assert tab.mode == 0.0
        assert tab.median == pytest.approx(0.3903, abs=5e-4)


class TestConnectedMomentsByQuadrature:
    def test_halfnormal_mean_and_variance(self):
        from scipy.integrate import quad

        dens = lambda x: math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0)
        mean, _ = quad(lambda x: x * dens(x), 0.0, 40.0, limit=200)
        second, _ = quad(lambda x: x * x * dens(x), 0.0, 40.0, limit=200)
        assert mean == pytest.approx(0.79788456080286535587, abs=1e-12)
        assert second - mean * mean == pytest.approx(0.36338022763241865692, abs=1e-12)


@pytest.mark.parametrize(
    "r",
    [
        1,
        *(
            pytest.param(r, marks=pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 2: the mixture CDF reads rho_r as 0 past x = 64, so its mean "
                f"is {gap} above the moment layer's at rank {r}")))
            for r, gap in ((2, "2.75e-4"), (3, "1.55e-3"), (4, "4.32e-3"))
        ),
    ],
)
def test_mixture_cdf_mean_is_the_moment_layers(r):
    # E[lambda_r] two ways: int_0^9 (1 - CDF_r(b)) db by quadrature of the
    # mixture CDF, and sqrt(pi/2) G(r, 1), the rayleigh mean of the moment
    # layer; the tolerance is the two quadratures' own
    from scipy.integrate import quad

    mean, err = quad(lambda b: 1.0 - distributions.mapping_longest_cycle_cdf(b, r), 0.0, 9.0,
                     points=(0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0))
    expected = math.sqrt(math.pi / 2.0) * g_constant(r, 1, 1e-12)
    assert abs(mean - expected) <= err + 1e-12 * expected


class TestCrossRankMoments:
    def test_validation(self):
        with pytest.raises(ValueError):
            cross_rank_moment(2, 2)

    @pytest.mark.parametrize("r, s", [(1, 2.5), (1.5, 2), (1, math.inf), (math.nan, 2)])
    def test_non_integral_ranks_are_refused(self, r, s):
        # (1, 2.5) raised a RuntimeWarning (an invalid sqrt) before returning
        with pytest.raises(ValueError, match="(r|s) must be an integer >= (1|2)"):
            cross_rank_moment(r, s)

    def test_integral_float_ranks_are_those_integers(self):
        # cross_rank_moment(1.0, 2) raised a bare TypeError from math.factorial
        cross_rank_moment.cache_clear()
        assert cross_rank_moment(1.0, 2) == cross_rank_moment(1, 2)
        cross_rank_moment.cache_clear()
        assert cross_rank_moment(1, 3) == cross_rank_moment(1.0, 3.0)

    def test_monotone_in_s(self):
        vals = [cross_rank_moment(1, s) for s in (2, 3, 4)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_sum_rule(self):
        # sum_s V_s = 1, so sum_{s>=2} E(V_1 V_s) = G(1,1) - G(1,2); the
        # terms decay fast enough that eight of them nearly exhaust the sum
        target = g_constant(1, 1) - g_constant(1, 2)
        partial = sum(cross_rank_moment(1, s) for s in range(2, 10))
        assert partial < target
        assert partial == pytest.approx(target, abs=2e-3)

    def test_table_flag(self):
        tab = moment_table(Regime.rayleigh(), include_cross_rank=True, include_location=False)
        assert (1, 2) in tab.cross_rank_corr
        assert 0.0 < tab.cross_rank_corr[(1, 2)] < 1.0

    @pytest.mark.parametrize("r, s", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    def test_one_pass_equals_quadrature_per_node(self, r, s):
        # one inner quadrature per outer node, as cross_rank_moment did before
        # it shared the fixed inner panels between nodes
        def outer(xs):
            vals = np.empty_like(xs)
            for i, x in enumerate(xs):
                e1x = e1_real(x)

                def inner(ys):
                    e1y = e1_real(ys)
                    return np.exp(-e1y - ys) * (e1y - e1x) ** (s - r - 1)

                edges = [e for e in [1e-9, 1e-6, 1e-3, 0.05, 0.25, 1.0, 2.0] if e < x] + [float(x)]
                vals[i] = _quad.gl_panels(inner, edges, 48) * np.exp(-x) * e1x ** (r - 1)
            return vals

        edges_x = [1e-9, 1e-6, 1e-3, 0.05, 0.25, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        total = _quad.gl_panels(outer, edges_x, 48)
        expected = total / (2.0 * math.factorial(r - 1) * math.factorial(s - r - 1))
        assert cross_rank_moment.__wrapped__(r, s) == expected
