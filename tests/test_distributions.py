import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from randmap import _quad, dde, distributions
from randmap.distributions import (
    JointPoint,
    Regime,
    connected_cycle_cdf,
    cyclic_points_density,
    joint_density,
    largest_component_cdf,
    mapping_longest_cycle_cdf,
    perm_longest_cycle_cdf,
)
from randmap.specfun import SpecfunDomainError


class TestRegime:
    def test_validation(self):
        with pytest.raises(ValueError):
            Regime(tag="weird")
        with pytest.raises(ValueError):
            Regime.pavlov(-1.0)

    def test_factories(self):
        assert Regime.rayleigh().tag == "rayleigh"
        assert Regime.pavlov(0.5).c == 0.5


class TestCyclicPointsDensity:
    def test_rayleigh_value(self):
        assert cyclic_points_density(1.0, Regime.rayleigh()) == pytest.approx(
            math.exp(-0.5), rel=1e-14
        )

    def test_halfnormal_origin_limit(self):
        val = cyclic_points_density(1e-12, Regime.halfnormal())
        assert val == pytest.approx(0.79788456080286535587, rel=1e-12)

    def test_pavlov_half_is_rayleigh(self):
        for nu in [0.3, 1.3, 2.7]:
            assert cyclic_points_density(nu, Regime.pavlov(0.5)) == pytest.approx(
                cyclic_points_density(nu, Regime.rayleigh()), abs=1e-12
            )

    def test_pavlov_small_c_approaches_halfnormal(self):
        grid = np.linspace(0.05, 4.0, 50)
        worst = max(
            abs(
                cyclic_points_density(float(nu), Regime.pavlov(1e-6))
                - cyclic_points_density(float(nu), Regime.halfnormal())
            )
            for nu in grid
        )
        assert worst < 1e-4

    # from c = 38 the mass lies past nu = 8.75; from c = 160 the coefficient
    # underflows where nu^(2c) overflows, unless taken in log space
    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 38.0, 160.0, 1000.0])
    def test_normalization(self, c):
        reg = Regime.pavlov(c)
        val, _ = quad(
            lambda nu: cyclic_points_density(nu, reg), 1e-12, math.sqrt(2.0 * c) + 12.0, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("c", [0.25, 1.0, 5.0, 38.0, 160.0, 1000.0])
    def test_mean(self, c):
        # N^2/2 is Gamma(c + 1/2), so E[N] = sqrt(2) Gamma(c+1) / Gamma(c+1/2)
        reg = Regime.pavlov(c)
        mode = math.sqrt(2.0 * c)
        val, _ = quad(
            lambda nu: nu * cyclic_points_density(nu, reg), 1e-12, mode + 12.0,
            points=[mode], limit=200,
        )
        exact = math.sqrt(2.0) * math.exp(math.lgamma(c + 1.0) - math.lgamma(c + 0.5))
        assert val == pytest.approx(exact, rel=1e-10)

    def test_domain(self):
        with pytest.raises(SpecfunDomainError):
            cyclic_points_density(-1.0, Regime.rayleigh())
        with pytest.raises(SpecfunDomainError):
            cyclic_points_density(np.array([1.0, 0.0]), Regime.rayleigh())

    @pytest.mark.parametrize("reg", [Regime.rayleigh(), Regime.halfnormal(), Regime.pavlov(2.0)])
    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_is_domain_error(self, reg, nu):
        # nan returned nan, and inf warned from inf * 0 under rayleigh
        with pytest.raises(SpecfunDomainError):
            cyclic_points_density(nu, reg)
        with pytest.raises(SpecfunDomainError):
            cyclic_points_density(np.array([1.0, nu]), reg)

    @pytest.mark.parametrize(
        "reg",
        [Regime.rayleigh(), Regime.halfnormal()] + [Regime.pavlov(c) for c in (0.0, 1.0, 10.0, 40.0)],
    )
    def test_float_path_is_the_array_element(self, reg):
        nus = np.concatenate([np.geomspace(1e-300, 1e-3, 40), np.linspace(1e-3, 30.0, 3001)])
        arr = cyclic_points_density(nus, reg)
        floats = [cyclic_points_density(nu, reg) for nu in nus.tolist()]
        assert all(type(v) is float for v in floats)
        assert np.array_equal(np.array(floats).view(np.uint64), arr.view(np.uint64))


class TestPermAndComponentCdfs:
    def test_perm_at_one(self):
        assert perm_longest_cycle_cdf(1.0, 1) == pytest.approx(1.0, abs=1e-14)

    def test_perm_interval_probability(self):
        val = perm_longest_cycle_cdf(0.5, 1) - perm_longest_cycle_cdf(1.0 / 3.0, 1)
        assert val == pytest.approx(0.258244431148, abs=1e-9)

    def test_perm_rank_two(self):
        assert perm_longest_cycle_cdf(0.4, 2) == pytest.approx(
            dde.dickman_solution(2)(2.5), rel=1e-12
        )

    def test_component_at_one(self):
        assert largest_component_cdf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_component_interval_probability(self):
        val = largest_component_cdf(2.0 / 3.0) - largest_component_cdf(0.5)
        assert val == pytest.approx(0.222894638557, abs=1e-9)

    def test_component_density_integral(self):
        # integral of the component-law density over (1/3, 1/2)
        def density(t):
            return dde.sigma_closed_form((1.0 - t) / t) / (2.0 * t**1.5)

        val, _ = quad(density, 1.0 / 3.0, 0.5, limit=100)
        assert val == pytest.approx(0.110414874191, abs=1e-9)
        solver_val = largest_component_cdf(0.5) - largest_component_cdf(1.0 / 3.0)
        assert solver_val == pytest.approx(0.110414874191, abs=1e-9)

    def test_cdfs_in_unit_interval_down_to_one_64th(self):
        # 1/a reaches the end of the solved domain, where rho and sigma are
        # near 1e-132 and 1e-155; 0.04487 once gave a negative CDF
        grid = np.concatenate([np.geomspace(1.0 / 64.0, 1.0, 400), [0.04487]])
        for a in grid.tolist():
            assert 0.0 <= largest_component_cdf(a) <= 1.0, a
            for r in (1, 2, 3, 4):
                assert 0.0 <= perm_longest_cycle_cdf(a, r) <= 1.0, (a, r)

    @pytest.mark.parametrize("a", [1e-300, 1e-5, 1.0 / 64.0 * (1.0 - 1e-11), 5e-324,
                                   np.float64(5e-324), np.nextafter(1.0 / 64.0, 0.0)])
    def test_a_below_the_solved_domain_names_a(self, a, monkeypatch):
        # 1/a past 64 raised EvaluationRangeError naming x = 1/a, after the
        # rank's solve; now a is refused before any solution is asked for.
        # The float below 1/64, whose 1/a rounds to 64, answered 3.14e-132
        # while truncated_cdf_series refused it
        def no_solve(*args):
            raise AssertionError("solved before the domain check")

        monkeypatch.setattr(distributions, "_rank_solution", no_solve)
        monkeypatch.setattr(dde, "watterson_solution", no_solve)
        for call in (lambda: perm_longest_cycle_cdf(a, 1), lambda: perm_longest_cycle_cdf(a, 7),
                     lambda: largest_component_cdf(a)):
            with pytest.raises(SpecfunDomainError, match=rf"a in \[1/64, 1\], got {a}$"):
                call()

    def test_domains(self):
        for bad in [0.0, 1.5, -0.2]:
            with pytest.raises(SpecfunDomainError):
                perm_longest_cycle_cdf(bad, 1)
            with pytest.raises(SpecfunDomainError):
                largest_component_cdf(bad)


def _kink_edges(b, window, x_max):
    """The function's panel edges: the window split at the kinks kb, up to
    (x_max + 1) b; a window from 0 with b <= half its end ends on the first
    kink at or past it, or at (x_max + 1) b"""
    lo, hi = window[0], window[-1]
    cap = int(x_max) + 1
    count = int(min(hi / b, cap))
    if lo == 0.0 and b <= hi / 2.0:
        while count < cap and count * b < hi:
            count += 1
        hi = count * b
        window = [e for e in window[:-1] if e < hi] + [hi]
    kinks = [k * b for k in range(1, count + 1)]
    return np.array(sorted({*window, *(k for k in kinks if lo < k < hi)}))


def _per_node_cdf(b, r, regime, edges=None):
    """The mixture CDF with rho_r evaluated at nu / b on every node, on the
    function's edges or on the given ones."""
    sol = dde.dickman_solution(r)
    if edges is None:
        edges = _kink_edges(b, distributions._nu_window(regime), sol.x_max)
    _, w = _quad.gl_rule(32)
    nu, half = _quad.gl_nodes(edges[:-1], edges[1:], 32)
    keep = nu[:, 0] > 0.0
    nu, half = nu[keep], half[keep]
    with np.errstate(over="ignore"):
        rho = distributions._rank_values(sol, nu / b)
    sums = np.sum(w * cyclic_points_density(nu, regime) * rho, axis=1)
    total = 0.0
    for h, s in zip(half.tolist(), sums.tolist()):
        total += h * s
    return min(max(total, 0.0), 1.0)


def _cut_edges(b, window, x_max):
    """The edges of a window that ends at its last edge, 8.75 on [0, 8.75]:
    the window split at the kinks kb up to (x_max + 1) b"""
    lo, hi = window[0], window[-1]
    kinks = [k * b for k in range(1, int(min(hi / b, x_max + 1.0)) + 1)]
    return np.array(sorted({*window, *(k for k in kinks if lo < k < hi)}))


class TestMappingCycleCdf:
    def test_rayleigh_median(self):
        assert mapping_longest_cycle_cdf(0.6842, 1, Regime.rayleigh()) == pytest.approx(
            0.5, abs=1e-4
        )

    def test_halfnormal_median(self):
        # the median is 0.39040 to five digits, so evaluating at the
        # four-digit truncation 0.3903 already shifts the CDF by just over
        # 1e-4 (the density there is ~1.03); the window reflects that
        assert mapping_longest_cycle_cdf(0.3903, 1, Regime.halfnormal()) == pytest.approx(
            0.5, abs=1.5e-4
        )
        assert mapping_longest_cycle_cdf(0.39040, 1, Regime.halfnormal()) == pytest.approx(
            0.5, abs=2e-5
        )

    def test_saturation(self):
        regimes = [Regime.rayleigh(), Regime.halfnormal()]
        regimes += [Regime.pavlov(c) for c in (1.5, 50.0, 200.0)]
        for reg in regimes:
            assert mapping_longest_cycle_cdf(50.0, 1, reg) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c, b", [(5.0, 1.5), (50.0, 5.0), (1000.0, 20.0)])
    def test_pavlov_mode_window_matches_quad(self, c, b):
        # past c = 3 the panels sit around the mode sqrt(2c), not on [0, 8.75]
        sol = dde.dickman_solution(1)
        mode = math.sqrt(2.0 * c)
        lo, hi = max(mode - 12.0, 1e-12), mode + 12.0
        kinks = [k * b for k in range(1, int(hi / b) + 1) if lo < k * b < hi]
        ref, _ = quad(
            lambda nu: cyclic_points_density(nu, Regime.pavlov(c))
            * (sol(nu / b) if nu / b <= sol.x_max else 0.0),
            lo, hi, points=[mode, *kinks], limit=400,
        )
        assert mapping_longest_cycle_cdf(b, 1, Regime.pavlov(c)) == pytest.approx(ref, abs=1e-12)

    def test_rank_monotone(self):
        for b in [0.4, 0.9]:
            vals = [mapping_longest_cycle_cdf(b, r, Regime.rayleigh()) for r in (1, 2, 3, 4)]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_tiny_b_is_bounded(self):
        # one kink panel per multiple of b used to mean 8.75e9 panels here
        t0 = time.perf_counter()
        value = mapping_longest_cycle_cdf(1e-9, 1, Regime.rayleigh())
        assert time.perf_counter() - t0 < 1.0
        assert 0.0 <= value < 1e-12

    @pytest.mark.parametrize("b", [0.01, 0.1, 0.6842, 1.0, 4.0])
    def test_kink_cap_drops_only_zero_panels(self, b):
        # the same Gauss-Legendre panel sum with a kink at every multiple of
        # b up to the first one at or past the Gaussian cutoff, as if the
        # kinks were not capped.  Every panel [kb, (k+1)b] reads row k of the
        # unit table, as the function does, and rows past the table's last
        # (zero) row read 0
        x, w = np.polynomial.legendre.leggauss(32)
        cut = distributions._NU_CUT
        count = int(cut / b)
        while count * b < cut:
            count += 1
        edges = [k * b for k in range(count + 1)]
        for r in (1, 2):
            table = dde.dickman_solution(r).unit_table(32)
            for reg in (Regime.rayleigh(), Regime.halfnormal(), Regime.pavlov(2.0)):
                total = 0.0
                for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
                    nu = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
                    rho = table[k] if k < len(table) else 0.0
                    total += 0.5 * (hi - lo) * float(
                        np.sum(w * cyclic_points_density(nu, reg) * rho)
                    )
                assert mapping_longest_cycle_cdf(b, r, reg) == min(max(total, 0.0), 1.0)

    @pytest.mark.parametrize(
        "reg",
        [Regime.rayleigh(), Regime.halfnormal()]
        + [Regime.pavlov(c) for c in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)],
    )
    def test_kink_aligned_end_adds_only_the_tail(self, reg):
        # against the same quadrature on the window that ends at 8.75, rho_r
        # evaluated per node: the panel past 8.75 adds the N-density's tail,
        # below rounding for rayleigh, halfnormal and pavlov c <= 1 and
        # within the tail bound of _nu_window up to c = 3
        window = distributions._nu_window(reg)
        assert window == [0.0, distributions._NU_CUT]
        bound = 4.4e-16
        if reg.tag == "pavlov" and reg.c > 1.0:
            cut = window[-1]
            bound += cyclic_points_density(cut, reg) / (cut - 2.0 * reg.c / cut)
            assert bound < distributions._TAIL_TOL
        for r in (1, 2, 3, 4):
            sol = dde.dickman_solution(r)
            for b in np.linspace(0.005, 4.375, 200).tolist():
                ref = _per_node_cdf(b, r, reg, _cut_edges(b, window, sol.x_max))
                assert abs(mapping_longest_cycle_cdf(b, r, reg) - ref) <= bound, (r, b)

    @pytest.mark.parametrize(
        "b",
        [5e-324, 1e-310, 1e-9, 0.01, 8.75 / 65, 0.1, 0.6842, 8.75 / 7, 1.0, 4.0, 8.75, 50.0, 1e3],
    )
    @pytest.mark.parametrize(
        "reg",
        [Regime.rayleigh(), Regime.halfnormal()]
        + [Regime.pavlov(c) for c in (0.0, 1.0, 2.0, 10.0, 1e3, 1e5)],
    )
    def test_unit_table_matches_per_node_path(self, b, reg):
        # the kink panels read rho_r from the unit table where nu / b on
        # their nodes is k + (1 + x_i)/2 up to rounding
        for r in (1, 2, 3, 4):
            assert abs(mapping_longest_cycle_cdf(b, r, reg) - _per_node_cdf(b, r, reg)) <= 4.4e-16

    def test_warm_call_evaluates_no_node_on_a_kink_window(self, monkeypatch):
        # with the table warm, a window from 0 ends on a kink and every panel
        # reads the table; a pavlov window split at its mode evaluates only
        # the pieces at the split and at its ends
        regimes = [Regime.rayleigh(), Regime.halfnormal(), Regime.pavlov(1.0)]
        for r in (1, 2):
            mapping_longest_cycle_cdf(0.5, r, Regime.rayleigh())
        evaluated = []
        call = dde.PiecewiseSolution.__call__

        def counting(sol, x):
            evaluated.append(np.size(x))
            return call(sol, x)

        monkeypatch.setattr(dde.PiecewiseSolution, "__call__", counting)
        for r in (1, 2):
            for b in np.geomspace(0.01, 4.375, 40).tolist():
                for reg in regimes:
                    evaluated.clear()
                    mapping_longest_cycle_cdf(b, r, reg)
                    assert sum(evaluated) == 0, (r, b, reg)
                evaluated.clear()
                mapping_longest_cycle_cdf(b, r, Regime.pavlov(10.0))
                assert sum(evaluated) <= 128, (r, b)

    @pytest.mark.parametrize("b", [5e-324, 1e-310])
    @pytest.mark.parametrize("reg", [Regime.rayleigh(), Regime.halfnormal(), Regime.pavlov(2.0)])
    def test_subnormal_b(self, b, reg):
        # the nodes of [0, b] round to 0 at 5e-324 and nu / b overflows at 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mapping_longest_cycle_cdf(b, 1, reg)
        assert 0.0 <= value <= 1e-300

    def test_nan_b_is_domain_error(self):
        with pytest.raises(SpecfunDomainError):
            mapping_longest_cycle_cdf(float("nan"))

    def test_cdf_matches_joint_density_double_integral(self):
        # integrate the joint density over {lambda <= b} and compare
        reg = Regime.rayleigh()
        for b in [0.5, 1.0]:
            def inner(nu):
                val, _ = quad(
                    lambda lam: joint_density(JointPoint(lam, nu), 1, reg),
                    1e-9,
                    min(b, nu),
                    limit=100,
                )
                return val

            outer, _ = quad(inner, 1e-9, 9.0, limit=200)
            assert outer == pytest.approx(
                mapping_longest_cycle_cdf(b, 1, reg), abs=1e-7
            )


class TestJointDensity:
    def test_rank_one_value(self):
        # nu/lambda * exp(-nu^2/2) * rho(nu/lambda - 1) with rho(0.5) = 1
        val = joint_density(JointPoint(1.0, 1.5), 1, Regime.rayleigh())
        assert val == pytest.approx(1.5 * math.exp(-1.125), rel=1e-12)

    def test_rank_two_plateau_cancels(self):
        assert joint_density(JointPoint(1.0, 1.5), 2, Regime.rayleigh()) == 0.0

    def test_outside_support(self):
        assert joint_density(JointPoint(2.0, 1.0), 1, Regime.rayleigh()) == 0.0
        assert joint_density(JointPoint(1.0, 1.0), 1, Regime.rayleigh()) == 0.0

    def test_halfnormal_form(self):
        lam, nu = 0.8, 2.0
        expected = (
            math.sqrt(2.0 / math.pi)
            * math.exp(-nu * nu / 2.0)
            / lam
            * dde.dickman_solution(1)(nu / lam - 1.0)
        )
        assert joint_density(JointPoint(lam, nu), 1, Regime.halfnormal()) == pytest.approx(
            expected, rel=1e-12
        )

    def test_marginalizes_to_cyclic_density(self):
        reg = Regime.rayleigh()
        for nu in [0.5, 1.0, 2.0, 3.0]:
            val, _ = quad(
                lambda lam: joint_density(JointPoint(lam, nu), 1, reg),
                1e-10,
                nu,
                limit=200,
            )
            assert val == pytest.approx(cyclic_points_density(nu, reg), abs=1e-8)

    def test_domain(self):
        with pytest.raises(SpecfunDomainError):
            joint_density(JointPoint(-1.0, 1.0), 1, Regime.rayleigh())

    @pytest.mark.parametrize(
        "p", [JointPoint(math.nan, 1.0), JointPoint(0.5, math.nan), JointPoint(0.5, math.inf),
              JointPoint(math.inf, 1.0)]
    )
    def test_non_finite_coordinate_is_domain_error(self, p):
        # nan gave nan, and nu = inf warned from inf * 0
        with pytest.raises(SpecfunDomainError):
            joint_density(p, 1, Regime.rayleigh())


@pytest.mark.parametrize(
    "call",
    [
        lambda r: perm_longest_cycle_cdf(0.3, r),
        lambda r: mapping_longest_cycle_cdf(0.5, r),
        lambda r: joint_density(JointPoint(0.5, 1.5), r),
        lambda r: connected_cycle_cdf(1.0, r),
    ],
)
def test_non_integer_rank_is_error(call):
    # rank 2.5 was truncated, or for connected_cycle_cdf read as rank 2, so
    # each returned its rank-2 value
    with pytest.raises(dde.DdeError, match="r must be an integer >= 1, got 2.5"):
        call(2.5)
    assert call(2.0) == call(2)


def test_connected_cycle_cdf():
    assert connected_cycle_cdf(1.0) == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), rel=1e-15)
    assert connected_cycle_cdf(-1.0) == 0.0


def test_connected_cycle_cdf_edges():
    for b in (0.0, -0.0, -1e-300, -math.inf):
        assert connected_cycle_cdf(b) == 0.0
    assert connected_cycle_cdf(math.inf) == 1.0
    with pytest.raises(SpecfunDomainError):
        connected_cycle_cdf(math.nan)
