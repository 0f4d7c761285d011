import math
from fractions import Fraction

import pytest

from randmap.exact_enum import enumerate_all
from randmap.gfseries import (
    NonIntegerCoefficientError,
    SeriesOrderError,
    a_count,
    component_cycle_egf,
)


def _tree_series(n_max):
    """[x^0..x^n_max] of tau, read off the y^1 column of ln(1/(1 - y tau))."""
    egf = component_cycle_egf(1, n_max)
    return [egf.get((n, 1), Fraction(0)) for n in range(n_max + 1)]


def _series_exp(c):
    """exp of a univariate series with zero constant term: n e_n = sum k c_k e_(n-k)."""
    e = [Fraction(1)]
    for n in range(1, len(c)):
        e.append(sum(k * c[k] * e[n - k] for k in range(1, n + 1)) / n)
    return e


def _weighted_cyclic_points(n, m):
    """sum_l l a(n, m, l): n-mappings with m components and a marked cyclic point."""
    return sum(l * a_count(n, m, l) for l in range(m, n + 1))


class TestTreeFunction:
    def test_first_coefficients(self):
        tau = _tree_series(6)
        assert tau[:5] == [0, Fraction(1), Fraction(1), Fraction(3, 2), Fraction(8, 3)]

    def test_functional_equation_residual_is_zero(self):
        # tau = x e^tau: [x^n] tau = [x^(n-1)] e^tau
        for order in (4, 10, 12):
            tau = _tree_series(order)
            assert tau[1:] == _series_exp(tau)[:-1]

    def test_order_limits(self):
        with pytest.raises(SeriesOrderError):
            component_cycle_egf(1, 13)
        with pytest.raises(SeriesOrderError):
            component_cycle_egf(1, 0)


class TestComponentCycleEgf:
    def test_two_element_coefficients(self):
        one = component_cycle_egf(1, 4)
        assert one[(2, 1)] * 2 == Fraction(2)
        assert one[(2, 2)] * 2 == Fraction(1)
        two = component_cycle_egf(2, 4)
        assert two[(2, 2)] * 2 == Fraction(1)
        assert two.get((2, 1), 0) == 0  # no zero coefficient is stored
        assert all(c != 0 for c in two.values())

    def test_m_bounds(self):
        with pytest.raises(SeriesOrderError):
            component_cycle_egf(5, 4)
        with pytest.raises(SeriesOrderError):
            component_cycle_egf(1, 13)

    @pytest.mark.parametrize("args", [(1.5, 6), (2, 6.5), (float("nan"), 6), (2, float("inf"))])
    def test_non_integral_arguments_are_refused(self, args):
        # each died with a bare TypeError
        with pytest.raises(SeriesOrderError, match="must be integers"):
            component_cycle_egf(*args)

    def test_integral_floats_are_those_integers(self):
        # (2.0, 6) died with a bare TypeError in range()
        component_cycle_egf.cache_clear()
        assert component_cycle_egf(2.0, 6.0) == component_cycle_egf(2, 6)
        assert all(type(i) is int and type(j) is int for i, j in component_cycle_egf(2.0, 6))


class TestCounts:
    def test_small_values(self):
        assert a_count(1, 1, 1) == 1
        assert a_count(2, 1, 1) == 2
        assert a_count(2, 1, 2) == 1
        assert a_count(2, 2, 2) == 1

    def test_support_zeroes(self):
        assert a_count(3, 2, 1) == 0  # l < m
        assert a_count(3, 1, 4) == 0  # l > n

    @pytest.mark.parametrize(
        "args", [(3, 1, 2.5), (2.5, 1, 1), (3, 1.5, 2), (3, 1, float("nan")), (float("inf"), 1, 1)]
    )
    def test_non_integral_arguments_are_refused(self, args):
        # (3, 1, 2.5) returned 0 and (2.5, 1, 1) died with a bare TypeError
        with pytest.raises(ValueError, match="must be integers"):
            a_count(*args)

    def test_integral_floats_are_those_integers(self):
        assert a_count(2.0, 1, 1) == a_count(2, 1, 1) == 2
        assert a_count(4, 2.0, 3.0) == a_count(4, 2, 3)
        assert type(a_count(4.0, 2, 3)) is int

    def test_total_mass_small(self):
        assert sum(a_count(3, m, l) for m in (1, 2, 3) for l in range(1, 4)) == 27

    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_sums(self, n):
        assert sum(a_count(n, m, l) for m in range(1, n + 1) for l in range(m, n + 1)) == n**n

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_enumeration(self, n):
        tables = enumerate_all(n)
        for m in range(1, n + 1):
            for l in range(0, n + 1):
                expected = int(tables.counts[m, l]) if l >= 1 else 0
                assert a_count(n, m, l) == expected

    def test_connected_counts_match_known_sequence(self):
        # 1, 3, 17, 142, 1569, 21576 connected mappings on 1..6 points
        known = {1: 1, 2: 3, 3: 17, 4: 142, 5: 1569, 6: 21576}
        for n, target in known.items():
            assert sum(a_count(n, 1, l) for l in range(1, n + 1)) == target


class TestTrend:
    # sum_l l a(n, m, l)/n^n against its asymptote log(n)^(m-1)/(2^(m-1) (m-1)!)
    @staticmethod
    def _ratios(m):
        rows = {}
        for n in range(max(m, 2), 13):
            lead = math.log(n) ** (m - 1) / (2 ** (m - 1) * math.factorial(m - 1))
            rows[n] = _weighted_cyclic_points(n, m) / n**n / lead
        return rows

    def test_ratio_report_shape_and_positivity(self):
        for m in (1, 2, 3):
            rows = self._ratios(m)
            assert list(rows) == list(range(max(m, 2), 13))
            assert all(ratio > 0 for ratio in rows.values())

    def test_m1_ratio_is_exactly_one(self):
        # connected mappings with a marked cyclic point biject with all
        # mappings, so sum_l l a(n,1,l) = n^n
        for n in range(1, 13):
            assert _weighted_cyclic_points(n, 1) == n**n

    def test_higher_m_ratios_report_sanity(self):
        # convergence is logarithmic and not assertable at n <= 12; the
        # ratios should stay within a loose band of their asymptote and the
        # m = 2 ratios should descend toward it
        for m in (2, 3):
            assert all(0.5 < r < 1.5 for r in self._ratios(m).values())
        m2 = list(self._ratios(2).values())
        assert all(a > b for a, b in zip(m2, m2[1:]))
        assert m2[-1] > 1.0


def test_non_integer_guard_not_triggered_on_valid_input():
    # all valid coefficients must clear the integrality check
    for n in range(1, 8):
        for m in range(1, n + 1):
            for l in range(m, n + 1):
                a_count(n, m, l)
