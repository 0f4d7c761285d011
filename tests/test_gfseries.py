from fractions import Fraction

import pytest

from randmap.exact_enum import enumerate_all
from randmap.gfseries import (
    NonIntegerCoefficientError,
    SeriesOrderError,
    a_count,
    component_cycle_egf,
    cyclic_point_weighted_trend,
    mapping_count_row_sum,
    tree_equation_residual,
    tree_function_series,
)


class TestTreeFunction:
    def test_first_coefficients(self):
        tau = tree_function_series(6)
        assert tau.coefficient(1) == Fraction(1)
        assert tau.coefficient(2) == Fraction(1)
        assert tau.coefficient(3) == Fraction(3, 2)
        assert tau.coefficient(4) == Fraction(8, 3)

    def test_functional_equation_residual_is_zero(self):
        for order in (4, 10, 16):
            assert tree_equation_residual(order).coeffs == ()

    def test_order_limits(self):
        with pytest.raises(SeriesOrderError):
            tree_function_series(17)
        with pytest.raises(SeriesOrderError):
            tree_function_series(0)


class TestComponentCycleEgf:
    def test_two_element_coefficients(self):
        one = component_cycle_egf(1, 4)
        assert one.coefficient(2, 1) * 2 == Fraction(2)
        assert one.coefficient(2, 2) * 2 == Fraction(1)
        two = component_cycle_egf(2, 4)
        assert two.coefficient(2, 2) * 2 == Fraction(1)

    def test_m_bounds(self):
        with pytest.raises(SeriesOrderError):
            component_cycle_egf(5, 4)
        with pytest.raises(SeriesOrderError):
            component_cycle_egf(1, 13)


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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_row_sums(self, n):
        assert mapping_count_row_sum(n) == n**n

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
    def test_ratio_report_shape_and_positivity(self):
        for m in (1, 2, 3):
            rows = cyclic_point_weighted_trend(12, m)
            assert rows[0][0] == max(m, 2)
            assert rows[-1][0] == 12
            assert all(ratio > 0 for _, ratio in rows)

    def test_m1_ratio_is_exactly_one(self):
        # connected mappings with a marked cyclic point biject with all
        # mappings, so sum_l l a(n,1,l) = n^n and the normalized ratio is 1
        rows = cyclic_point_weighted_trend(12, 1)
        assert all(r == pytest.approx(1.0, abs=1e-12) for _, r in rows)

    def test_higher_m_ratios_report_sanity(self):
        # convergence is logarithmic and not assertable at n <= 12; the
        # report should stay within a loose band of its asymptote and the
        # m = 2 ratios should descend toward it
        for m in (2, 3):
            ratios = [r for _, r in cyclic_point_weighted_trend(12, m)]
            assert all(0.5 < r < 1.5 for r in ratios)
        m2 = [r for _, r in cyclic_point_weighted_trend(12, 2)]
        assert all(a > b for a, b in zip(m2, m2[1:]))
        assert m2[-1] > 1.0


def test_non_integer_guard_not_triggered_on_valid_input():
    # all valid coefficients must clear the integrality check
    for n in range(1, 8):
        for m in range(1, n + 1):
            for l in range(m, n + 1):
                a_count(n, m, l)
