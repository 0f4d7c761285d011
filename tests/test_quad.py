import math

import numpy as np
import pytest

from randmap import _quad

UNEVEN = [-1.3, -0.2, 0.05, 1.0, 2.75, 3.0]


@pytest.mark.parametrize("n", [1, 4, 24, 48])
def test_exact_for_degree_up_to_2n_minus_1(n):
    coef = np.random.default_rng(n).uniform(-1.0, 1.0, 2 * n)
    poly = np.polynomial.Polynomial(coef)
    exact = poly.integ()(UNEVEN[-1]) - poly.integ()(UNEVEN[0])
    assert _quad.gl_panels(poly, UNEVEN, n) == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_complex_integrand():
    # int_0^pi e^(i t) dt = 2i
    value = _quad.gl_panels(lambda t: np.exp(1j * t), [0.0, 0.4, 1.9, math.pi], 16)
    assert isinstance(value, complex)
    assert value == pytest.approx(2j, abs=1e-15)


def test_calls_f_once_on_every_node():
    seen = []

    def f(t):
        seen.append(np.array(t))
        return np.ones_like(t)

    assert _quad.gl_panels(f, UNEVEN, 7) == pytest.approx(UNEVEN[-1] - UNEVEN[0], rel=1e-15)
    assert len(seen) == 1
    nodes = seen[0]
    assert nodes.shape == (7 * (len(UNEVEN) - 1),)
    for k, (lo, hi) in enumerate(zip(UNEVEN, UNEVEN[1:])):
        panel = nodes[7 * k : 7 * (k + 1)]
        assert np.all((lo < panel) & (panel < hi))


def test_rule_is_cached():
    assert _quad.gl_rule(12) is _quad.gl_rule(12)
    x, w = _quad.gl_rule(12)
    assert np.all(np.diff(x) > 0.0)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)


def _square_table(nodes, rows):
    # g(x) = x^2 at k + (1 + x_i)/2 in row k, and a last row of 0
    x, _ = _quad.gl_rule(nodes)
    table = np.zeros((rows + 1, nodes))
    table[:rows] = (np.arange(rows)[:, None] + (1.0 + x) / 2.0) ** 2
    return table


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_kink_panels_read_whole_panels_from_the_table(shift):
    # a window off the kinks with a split point: the pieces at its ends and
    # at the split go to f, the whole panels read row k - shift
    table = _square_table(8, 10)
    b = 0.5
    seen = []

    def f(x):
        seen.append(np.array(x))
        return np.where(x <= 10.0, x * x, 0.0)

    nu, half, g = _quad.kink_panels([1.3, 2.2, 3.9], b, shift, table, f)
    edges = [1.3, 1.5, 2.0, 2.2, 2.5, 3.0, 3.5, 3.9]
    assert np.allclose(half, np.diff(edges) / 2.0, rtol=0.0, atol=1e-15)
    assert np.allclose(g, f(nu / b - shift), rtol=1e-14, atol=0.0)
    # f saw only the pieces [1.3, 1.5], [2.0, 2.2], [2.2, 2.5] and [3.5, 3.9]
    assert seen[0].shape == (4, 8)


def test_kink_panels_end_on_a_kink_from_a_kink_start():
    # from 0 with b <= end / 2 the window ends at the first kink past its
    # end, and no node reaches f; kinks stop at cap b, past the table
    table = _square_table(8, 10)

    def f(x):
        raise AssertionError("a node reached f")

    nu, half, g = _quad.kink_panels([0.0, 1.9], 0.4, 0, table, f)
    assert nu.shape == (5, 8) and nu[-1, -1] < 2.0 < nu[-1, -1] + 0.01
    assert np.array_equal(g, table[:5])
    nu, half, g = _quad.kink_panels([0.0, 50.0], 0.5, 0, table, f)
    assert nu.shape == (11, 8) and np.all(g[-1] == 0.0)
    nu, half, g = _quad.kink_panels([1.0, 50.0], 0.5, 2, table, f)
    assert nu.shape == (11, 8) and np.array_equal(g, table)
