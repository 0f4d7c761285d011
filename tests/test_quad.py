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
