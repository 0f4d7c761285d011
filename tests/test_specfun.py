import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from randmap.specfun import (
    EULER_GAMMA,
    SpecfunDomainError,
    arctanh,
    dilog,
    e1_complex,
    e1_real,
    erfcx,
)


def _max_rel_err(values, refs):
    return max(abs(complex(v) - complex(r)) / abs(complex(r)) for v, r in zip(values, refs))


def _e1_series_oracle(x, terms=200):
    # -gamma - ln x + sum (-1)^(k+1) x^k/(k k!), summed independently
    s = mp.mpf(0)
    with mp.workdps(50):
        for k in range(1, terms):
            s += (-1) ** (k + 1) * mp.mpf(x) ** k / (k * mp.factorial(k))
        return float(-mp.euler - mp.log(x) + s)


class TestE1Real:
    def test_value_at_one(self):
        assert e1_real(1.0) == pytest.approx(0.2193839343955203, rel=1e-14)
        assert e1_real(1.0) == pytest.approx(_e1_series_oracle(1.0), rel=1e-14)

    def test_large_argument_bracket(self):
        # e^-x/(x+1) < E1(x) < e^-x/x
        v = e1_real(10.0)
        assert math.exp(-10.0) / 11.0 < v < math.exp(-10.0) / 10.0

    def test_small_argument_limit(self):
        x = 1e-8
        assert e1_real(x) + math.log(x) == pytest.approx(-EULER_GAMMA, abs=1e-7)
        assert e1_real(x) == pytest.approx(_e1_series_oracle(x), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain(self, x):
        with pytest.raises(SpecfunDomainError):
            e1_real(x)

    def test_scaled_product_increasing_to_one(self):
        # E1(x) * e^x * x increases toward 1
        grid = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0]
        vals = [e1_real(x) * math.exp(x) * x for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0
        assert vals[-1] > 0.99

    def test_against_mpmath_grid(self):
        for x in np.geomspace(0.01, 300.0, 60):
            ref = float(mp.e1(mp.mpf(x)))
            if ref == 0.0:
                continue
            assert e1_real(float(x)) == pytest.approx(ref, rel=1e-14)

    def test_within_1e_15_of_mpmath_on_4000_points(self):
        xs = np.geomspace(1e-300, 700.0, 4000)
        with mp.workdps(30):
            refs = [mp.e1(mp.mpf(float(x))) for x in xs]
        assert _max_rel_err(e1_real(xs), refs) < 1e-15

    @pytest.mark.parametrize("x", [1.0, np.nextafter(1.0, 2.0), 2.0, 4.0, 10.0, 10.000001])
    def test_band_edges(self, x):
        with mp.workdps(30):
            ref = mp.e1(mp.mpf(float(x)))
        assert _max_rel_err([e1_real(float(x))], [ref]) < 1e-15

    def test_array_matches_scalar_calls(self):
        xs = np.geomspace(1e-300, 800.0, 500).reshape(25, 20)
        out = e1_real(xs)
        assert out.shape == xs.shape
        assert all(a == e1_real(float(x)) for a, x in zip(out.ravel(), xs.ravel()))

    @pytest.mark.parametrize("x", [2.0, np.float64(2.0), np.array(2.0)])
    def test_scalar_gives_python_float(self, x):
        assert type(e1_real(x)) is float

    @pytest.mark.parametrize("bad", [0.0, -1e-300, math.nan])
    def test_array_domain(self, bad):
        with pytest.raises(SpecfunDomainError):
            e1_real(float(bad))
        with pytest.raises(SpecfunDomainError):
            e1_real(np.array([1.0, 2.0, bad, 3.0]))


class TestE1Complex:
    def test_real_axis_consistency(self):
        for x in [0.3, 1.0, 2.5, 7.0, 40.0]:
            assert e1_complex(complex(x, 0.0)) == pytest.approx(e1_real(x), rel=1e-13)

    def test_schwarz_reflection(self):
        z = 0.5 + 0.5j
        a = e1_complex(z).conjugate()
        b = e1_complex(z.conjugate())
        assert a == pytest.approx(b, rel=1e-14)

    def test_path_quadrature_oracle(self):
        # E1(z) = int_z^(z+L) e^(-t)/t dt + tail, along a horizontal ray
        z = 2.0 + 3.0j
        length = 40.0

        def integrand_re(u):
            t = z + u
            return (np.exp(-t) / t).real

        def integrand_im(u):
            t = z + u
            return (np.exp(-t) / t).imag

        re, _ = quad(integrand_re, 0.0, length, limit=200)
        im, _ = quad(integrand_im, 0.0, length, limit=200)
        assert e1_complex(z) == pytest.approx(complex(re, im), abs=1e-13)

    def test_against_mpmath(self):
        for z in [0.1 + 2j, 3.0 - 4j, 12.0 + 9j]:
            ref = complex(mp.e1(mp.mpc(z)))
            assert e1_complex(z) == pytest.approx(ref, rel=1e-13)
        for z in [-1.0 + 0.5j, -5.0 + 1j, -2.0 - 8j]:  # the left half-plane is refused
            with pytest.raises(SpecfunDomainError):
                e1_complex(z)

    def test_right_half_plane_grid(self):
        # Re z in [0, 40] and |Im z| from 1e-2 to 650, the region of the
        # Talbot nodes' square roots, and |z| from 1e-6 to 2 at every angle
        # of the right half-plane, the series region d <= 1
        im = np.geomspace(1e-2, 650.0, 24)
        re, im = np.meshgrid(np.linspace(0.0, 40.0, 41), np.concatenate([-im[::-1], im]))
        angles = np.exp(1j * np.linspace(-math.pi / 2.0, math.pi / 2.0, 13))
        near = (np.geomspace(1e-6, 2.0, 25)[:, None] * angles[None, :]).ravel()
        zs = np.concatenate([(re + 1j * im).ravel(), near[near.real >= 0.0]])
        with mp.workdps(30):
            refs = [mp.e1(mp.mpc(complex(z))) for z in zs]
        assert _max_rel_err(e1_complex(zs), refs) < 1e-15

    def test_array_matches_scalar_calls(self):
        re, im = np.meshgrid(np.linspace(0.0, 60.0, 13), np.linspace(-40.0, 40.0, 16))
        zs = re + 1j * im
        out = e1_complex(zs)
        assert out.shape == zs.shape
        assert all(a == e1_complex(complex(z)) for a, z in zip(out.ravel(), zs.ravel()))
        assert type(e1_complex(2.0 + 1.0j)) is complex
        with pytest.raises(SpecfunDomainError):  # the left half of the old grid
            e1_complex(-re[:, 1:] + 1j * im[:, 1:])

    @pytest.mark.filterwarnings("error")
    def test_branch_cut_rejected(self):
        # the cut, zero, NaN, the left half-plane and an infinite Im z, where
        # the kernel gives no finite value, alone and in an array, without a
        # warning
        for z in [0.0, -1.0 + 0j, -10.0 + 0j, math.nan, complex(math.nan, 1.0), -800.0 + 1.0j,
                  -1e300 + 1e300j, complex(0.0, math.inf)]:
            with pytest.raises(SpecfunDomainError):
                e1_complex(z)
            with pytest.raises(SpecfunDomainError):
                e1_complex(np.array([1.0 + 1.0j, z]))


class TestDilog:
    def test_special_values(self):
        assert dilog(0.0) == 0.0
        assert dilog(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
        assert dilog(-1.0) == pytest.approx(-math.pi**2 / 12.0, rel=1e-15)

    def test_half(self):
        expected = math.pi**2 / 12.0 - 0.5 * math.log(2.0) ** 2
        assert dilog(0.5) == pytest.approx(expected, rel=1e-14)

    def test_reflection_identity(self):
        # Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x)
        for x in np.linspace(0.02, 0.98, 25):
            lhs = dilog(float(x)) + dilog(float(1.0 - x))
            rhs = math.pi**2 / 6.0 - math.log(x) * math.log1p(-x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_against_mpmath_grid(self):
        for x in np.linspace(-8.0, 1.0, 45):
            ref = float(mp.polylog(2, mp.mpf(float(x))))
            assert dilog(float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_within_1e_15_of_mpmath(self):
        xs = np.concatenate([
            np.linspace(-50.0, 1.0, 2001),
            np.geomspace(1e-300, 1e-2, 100),
            -np.geomspace(1e-300, 1e-2, 100),
            [0.5, np.nextafter(0.5, 1.0), -1.0, np.nextafter(-1.0, -2.0)],
        ])
        xs = xs[xs != 0.0]
        with mp.workdps(30):
            refs = [mp.polylog(2, mp.mpf(float(x))) for x in xs]
        assert _max_rel_err([dilog(float(x)) for x in xs], refs) < 1e-15

    def test_domain(self):
        with pytest.raises(SpecfunDomainError):
            dilog(1.0001)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_not_a_number_or_infinite_is_domain_error(self, x):
        with pytest.raises(SpecfunDomainError):
            dilog(x)


def _erfcx_ref(z):
    with mp.workdps(30):
        z = mp.mpc(complex(z))
        return mp.exp(z * z) * mp.erfc(z)


class TestErfcx:
    """Weideman's series against mpmath at 30 digits."""

    @pytest.mark.parametrize("scale", [math.sqrt(2.0), math.sqrt(math.pi)])
    def test_line_nodes(self, scale):
        # the Bromwich line nodes of the erfc-family transforms
        zs = (1.0 + 1j * np.linspace(0.0, 120.0, 1201)) / scale
        assert _max_rel_err(erfcx(zs), [_erfcx_ref(z) for z in zs]) < 2e-15

    def test_real_axis(self):
        xs = np.linspace(1e-3, 30.0, 600)
        out = erfcx(xs)
        assert out.dtype == np.float64
        assert _max_rel_err(out, [_erfcx_ref(x) for x in xs]) < 2e-15

    def test_right_half_plane(self):
        re, im = np.meshgrid(np.linspace(0.0, 20.0, 41), np.linspace(-60.0, 60.0, 61))
        zs = (re + 1j * im).ravel()
        assert _max_rel_err(erfcx(zs), [_erfcx_ref(z) for z in zs]) < 2e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "z",
        [1e160 + 1e159j, 1e300 + 1e299j, 1e200j, -1e250j, 1e152 + 1e151j, 9e151 - 1e151j,
         1e155 - 1e153j, 1e300, 1e308 + 1e308j, 1.7e308, 1.7e308j],
    )
    def test_large_modulus_meets_the_asymptote(self, z):
        # d*d in the series overflows past |z| ~ 1.3e154; it gave nan+nanj
        # with "invalid value encountered in divide".  Near the float maximum
        # a complex quotient by d overflowed too ("overflow encountered in
        # divide" at 1e308+1e308j), as sqrt(pi) z does, so the asymptote
        # comes from mpmath
        asymptote = complex(1 / (mp.sqrt(mp.pi) * mp.mpc(z)))
        assert abs(erfcx(z) - asymptote) <= 1e-15 * abs(asymptote)
        assert erfcx(np.array([z, 2.0]))[0] == erfcx(z)
        if z.real > 0.0:  # its mirror in the imaginary axis is refused
            with pytest.raises(SpecfunDomainError):
                erfcx(complex(-z.real, z.imag))

    def test_scalars_keep_their_type_and_match_the_array(self):
        zs = np.array([0.3, 2.0, 15.0])
        for z, a in zip(zs, erfcx(zs)):
            v = erfcx(float(z))
            assert np.isrealobj(v) and np.ndim(v) == 0 and v == a
        with pytest.raises(SpecfunDomainError):
            erfcx(-0.7)
        assert np.iscomplexobj(erfcx(1.0 + 2.0j))
        assert erfcx(1.0 + 2.0j) == erfcx(np.array([1.0 + 2.0j]))[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [-0.7, -1e-300, -5.0 + 2.0j, complex(-1e-300, 1.0), -1e300 + 1e300j,
                               math.nan, complex(1.0, math.nan), complex(math.nan, 0.0)])
def test_left_half_plane_and_nan_are_refused(z):
    # E1 and erfcx are defined here on Re z >= 0 only, the half-plane the
    # engines use: a scalar and an array element elsewhere raise, with no
    # warning
    for f in (e1_complex, erfcx):
        with pytest.raises(SpecfunDomainError):
            f(z)
        with pytest.raises(SpecfunDomainError):
            f(np.array([1.0 + 1.0j, z, 2.0]))
    if isinstance(z, float):
        with pytest.raises(SpecfunDomainError):
            erfcx(np.array([1.0, z]))
    # the imaginary axis stays in the domain
    assert np.isfinite(e1_complex(complex(-0.0, 1.0))) and np.isfinite(erfcx(complex(-0.0, 1.0)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [math.inf, complex(math.inf, 0.0), complex(0.0, math.inf)])
def test_erfcx_refuses_an_infinite_argument(z):
    # it returned nan with "invalid value encountered" warnings; no engine
    # reaches an infinite argument, so it is refused as NaN is
    with pytest.raises(SpecfunDomainError, match="finite z"):
        erfcx(z)
    with pytest.raises(SpecfunDomainError, match="finite z"):
        erfcx(np.array([1.0, z, 2.0]))


class TestErfcArctanh:
    def test_arctanh_value(self):
        x = math.sqrt(0.5)
        oracle = 0.5 * math.log((1.0 + x) / (1.0 - x))
        assert arctanh(x) == pytest.approx(oracle, rel=1e-15)
        assert arctanh(x) == pytest.approx(0.8813735870195430, rel=1e-14)

    @pytest.mark.parametrize("x", [1.0, -1.0, 1.5])
    def test_arctanh_domain(self, x):
        with pytest.raises(SpecfunDomainError):
            arctanh(x)


def test_e1_complex_matches_real_on_grid():
    for x in np.geomspace(0.05, 80.0, 40):
        assert e1_complex(complex(x, 0.0)).real == pytest.approx(
            e1_real(float(x)), rel=1e-13
        )
        assert abs(e1_complex(complex(x, 0.0)).imag) < 1e-18


def test_specfun_module_has_no_state():
    before = e1_real(2.0)
    e1_real(123.0)
    dilog(-3.0)
    assert e1_real(2.0) == before
