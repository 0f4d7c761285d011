import cmath
import math

import numpy as np
import pytest
from oracles import hk_closed_form
from scipy.special import erfcx

from randmap import dde, laplace
from randmap.laplace import (
    LaplaceAccuracyError,
    MethodMismatchError,
    NonConvergenceError,
    TransformSpec,
    divisibility_report,
    forward_laplace,
    invert,
    mapping_cycle_cdf_contour,
    transform_value,
    truncated_cdf_series,
)
from randmap.specfun import SpecfunDomainError, e1_real


class TestForwardLaplace:
    def test_halfnormal_density(self):
        f = lambda x: math.sqrt(2.0 / math.pi) * np.exp(-x * x / 2.0)
        val = forward_laplace(f, 1.0)
        assert val == pytest.approx(erfcx(1.0 / math.sqrt(2.0)), abs=1e-10)
        assert val == pytest.approx(0.5231565837302469, rel=1e-9)

    def test_constant(self):
        assert forward_laplace(lambda x: 1.0, 2.0) == pytest.approx(0.5, abs=1e-10)

    def test_solved_rho_pair(self):
        rho = dde.dickman_solution(1)
        val = forward_laplace(rho, 1.0, xi_max=rho.x_max, breakpoints=range(1, 7))
        assert val == pytest.approx(math.exp(-e1_real(1.0)), abs=1e-10)
        assert val == pytest.approx(0.8030133545148502, abs=1e-10)

    def test_rayleigh_identity(self):
        # transform of xi exp(-xi^2/2) at several abscissae
        f = lambda x: x * np.exp(-x * x / 2.0)
        for eta in [0.5, 1.0, 2.0]:
            expected = 1.0 - math.sqrt(math.pi / 2.0) * eta * erfcx(eta / math.sqrt(2.0))
            assert forward_laplace(f, eta) == pytest.approx(expected, abs=1e-9)

    def test_nonconvergent(self):
        # mass spread over a 1e30 scale never settles within the panel range
        with pytest.raises(NonConvergenceError):
            forward_laplace(lambda x: 1.0 / (1.0 + x), 1e-30)

    def test_complex_eta(self):
        val = forward_laplace(lambda x: 1.0, 1.0 + 1.0j)
        assert val == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-10)

    @pytest.mark.parametrize(
        "eta", [math.nan, complex(1.0, math.nan), math.inf, complex(math.inf, 1.0)]
    )
    @pytest.mark.parametrize("xi_max", [None, 10.0])
    def test_nonfinite_eta_is_error(self, eta, xi_max):
        # nan evaluated every panel and then raised NonConvergenceError, or
        # returned nan with xi_max; inf returned 0.0 after a RuntimeWarning
        def no_value(x):
            raise AssertionError("the integrand was evaluated")

        with pytest.raises(SpecfunDomainError, match="finite eta"):
            forward_laplace(no_value, eta, xi_max=xi_max)

    @pytest.mark.parametrize("xi_max", [math.nan, math.inf, 0.0, -1.0])
    def test_xi_max_must_be_finite_and_positive(self, xi_max):
        # nan, 0 and -1 returned 0.0 without a panel evaluated
        with pytest.raises(SpecfunDomainError, match="finite xi_max"):
            forward_laplace(lambda x: 1.0, 1.0, xi_max=xi_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_breakpoints_must_be_finite(self, bad):
        # nan was dropped without a word, and inf ran every panel out to 2^31
        # before NonConvergenceError
        def no_value(x):
            raise AssertionError("the integrand was evaluated")

        with pytest.raises(SpecfunDomainError, match=f"finite breakpoints, got {bad}"):
            forward_laplace(no_value, 1.0, breakpoints=[1.0, bad])

    def test_breakpoints_at_or_below_zero_are_dropped(self):
        f = lambda x: np.exp(-x)
        assert forward_laplace(f, 1.0, breakpoints=[-1.0, 0.0]) == forward_laplace(f, 1.0)

    def test_other_errors_propagate(self):
        def f(x):
            if isinstance(x, np.ndarray):
                raise RuntimeError("integrand failed")
            return 1.0

        with pytest.raises(RuntimeError, match="integrand failed"):
            forward_laplace(f, 1.0)


class TestThetaFamilyPairs:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_forward_of_solved_dde_matches_transform(self, theta, eta):
        sol = dde.theta_solution(theta)
        val = forward_laplace(sol, eta, xi_max=sol.x_max, breakpoints=range(1, 7))
        expected = math.gamma(theta) * math.exp(-theta * e1_real(eta)) / eta**theta
        assert val == pytest.approx(expected, abs=1e-8)


def _per_node(spec):
    """The transform of spec on a node array, one scalar call per node."""
    return lambda p: np.array([complex(transform_value(spec, complex(z))) for z in p])


class TestInvert:
    def test_dickman_closed_region(self):
        spec = TransformSpec(id="dickman")
        assert invert(spec, 2.0) == pytest.approx(dde.rho_closed_form(2.0), abs=1e-12)
        assert invert(spec, 0.7) == pytest.approx(1.0, abs=1e-14)

    def test_dickman_numeric_region(self):
        spec = TransformSpec(id="dickman")
        for xi in [2.25, 2.75, 3.0]:
            assert invert(spec, xi) == pytest.approx(dde.rho_closed_form(xi), abs=1e-8)

    def test_watterson_matches_solver(self):
        spec = TransformSpec(id="watterson")
        sigma = dde.watterson_solution()
        for xi in [1.5, 2.5, 3.5]:
            assert invert(spec, xi) == pytest.approx(sigma(xi), abs=1e-7)

    def test_theta_family_matches_solver(self):
        spec = TransformSpec(id="theta", theta=1.5)
        sol = dde.theta_solution(1.5)
        for xi in [0.5, 2.25, 4.0]:
            assert invert(spec, xi) == pytest.approx(sol(xi), abs=1e-7)

    def test_erfc_gauss(self):
        spec = TransformSpec(id="erfc-gauss")
        assert invert(spec, 1.0) == pytest.approx(math.exp(-math.pi / 4.0), abs=1e-10)
        assert invert(spec, 1.0) == pytest.approx(0.4559381, abs=1e-7)

    def test_halfnormal_and_rayleigh(self):
        hn = TransformSpec(id="halfnormal")
        ray = TransformSpec(id="rayleigh")
        for xi in [0.3, 1.0, 2.5]:
            assert invert(hn, xi) == pytest.approx(
                math.sqrt(2.0 / math.pi) * math.exp(-xi * xi / 2.0), abs=1e-10
            )
            assert invert(ray, xi) == pytest.approx(xi * math.exp(-xi * xi / 2.0), abs=1e-10)

    @pytest.mark.parametrize("tid", ["halfnormal", "rayleigh", "erfc-gauss"])
    def test_line_refuses_values_lost_to_rounding(self, tid):
        # at xi = 20 the line's rounding gives errors of 4e-7 to 2e-6 against
        # true values below 1e-80; at xi = 8 the errors are below 1e-10
        spec = TransformSpec(id=tid)
        with pytest.raises(LaplaceAccuracyError, match="rounding error estimate"):
            invert(spec, 20.0)
        assert invert(spec, 8.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("tid", ["halfnormal", "rayleigh", "erfc-gauss"])
    def test_line_answers_within_its_bound_or_refuses(self, tid):
        # the restored terms cancel to the value as xi grows (up to 1.6e6 at
        # xi = 10): every value given is within LINE_MAX_ROUNDING of the
        # closed form, the rest is refused, and nothing up to xi = 8 is
        closed = {
            "halfnormal": lambda x: math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0),
            "rayleigh": lambda x: x * math.exp(-x * x / 2.0),
            "erfc-gauss": lambda x: math.exp(-math.pi * x * x / 4.0),
        }[tid]
        refused = []
        for xi in np.arange(40, 89) / 8.0:
            try:
                value = invert(TransformSpec(id=tid), float(xi))
            except LaplaceAccuracyError as err:
                assert "rounding error estimate" in str(err)
                refused.append(xi)
                continue
            assert abs(value - closed(xi)) <= laplace.LINE_MAX_ROUNDING, xi
        assert not refused or min(refused) > 8.0

    @pytest.mark.parametrize("xi", [5e-324, 1e-310, 1e-306, 1.7976931348623157e308])
    def test_talbot_refuses_nonfinite_nodes_before_evaluating(self, xi):
        def no_value(p):
            raise AssertionError("the transform was evaluated")

        with pytest.raises(ValueError, match="non-finite nodes or weights"):
            laplace._invert_talbot(no_value, xi)

    @pytest.mark.parametrize("xi", [1e10, 1e100, 1e200, 1e300])
    def test_talbot_refuses_values_lost_to_rounding(self, xi):
        # at b = 0.5 the estimate is 2.5e-20 against a value of 5.0e-16 at
        # xi = 1e10, and of the value's size or above it from 1e100 on
        with pytest.raises(LaplaceAccuracyError, match="TALBOT_MAX_ROUNDING"):
            invert(TransformSpec(id="cycle-cdf", b=0.5), xi)

    @pytest.mark.parametrize("b, xi", [(0.5, 1e-300), (0.5, 0.05), (0.5, 1e4), (0.01, 100.0)])
    def test_talbot_keeps_resolved_values(self, b, xi):
        assert invert(TransformSpec(id="cycle-cdf", b=b), xi) > 0.0

    def test_method_mismatch(self):
        with pytest.raises(MethodMismatchError):
            invert(TransformSpec(id="erfc-gauss"), 1.0, method="talbot")
        with pytest.raises(MethodMismatchError):
            invert(TransformSpec(id="dickman"), 1.0, method="talbot")

    @pytest.mark.parametrize("method", ["Bromwich", "TALBOT", "nonsense", "", "dehoog"])
    @pytest.mark.parametrize("tid", ["cycle-cdf", "erfc-gauss", "dickman"])
    def test_unknown_method_is_error_before_any_engine(self, monkeypatch, method, tid):
        # "Bromwich" ran Talbot and "nonsense" the default engine
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for engine in ("_invert_talbot", "_invert_line_subtracted", "_invert_theta_family",
                       "_invert_mp_line"):
            monkeypatch.setattr(laplace, engine, no_engine)
        with pytest.raises(ValueError, match=f"method must be None, 'talbot' or 'bromwich', "
                                             f"got {method!r}"):
            invert(TransformSpec(id=tid, b=0.5), 2.0, method=method)

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize(
        "spec, method, engine",
        [
            (TransformSpec(id="cycle-cdf", b=0.5), None, "_invert_talbot"),
            (TransformSpec(id="cycle-cdf", b=0.5), "talbot", "_invert_talbot"),
            (TransformSpec(id="cycle-cdf", b=0.5), "bromwich", "_invert_mp_line"),
            (TransformSpec(id="dickman"), None, "_invert_theta_family"),
            (TransformSpec(id="watterson"), None, "_invert_theta_family"),
            (TransformSpec(id="theta", theta=1.5), None, "_invert_theta_family"),
            (TransformSpec(id="halfnormal"), None, "_invert_line_subtracted"),
            (TransformSpec(id="rayleigh"), None, "_invert_line_subtracted"),
            (TransformSpec(id="erfc-gauss"), None, "_invert_line_subtracted"),
            (TransformSpec(id="halfnormal-m2-root"), "bromwich", "_invert_line_subtracted"),
        ],
        ids=lambda v: v.id if isinstance(v, TransformSpec) else str(v),
    )
    def test_invert_reaches_its_engine_by_name(self, monkeypatch, spec, method, engine, check):
        # the tracer spans each engine by replacing the module attribute, so
        # invert must call the engines through the module, once per resolution
        calls = []
        for name in ("_invert_talbot", "_invert_line_subtracted", "_invert_theta_family",
                     "_invert_mp_line"):
            def spy(*args, name=name, **kwargs):
                calls.append((name, args))
                return 0.25

            monkeypatch.setattr(laplace, name, spy)
        assert invert(spec, 2.0, method=method, check=check) == 0.25
        assert [name for name, _ in calls] == [engine] * (1 + check)
        args = calls[0][1]
        if engine == "_invert_theta_family":
            assert args == ({"dickman": 1.0, "watterson": 0.5}.get(spec.id, spec.theta), 2.0)
        if engine == "_invert_line_subtracted":
            assert args[1:] == (laplace._LINES[spec.id].terms, 2.0)

    def test_cycle_cdf_bromwich_override_agrees_with_talbot(self):
        spec = TransformSpec(id="cycle-cdf", b=0.8)
        xi = 1.0 / 0.8
        assert invert(spec, xi, method="bromwich") == pytest.approx(
            invert(spec, xi), abs=1e-7
        )

    def test_check_flag_accepts_good_transform(self):
        spec = TransformSpec(id="halfnormal")
        assert invert(spec, 1.0, check=True) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.exp(-0.5), abs=1e-10
        )

    def test_custom_transform(self):
        # 1/(eta+1)^2 <-> xi e^(-xi), entire with decay: the line engine with
        # the transform's large-eta expansion subtracted
        terms = ((2, 1.0), (3, -2.0), (4, 3.0), (5, -4.0), (6, 5.0))
        value = laplace._invert_line_subtracted(lambda p: 1.0 / (p + 1.0) ** 2, terms, 1.5)
        assert value == pytest.approx(1.5 * math.exp(-1.5), abs=1e-8)

    @pytest.mark.parametrize("tid", ["erfc-gauss", "halfnormal", "rayleigh"])
    def test_line_evaluates_named_transform_once(self, monkeypatch, tid):
        # one erfcx call on the whole node array, and the value a scalar-only
        # copy of the same transform gives node by node (Python's complex
        # arithmetic rounds some products differently from NumPy's)
        shapes = []
        real_erfcx = laplace.erfcx

        def counting(z):
            shapes.append(np.shape(z))
            return real_erfcx(z)

        monkeypatch.setattr(laplace, "erfcx", counting)
        spec = TransformSpec(id=tid)
        value = invert(spec, 1.5)
        assert len(shapes) == 1 and shapes[0][0] > 1000
        value_per_node = laplace._invert_line_subtracted(
            _per_node(spec), laplace._LINES[tid].terms, 1.5
        )
        assert value_per_node == pytest.approx(value, rel=1e-14, abs=0.0)
        assert len(shapes) > 1000

    @pytest.mark.parametrize("b, xi", [(0.05, 20.0), (0.5, 2.0), (5.0, 0.2), (0.3, 7.0)])
    def test_talbot_evaluates_named_transform_once(self, monkeypatch, b, xi):
        # one e1_complex call on [r, p_1, ..., p_31], and the bits a
        # scalar-only copy of the same transform gives node by node
        shapes = []
        real_e1_complex = laplace.e1_complex

        def counting(z):
            shapes.append(np.shape(z))
            return real_e1_complex(z)

        monkeypatch.setattr(laplace, "e1_complex", counting)
        spec = TransformSpec(id="cycle-cdf", b=b)
        value = invert(spec, xi)
        assert shapes == [(32,)]
        assert laplace._invert_talbot(_per_node(spec), xi) == value
        assert shapes == [(32,)] + [()] * 32

    def test_engines_call_e1_and_erfcx_on_the_right_half_plane(self, monkeypatch):
        # specfun defines E1 and erfcx on Re z >= 0 only: Talbot reaches E1
        # through a principal square root, and the line and the divisibility
        # report reach erfcx at positive multiples of eta with Re eta > 0
        args = {"e1_complex": [], "erfcx": []}
        for name, seen in args.items():
            def recording(z, real=getattr(laplace, name), seen=seen):
                seen.append(np.ravel(np.asarray(z, dtype=complex)))
                return real(z)

            monkeypatch.setattr(laplace, name, recording)
        for b in (0.01, 0.05, 0.5, 2.0, 5.0):
            mapping_cycle_cdf_contour(b, check=True)
        for tid in laplace._LINES:
            for xi in (0.05, 1.0, 4.0, 8.0):
                invert(TransformSpec(id=tid), xi, check=True, tol=1e-6)
        divisibility_report(np.linspace(0.02, 20.0, 64))
        e1_args, erfcx_args = (np.concatenate(args[name]) for name in ("e1_complex", "erfcx"))
        assert e1_args.size > 300 and erfcx_args.size > 10_000
        assert np.all(e1_args.real >= 0.0) and np.all(e1_args != 0.0)
        assert np.all(erfcx_args.real >= 0.0)

    def test_talbot_inverts_scalar_only_custom_transform(self):
        # e^(-sqrt(p))/sqrt(p) <-> e^(-1/(4 xi))/sqrt(pi xi), written with
        # cmath, so it takes one point at a time: a per-node array wrapper
        # calls it once on each of the 32 nodes [r, p_1, ..., p_31]
        calls = []

        def F(p):
            calls.append(p)
            return cmath.exp(-cmath.sqrt(p)) / cmath.sqrt(p)

        for xi in (0.3, 0.8, 2.5):
            calls.clear()
            expected = math.exp(-1.0 / (4.0 * xi)) / math.sqrt(math.pi * xi)
            value = laplace._invert_talbot(lambda p: np.array([F(complex(z)) for z in p]), xi)
            assert value == pytest.approx(expected, rel=1e-10)
            assert len(calls) == 32 and all(isinstance(p, complex) for p in calls)


class TestDeHoogEngine:
    """The list-based de Hoog engine against mpmath.invertlaplace, which it
    replaced: the same number at the same caller precision."""

    @pytest.mark.parametrize(
        "theta, xi", [(1.0, 3.0), (1.0, 4.3), (0.5, 2.25), (0.5, 4.0), (1.5, 3.0), (1.5, 5.5)]
    )
    def test_theta_family_equals_mpmath(self, theta, xi):
        import mpmath as mp

        with mp.workdps(80):
            F = laplace._mp_theta_peeled(theta)
            expected = mp.invertlaplace(F, xi, method="dehoog", degree=80)
            value = laplace._dehoog(F, xi, 80, 80)
            assert mp.mp.dps == 80  # the caller's precision is left as it was
        assert value == expected
        assert float(value) == float(expected)

    def test_bromwich_override_equals_mpmath(self):
        import mpmath as mp

        b, xi = 0.8, 1.25
        F = lambda p: mp.exp(-mp.e1(mp.sqrt(2 * b * p))) / mp.sqrt(p)
        with mp.workdps(60):
            expected = float(mp.invertlaplace(F, xi, method="dehoog", degree=40))
        spec = TransformSpec(id="cycle-cdf", b=b)
        assert invert(spec, xi, method="bromwich") == expected

    def test_invert_does_not_call_invertlaplace(self, monkeypatch):
        import mpmath as mp

        def fail(*args, **kwargs):
            raise AssertionError("mpmath.invertlaplace called")

        monkeypatch.setattr(mp, "invertlaplace", fail)
        assert invert(TransformSpec(id="dickman"), 3.5) == pytest.approx(
            dde.dickman_solution(1)(3.5), abs=1e-8
        )


class TestHkAndConvolutions:
    def test_closed_form_values(self):
        assert hk_closed_form(0, 0.5) == 1.0
        assert hk_closed_form(1, math.e) == pytest.approx(1.0, rel=1e-15)
        assert hk_closed_form(1, 0.99) == 0.0
        assert hk_closed_form(2, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert hk_closed_form(2, 1.9) == 0.0
        assert hk_closed_form(2, 3.0) == pytest.approx(0.29444135391848253, rel=1e-12)

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            hk_closed_form(3, 4.0)

    def test_support(self):
        assert dde.tower(1, 1.0, 0.5) == 0.0
        assert dde.tower(2, 1.0, 1.999) == 0.0
        assert dde.tower(3, 1.0, 2.5) == 0.0

    def test_convolution_matches_closed_form(self):
        for xi in [2.5, 3.0, 4.0, 5.5, *np.linspace(2.0, 64.0, 497)[1:]]:
            assert dde.tower(2, 1.0, xi) == pytest.approx(hk_closed_form(2, xi), abs=1e-13)
        for xi in [1.5, 2.0, 7.0]:
            assert dde.tower(1, 1.0, xi) == pytest.approx(hk_closed_form(1, xi), abs=1e-12)

    def test_k3_monte_carlo_oracle(self):
        # volume integral of h(t1) h(t2) h(t3) over t1+t2+t3 <= xi equals
        # the cumulative triple convolution at xi
        xi = 3.5
        rng = np.random.default_rng(20240817)
        n = 400_000
        t = 1.0 + rng.random((n, 3)) * (xi - 3.0)  # box [1, 1.5]^3 covers the simplex
        box = (xi - 3.0) ** 3
        inside = t.sum(axis=1) <= xi
        vals = np.where(inside, 1.0 / (t[:, 0] * t[:, 1] * t[:, 2]), 0.0)
        est = vals.mean() * box
        se = vals.std(ddof=1) / math.sqrt(n) * box
        assert dde.tower(3, 1.0, xi) == pytest.approx(est, abs=3 * se)
        assert dde.tower(3, 1.0, xi) > 0.0

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_levels_transform_back(self, k):
        # forward transforms of the tabled levels against E(2)^k / 2^(1-a)
        for theta, base in ((1.0, 2.0), (0.5, math.sqrt(2.0))):
            per_node = lambda x: np.array([dde.tower(k, theta, t) for t in x])
            value = forward_laplace(per_node, 2.0, xi_max=64, breakpoints=range(1, 65))
            assert value == pytest.approx(e1_real(2.0) ** k / base, rel=1e-12)

    def test_tower_domain(self):
        assert dde.tower(3, 1.0, 64.0) > 0.0
        for theta in (1.0, 0.5):
            with pytest.raises(SpecfunDomainError):
                dde.tower(3, theta, 64.5)
            with pytest.raises(SpecfunDomainError):
                dde.tower(1, theta, math.nan)

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a level was fitted")

        monkeypatch.setattr(dde, "_tower_level", fail)

    @pytest.mark.usefixtures("no_fit")
    @pytest.mark.parametrize("k", [-1, -2, 2.5, 0.5, math.nan, math.inf, -math.inf])
    def test_tower_refuses_a_level_that_is_not_an_integer(self, k):
        # -1 returned f_1(3) = ln 3, and 2.5 raised a bare TypeError
        with pytest.raises(dde.DdeError, match=f"integer level k >= 0, got {k}"):
            dde.tower(k, 1.0, 3.0)

    @pytest.mark.usefixtures("no_fit")
    @pytest.mark.parametrize(
        "theta", [math.nan, np.nextafter(dde.MIN_THETA, 0.0), np.nextafter(dde.MAX_THETA, 99.0),
                  0.0, -1.0, math.inf]
    )
    def test_tower_refuses_theta_outside_the_dde_bounds(self, theta):
        # theta = NaN ended in ToleranceNotAchievedError after fitting
        with pytest.raises(dde.DdeError, match=f"theta <= {dde.MAX_THETA}, got {theta}"):
            dde.tower(3, theta, 5.0)

    def test_tower_integral_float_level_is_that_level(self):
        assert dde.tower(3.0, 1.0, 5.5) == dde.tower(3, 1.0, 5.5)
        assert dde.tower(0, dde.MIN_THETA, 3.0) > 0.0

    def test_sqrt_weighted_level_one(self):
        xi = 1.8
        expected = 2.0 * math.atanh(math.sqrt(1.0 - 1.0 / xi)) / math.sqrt(math.pi * xi)
        assert dde.tower(1, 0.5, xi) == pytest.approx(expected, rel=1e-12)


class TestTruncatedSeries:
    def test_permutation_matches_rho_closed_form(self):
        for a in np.linspace(0.34, 1.0, 23):
            expected = dde.rho_closed_form(1.0 / a)
            assert truncated_cdf_series(float(a), "permutation") == pytest.approx(
                expected, abs=1e-10
            )

    def test_permutation_at_one(self):
        assert truncated_cdf_series(1.0, "permutation") == pytest.approx(1.0, rel=1e-14)

    def test_permutation_deep_term(self):
        # a below 1/2 exercises the tabled levels, down to the 64th
        rho = dde.dickman_solution(1)
        for a in [0.28, 0.3, 0.32, 1.0 / 16.0, 1.0 / 64.0]:
            assert truncated_cdf_series(a, "permutation") == pytest.approx(
                rho(1.0 / a), abs=1e-12
            )

    def test_component_matches_sigma_tilde(self):
        sigma = dde.watterson_solution()
        for a in np.linspace(0.52, 1.0, 13):
            expected = dde.sigma_tilde(sigma, 1.0 / a)
            assert truncated_cdf_series(float(a), "component") == pytest.approx(
                expected, abs=1e-10
            )

    def test_component_value(self):
        # 1 - arctanh(sqrt(1 - a)) at a = 0.6
        expected = 1.0 - math.atanh(math.sqrt(0.4))
        assert truncated_cdf_series(0.6, "component") == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.2545018455025958, rel=1e-12)

    def test_component_deep_term(self):
        sigma = dde.watterson_solution()
        for a in [0.38, 0.42, 0.48, 1.0 / 16.0, 1.0 / 64.0]:
            assert truncated_cdf_series(a, "component") == pytest.approx(
                dde.sigma_tilde(sigma, 1.0 / a), abs=1e-12
            )

    @pytest.mark.parametrize("kind", ["permutation", "component"])
    def test_a_cdf_within_rounding_of_the_dde(self, kind):
        # unclamped, the cancelling sum read -6.2e-15 at a = 1/64 and was
        # negative at xi = 14, 24, 32, 48 ("permutation") and 16, 32, 48
        rho, sigma = dde.dickman_solution(1), dde.watterson_solution()
        for k in range(1, 65):
            x = float(k)
            ref = rho(x) if kind == "permutation" else dde.sigma_tilde(sigma, x)
            value = truncated_cdf_series(1.0 / k, kind)
            assert 0.0 <= value <= 1.0, k
            assert value == pytest.approx(ref, abs=1e-13), k

    def test_domain(self):
        with pytest.raises(Exception):
            truncated_cdf_series(0.0, "permutation")
        for kind in ("permutation", "component"):
            for a in (1.0 / 64.5, np.nextafter(1.0 / 64.0, 0.0)):
                with pytest.raises(SpecfunDomainError):
                    truncated_cdf_series(a, kind)
            # accepted; the alternating sum cancels to its rounding floor there
            assert abs(truncated_cdf_series(1.0 / 64.0, kind)) < 1e-13
        with pytest.raises(ValueError):
            truncated_cdf_series(0.5, "nope")


class TestCycleCdfContour:
    def test_median(self):
        assert mapping_cycle_cdf_contour(0.6842) == pytest.approx(0.5, abs=2e-4)

    def test_limit(self):
        assert mapping_cycle_cdf_contour(20.0) == pytest.approx(1.0, abs=1e-6)

    def test_nondecreasing(self):
        bs = np.linspace(0.2, 3.0, 15)
        vals = [mapping_cycle_cdf_contour(float(b)) for b in bs]
        assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def report():
    return divisibility_report(np.linspace(0.02, 20.0, 64))


class TestDivisibility:
    def test_bounds_strict(self, report):
        assert report["bounds_strict"] == 1.0

    def test_approx_error_below_half_percent(self, report):
        assert report["max_approx_rel_err"] < 0.005

    def test_bound_roundtrips(self, report):
        assert report["max_roundtrip_err_lower"] < 1e-8
        assert report["max_roundtrip_err_upper"] < 1e-8

    def test_m2_root_unbounded_near_origin(self, report):
        assert report["m2_root_ratio"] >= 5.0
        # the small-xi value tracks (2/pi)^(1/4)/sqrt(pi xi)
        leading = (2.0 / math.pi) ** 0.25 / math.sqrt(math.pi * 0.01)
        assert report["m2_root_small_value"] == pytest.approx(leading, rel=0.02)

    # the record on the README's grid, the tests' grid and one point, as
    # float.hex strings: the JSON and CSV records print these bits
    _PROBE = ["0x1.42831df6090d0p+2", "0x1.055001c5ce718p-2", "0x1.3bf4985c86e3ep+4"]

    @pytest.mark.parametrize(
        "grid, expected",
        [
            (np.linspace(0.02, 20.0, 1000),
             ["0x1.0000000000000p+0", "0x1.29c9651b48cb0p-8", "0x1.2800000000000p-46",
              "0x1.7200000000000p-46", *_PROBE]),
            (np.linspace(0.02, 20.0, 64),
             ["0x1.0000000000000p+0", "0x1.29b12c52fec2fp-8", "0x1.2800000000000p-46",
              "0x1.7200000000000p-46", *_PROBE]),
            ([0.5],
             ["0x1.0000000000000p+0", "0x1.ae94f77d538fep-9", "0x1.2800000000000p-46",
              "0x1.6e00000000000p-46", *_PROBE]),
        ],
        ids=["readme-1000", "tests-64", "one-point"],
    )
    def test_record_keys_and_bits(self, grid, expected):
        record = divisibility_report(grid)
        assert list(record) == [
            "bounds_strict", "max_approx_rel_err", "max_roundtrip_err_lower",
            "max_roundtrip_err_upper", "m2_root_small_value", "m2_root_unit_value",
            "m2_root_ratio",
        ]
        assert all(type(v) is float for v in record.values())
        assert [v.hex() for v in record.values()] == expected

    def test_a_scalar_eta_is_a_one_point_grid(self):
        # len() of the 0-d array raised a bare TypeError
        record = divisibility_report(0.5)
        assert [v.hex() for v in record.values()] == [
            v.hex() for v in divisibility_report([0.5]).values()
        ]

    @pytest.mark.parametrize("grid", [[0.5, math.nan], [math.nan], [0.5, 0.0], [-1.0, 2.0]])
    def test_nan_or_non_positive_eta_is_not_positive(self, grid):
        with pytest.raises(SpecfunDomainError, match="eta grid must be positive"):
            divisibility_report(grid)

    def test_empty_grid_is_refused(self):
        # raised NumPy's "zero-size array to reduction operation minimum"
        with pytest.raises(SpecfunDomainError, match="eta grid must not be empty"):
            divisibility_report([])


@pytest.mark.parametrize(
    "field, value", [("theta", math.nan), ("theta", math.inf), ("b", math.nan), ("b", -math.inf)]
)
def test_spec_parameters_must_be_finite_and_positive(field, value):
    tid = "theta" if field == "theta" else "cycle-cdf"
    with pytest.raises(ValueError, match="finite"):
        TransformSpec(id=tid, **{field: value})


@pytest.mark.parametrize(
    "theta", [np.nextafter(dde.MAX_THETA, 99.0), 1e5, np.nextafter(dde.MIN_THETA, 0.0), 1e-8]
)
def test_theta_transform_shares_the_dde_bound(theta):
    with pytest.raises(ValueError, match="theta in"):
        TransformSpec(id="theta", theta=theta)
    TransformSpec(id="theta", theta=dde.MAX_THETA)
    low = TransformSpec(id="theta", theta=dde.MIN_THETA)
    assert invert(low, 1.5) == dde.theta_solution(dde.MIN_THETA)(1.5)


def test_theta_family_overflowing_closed_part_is_error():
    with pytest.raises(FloatingPointError):
        laplace._invert_theta_family(4.0, 1e300)


@pytest.mark.parametrize(
    "spec", [TransformSpec(id="dickman"), TransformSpec(id="theta", theta=3.0)]
)
@pytest.mark.parametrize("xi", [np.nextafter(64.0, 65.0), 1e300])
def test_theta_family_covers_the_dde_domain(spec, xi):
    # xi = 1e300 ended in a bare ZeroDivisionError for dickman
    with pytest.raises(SpecfunDomainError, match="covers xi <= 64"):
        invert(spec, xi)


@pytest.mark.parametrize(
    "theta, xi, true", [(1.0, 20.0, 2.5e-29), (3.0, 64.0, 2.0e-92), (50.0, 64.0, 4.25e72)]
)
def test_theta_family_refuses_values_lost_to_rounding(theta, xi, true):
    # the closed part and de Hoog's remainder cancel: these gave 2.2e-16,
    # 7.3e-12 and 5.09e74 with no error, against the DDE's true values
    with pytest.raises(LaplaceAccuracyError, match="TALBOT_MAX_ROUNDING"):
        laplace._invert_theta_family(theta, xi)
    assert dde.theta_solution(theta)(xi) == pytest.approx(true, rel=1e-2)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8])
def test_invert_tol_must_be_positive(tol):
    # a NaN tol accepted any difference between the two resolutions
    with pytest.raises(ValueError, match="tol must be positive"):
        invert(TransformSpec(id="halfnormal"), 1.0, check=True, tol=tol)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("xi", [math.nan, math.inf])
def test_hk_closed_form_refuses_nonfinite_xi(k, xi):
    # k = 0 and 1 returned 1.0 and 0.0 at NaN
    with pytest.raises(SpecfunDomainError, match="finite"):
        hk_closed_form(k, xi)


def test_spec_is_a_named_transform():
    import dataclasses

    assert [f.name for f in dataclasses.fields(TransformSpec)] == ["id", "theta", "b"]
    with pytest.raises(ValueError, match="unknown transform id"):
        TransformSpec(id="custom")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "spec",
    [TransformSpec(id=tid) for tid in ("dickman", "watterson", *laplace._LINES)]
    + [TransformSpec(id="theta", theta=1.5)],
    ids=lambda spec: spec.id,
)
@pytest.mark.parametrize("eta", [-0.5, -1.0 + 2.0j, math.nan, complex(1.0, math.nan)])
def test_transform_value_refuses_the_left_half_plane_and_nan(spec, eta):
    # E1 and erfcx are defined on Re z >= 0 only, with no warning elsewhere
    with pytest.raises(SpecfunDomainError):
        transform_value(spec, eta)
    with pytest.raises(SpecfunDomainError):
        transform_value(spec, np.array([1.0 + 1.0j, eta]))


def test_transform_value_real_consistency():
    spec = TransformSpec(id="dickman")
    v1 = transform_value(spec, 1.0)
    v2 = transform_value(spec, complex(1.0, 0.0))
    assert complex(v1).real == pytest.approx(complex(v2).real, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        TransformSpec(id="dickman"),
        TransformSpec(id="watterson"),
        TransformSpec(id="theta", theta=1.5),
        TransformSpec(id="cycle-cdf", b=0.05),
        TransformSpec(id="cycle-cdf", b=0.5),
        TransformSpec(id="cycle-cdf", b=5.0),
    ],
    ids=lambda spec: f"{spec.id}-{spec.theta or spec.b}",
)
def test_transform_value_array_matches_scalar_calls(spec):
    re, im = np.meshgrid(np.linspace(-3.0, 6.0, 19), np.linspace(-40.0, 40.0, 9))
    etas = (re + 1j * im).ravel()
    etas = etas[(etas.imag != 0.0) | (etas.real > 0.0)]  # off the branch cut
    if spec.id != "cycle-cdf":  # the theta family is refused on Re eta < 0
        left = etas[etas.real < 0.0]
        with pytest.raises(SpecfunDomainError):
            transform_value(spec, left)
        for eta in left:
            with pytest.raises(SpecfunDomainError):
                transform_value(spec, complex(eta))
        etas = etas[etas.real >= 0.0]
    out = transform_value(spec, etas)
    assert out.shape == etas.shape
    assert all(v == transform_value(spec, complex(eta)) for eta, v in zip(etas, out))
    reals = np.geomspace(0.05, 20.0, 30)
    out = transform_value(spec, reals)
    assert all(v == transform_value(spec, float(eta)) for eta, v in zip(reals, out))
