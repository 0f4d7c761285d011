import contextlib
import csv
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randmap import cli, dde, exact_enum, laplace, mapping_sim
from randmap._kernels import MAX_WORKERS
from randmap.cli import MAX_DIVISIBILITY_STEPS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestEval:
    def test_rho_at_two(self, capsys):
        code, rec = run_json(capsys, "eval", "--fn", "rho", "--x", "2")
        assert code == 0
        assert rec["values"]["value"] == pytest.approx(0.3068528194400547, rel=1e-10)

    def test_g_requires_theta(self, capsys):
        code, rec = run_json(capsys, "eval", "--fn", "g", "--x", "1.0")
        assert code == 1
        assert "reason" in rec["errors"]

    def test_sigma_tilde(self, capsys):
        code, rec = run_json(capsys, "eval", "--fn", "sigma-tilde", "--x", "2")
        assert code == 0
        assert rec["values"]["value"] == pytest.approx(0.11862641298045697, rel=1e-9)

    @pytest.mark.parametrize("fn", ["rho", "sigma", "sigma-tilde"])
    def test_nan_argument_is_range_error(self, capsys, fn):
        code, rec = run_json(capsys, "eval", "--fn", fn, "--x", "nan")
        assert code == 1
        assert rec["errors"]["reason"].startswith("EvaluationRangeError")
        assert "value" not in rec["values"]

    def test_tol_is_not_an_option(self):
        # the DDE has one tail tolerance, dde.TAIL_TOL
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--fn", "rho", "--x", "3", "--tol", "1e-9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", [("--fn", "sigma"), ("--fn", "g", "--theta", "0.5"), ("--fn", "sigma-tilde")]
    )
    def test_pole_at_zero_is_error(self, capsys, argv):
        code, rec = run_json(capsys, "eval", *argv, "--x", "0")
        assert code == 1
        assert rec["errors"]["reason"].endswith(
            "is not finite at x = 0.0 (the solution has a pole at x = 0 for theta < 1)"
        )
        assert rec["values"] == {}

    def test_sigma_tilde_below_zero_is_error(self, capsys):
        code, rec = run_json(capsys, "eval", "--fn", "sigma-tilde", "--x", "-1")
        assert code == 1
        assert rec["errors"]["reason"] == (
            "ValueError: sigma-tilde = sqrt(x) sigma(x) needs x >= 0, got -1.0"
        )

    @pytest.mark.parametrize("theta", ["100", "1e5"])
    def test_theta_above_bound_is_error(self, capsys, monkeypatch, theta):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve was started")

        monkeypatch.setattr(dde, "_solve_pieces", no_solve)
        code, rec = run_json(capsys, "eval", "--fn", "g", f"--theta={theta}", "--x", "3.5")
        assert code == 1
        assert rec["errors"]["reason"].startswith(
            f"DdeError: theta-family requires 2e-05 <= theta <= 50.0, got {float(theta)}"
        )

    @pytest.mark.parametrize("theta", ["1.9e-5", "1e-8", "1e-20"])
    def test_theta_below_bound_is_error(self, capsys, monkeypatch, theta):
        # 1e-8 exited 1 with a misleading ToleranceNotAchievedError, and
        # 1e-20 gave exact zeros on (1, 2]
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve was started")

        monkeypatch.setattr(dde, "_solve_pieces", no_solve)
        code, rec = run_json(capsys, "eval", "--fn", "g", f"--theta={theta}", "--x", "3")
        assert code == 1
        assert rec["errors"]["reason"].startswith(
            f"DdeError: theta-family requires 2e-05 <= theta <= 50.0, got {float(theta)}"
        )

    @pytest.mark.parametrize("theta", ["1e-8", "1e-20"])
    def test_small_theta_inverse_is_error(self, capsys, theta):
        code, rec = run_json(
            capsys, "invlaplace", "--transform", "theta", f"--theta={theta}", "--xi", "3"
        )
        assert code == 1
        assert rec["errors"]["reason"] == (
            "ValueError: theta transform requires finite theta in [2e-05, 50.0], "
            f"got {float(theta)}"
        )


    def test_negative_de_hoog_inverse_is_error(self, capsys):
        # the inverse is positive: this printed -2.57e-17 with exit 0, where
        # the DDE gives 1.22e-17
        code, rec = run_json(
            capsys, "invlaplace", "--transform", "theta", "--theta=2e-5", "--xi", "3.5"
        )
        assert code == 1
        assert rec["errors"]["reason"] == (
            "LaplaceAccuracyError: de Hoog gave -2.57e-17 at xi = 3.5, theta = 2e-05: the "
            "inverse is positive, so the value is below the engine's absolute error"
        )
        assert rec["values"] == {}

    def test_de_hoog_value_lost_to_rounding_is_error(self, capsys):
        # printed 2.2e-16 with exit 0, where rho(20) is 2.5e-29
        code, rec = run_json(capsys, "invlaplace", "--transform", "dickman", "--xi", "20")
        assert code == 1
        assert rec["errors"]["reason"].startswith(
            "LaplaceAccuracyError: de Hoog at xi = 20.0, theta = 1.0 has rounding error estimate"
        )

    @pytest.mark.parametrize("xi", ["64.5", "1e300"])
    def test_theta_family_beyond_the_dde_domain_is_error(self, capsys, xi):
        # 1e300 exited with a bare "ZeroDivisionError: "
        code, rec = run_json(capsys, "invlaplace", "--transform", "dickman", "--xi", xi)
        assert code == 1
        assert rec["errors"]["reason"] == (
            f"SpecfunDomainError: the 'dickman' inverse covers xi <= 64, got {float(xi)}"
        )


class TestCdf:
    def test_perm_cycle(self, capsys):
        code, rec = run_json(capsys, "cdf", "--kind", "perm-cycle", "--a", "0.5")
        assert code == 0
        a = rec["values"]["cdf"]
        code, rec = run_json(capsys, "cdf", "--kind", "perm-cycle", "--a", str(1 / 3))
        b = rec["values"]["cdf"]
        assert a - b == pytest.approx(0.258244431148, abs=1e-9)

    def test_mapping_cycle_regimes(self, capsys):
        code, rec = run_json(
            capsys, "cdf", "--kind", "mapping-cycle", "--b", "0.6842", "--regime", "rayleigh"
        )
        assert code == 0
        assert rec["values"]["cdf"] == pytest.approx(0.5, abs=1e-4)
        code, rec = run_json(
            capsys, "cdf", "--kind", "mapping-cycle", "--b", "1.0", "--regime", "connected"
        )
        assert rec["values"]["cdf"] == pytest.approx(math.erf(1 / math.sqrt(2)), rel=1e-12)

    @pytest.mark.parametrize("r, b, expected", [("2", "0.5", 1.0), ("3", "0", 1.0), ("2", "-1", 0.0)])
    def test_connected_rank_two_has_no_cycle(self, capsys, r, b, expected):
        # a connected mapping has one cycle, so lambda_r = 0 for r >= 2; rank 2
        # at b = 0.5 printed the rank-1 value erf(0.5 / sqrt 2) = 0.3829
        argv = ("cdf", "--kind", "mapping-cycle", "--regime=connected", f"--b={b}", f"--r={r}")
        code, rec = run_json(capsys, *argv)
        assert code == 0
        assert rec["values"]["cdf"] == expected
        code, rec = run_json(capsys, *argv[:-1], "--r=0")
        assert code == 1
        assert rec["errors"]["reason"] == "ValueError: rank must be >= 1, got 0"

    @pytest.mark.parametrize("kind, a", [("perm-cycle", "1e-300"), ("largest-component", "1e-5")])
    def test_a_below_one_64th_names_a(self, capsys, kind, a):
        # the reason named the internal x = 1/a ("x=9.999999999999999e+299
        # outside the solved domain")
        code, rec = run_json(capsys, "cdf", "--kind", kind, "--a", a)
        assert code == 1
        assert rec["errors"]["reason"] == f"SpecfunDomainError: requires a in [1/64, 1], got {float(a)}"

    def test_connected_nan_is_domain_error(self, capsys):
        code, rec = run_json(
            capsys, "cdf", "--kind", "mapping-cycle", "--regime", "connected", "--b", "nan"
        )
        assert code == 1
        assert rec["errors"]["reason"].startswith("SpecfunDomainError")
        assert "cdf" not in rec["values"]

    @pytest.mark.parametrize("kind, arg", [("perm-cycle", "--a=0.5"), ("mapping-cycle", "--b=1")])
    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_rank_below_one_is_error(self, capsys, kind, arg, r):
        code, rec = run_json(capsys, "cdf", "--kind", kind, arg, f"--r={r}")
        assert code == 1
        assert rec["errors"]["reason"] == f"ValueError: rank must be >= 1, got {r}"

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "-1", "1e300"])
    def test_pavlov_c_must_be_finite_and_nonnegative(self, capsys, c):
        code, rec = run_json(
            capsys, "cdf", "--kind", "mapping-cycle", "--b=1", "--regime=pavlov", f"--c={c}"
        )
        assert code == 1
        assert rec["errors"]["reason"].startswith("ValueError: pavlov regime requires finite c")
        assert rec["values"] == {}

    def test_pavlov_needs_c(self, capsys):
        code, rec = run_json(
            capsys, "cdf", "--kind", "mapping-cycle", "--b", "1.0", "--regime", "pavlov"
        )
        assert code == 1


# NaN, both infinities, signed zeros, a negative number, subnormals, ordinary
# values and numbers near the top of the float range
EDGE_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310,
     1e-9, 0.6842, 4.0, 1e300, 1.7976931348623157e308]
)
# (kind, regime) pairs: every kind, and every regime of the mapping law
CDF_CASES = [("perm-cycle", None), ("largest-component", None), ("mapping-cycle", None)] + [
    ("mapping-cycle", g) for g in ("rayleigh", "halfnormal", "pavlov", "connected")
]


@pytest.fixture(scope="module")
def warm_solutions():
    # solve once, so every example's deadline times evaluation alone
    for r in (1, 2, 3, 4):
        dde.dickman_solution(r)
    dde.watterson_solution()


class TestCdfProperty:
    @settings(max_examples=300, deadline=2000, derandomize=True)
    @given(
        case=st.sampled_from(CDF_CASES),
        r=st.sampled_from((None, 1, 2, 3, 4)),
        c=st.one_of(st.none(), st.floats(0.0, 1e5)),  # the whole accepted range
        x=st.one_of(EDGE_FLOATS, st.floats()),
    )
    def test_finite_cdf_or_documented_error(self, warm_solutions, case, r, c, x):
        kind, regime = case
        argv = ["cdf", "--kind", kind, f"--{'b' if kind == 'mapping-cycle' else 'a'}={x!r}"]
        if regime is not None:
            argv.append(f"--regime={regime}")
        if r is not None:
            argv.append(f"--r={r}")
        if c is not None:
            argv.append(f"--c={c!r}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        rec = json.loads(buf.getvalue())
        if code == 0:
            cdf = rec["values"]["cdf"]
            assert isinstance(cdf, float) and 0.0 <= cdf <= 1.0, (argv, cdf)
            assert "errors" not in rec
        else:
            assert code == 1, argv
            assert rec["errors"]["reason"], argv
            assert rec["values"] == {}


class TestEvalProperty:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=3000, derandomize=True)
    @given(
        fn=st.sampled_from(("rho", "sigma", "sigma-tilde", "rho-r", "g")),
        x=st.one_of(EDGE_FLOATS, st.floats()),
        r=st.sampled_from((None, -1, 0, 1, 2, 3, 4)),
        theta=st.one_of(st.none(), EDGE_FLOATS, st.floats(0.0, 10.0)),
    )
    def test_finite_value_or_documented_error(self, warm_solutions, fn, x, r, theta):
        argv = ["eval", f"--fn={fn}", f"--x={x!r}"]
        for name, value in (("r", r), ("theta", theta)):
            if value is not None:
                argv.append(f"--{name}={value!r}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        rec = json.loads(buf.getvalue())
        if code == 0:
            value = rec["values"]["value"]
            assert isinstance(value, float) and math.isfinite(value), (argv, value)
            assert value >= 0.0, (argv, value)
            assert "errors" not in rec
        else:
            assert code == 1, argv
            assert rec["errors"]["reason"], argv
            assert rec["values"] == {}


def _finite_value_or_documented_error(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    rec = json.loads(buf.getvalue())
    if code == 0:
        value = rec["values"]["value"]
        assert isinstance(value, float) and math.isfinite(value), (argv, value)
        assert "errors" not in rec
    else:
        assert code == 1, argv
        assert rec["errors"]["reason"], argv
        assert rec["values"] == {}


def _invlaplace_argv(transform, method, xi, b, theta):
    argv = ["invlaplace", f"--transform={transform}", f"--xi={xi!r}"]
    for name, value in (("method", method), ("b", b), ("theta", theta)):
        if value is not None:
            argv.append(f"--{name}={value!r}" if name != "method" else f"--method={value}")
    return argv


class TestInvlaplaceProperty:
    """Every transform and method on edge and arbitrary --xi, --b, --theta.

    The Talbot and line engines take milliseconds, so they get many
    examples; the de Hoog engines (the theta family, and cycle-cdf on the
    Bromwich override) take up to about a second each, so they get few.
    """

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=3000, derandomize=True)
    @given(
        transform=st.sampled_from(("cycle-cdf", "erfc-gauss", "halfnormal", "rayleigh")),
        method=st.sampled_from((None, "talbot", "bromwich")),
        xi=st.one_of(EDGE_FLOATS, st.floats()),
        b=st.one_of(st.none(), EDGE_FLOATS, st.floats()),
    )
    def test_talbot_and_line(self, transform, method, xi, b):
        if transform == "cycle-cdf" and method == "bromwich":
            method = "talbot"  # the Bromwich override runs de Hoog: see below
        _finite_value_or_documented_error(_invlaplace_argv(transform, method, xi, b, None))

    @settings(max_examples=100, deadline=10000, derandomize=True)
    @given(
        transform=st.sampled_from(("dickman", "watterson", "theta", "cycle-cdf")),
        method=st.sampled_from((None, "talbot", "bromwich")),
        xi=st.one_of(EDGE_FLOATS, st.floats()),
        b=st.one_of(EDGE_FLOATS, st.floats()),
        theta=st.one_of(st.none(), EDGE_FLOATS, st.floats()),
    )
    def test_de_hoog(self, transform, method, xi, b, theta):
        if transform == "cycle-cdf":
            method = "bromwich"
        _finite_value_or_documented_error(_invlaplace_argv(transform, method, xi, b, theta))


def _finite_record_or_documented_error(argv):
    """A success has finite numbers only; a failure exits 1 with a reason."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    rec = json.loads(buf.getvalue())
    if code == 0:
        numbers = [*rec["values"].values(), *rec.get("errors", {}).values()]
        assert numbers, argv
        assert all(isinstance(v, float) and math.isfinite(v) for v in numbers), (argv, rec)
    else:
        assert code == 1, argv
        assert rec["errors"]["reason"], argv
        assert rec["values"] == {}


class TestSmallInputsProperty:
    """constants, simulate, enumerate and divisibility on edge and small
    inputs, each fast enough for many examples."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=3000, derandomize=True)
    @given(
        regime=st.sampled_from(("rayleigh", "halfnormal")),
        cross_rank=st.booleans(),
    )
    def test_constants(self, regime, cross_rank):
        argv = ["constants", f"--regime={regime}"]
        if cross_rank:
            argv.append("--cross-rank")
        _finite_record_or_documented_error(argv)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=3000, derandomize=True)
    @given(
        n=st.one_of(
            st.sampled_from((-1, 0, 1, 2, 3, mapping_sim.MAX_N + 1, 10**12)), st.integers(2, 40)
        ),
        trials=st.one_of(st.sampled_from((-1, 0, 1, 2)), st.integers(1, 40)),
        m=st.one_of(st.sampled_from((None, "connected", "x", "", "1.5")), st.integers(-2, 4)),
        m_is_n=st.booleans(),
        seed=st.sampled_from((0, -1, 7, 2**64, 2**100)),
        workers=st.sampled_from((None, 1, 2, 0)),
    )
    def test_simulate(self, n, trials, m, m_is_n, seed, workers):
        # m_is_n asks for n components: only the identity qualifies, at
        # rate n^-n, so anything past n = 5 is refused before any draw
        if m_is_n and isinstance(m, int):
            m = n
        constraint = m if m in (None, "connected") else f"components={m}"
        argv = ["simulate", f"--n={n}", f"--trials={trials}", f"--seed={seed}"]
        if constraint is not None:
            argv.append(f"--constraint={constraint}")
        if workers is not None:
            argv.append(f"--workers={workers}")
        _finite_record_or_documented_error(argv)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=5000, derandomize=True)
    @given(
        n=st.sampled_from((-1, 0, 1, 2, 3, 4, 5, 8, 10**9)),
        check_egf=st.booleans(),
    )
    def test_enumerate(self, n, check_egf):
        argv = ["enumerate", f"--n={n}"]
        if check_egf:
            argv.append("--check-egf")
        _finite_record_or_documented_error(argv)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=3000, derandomize=True)
    @given(
        bounds=st.one_of(
            st.lists(st.floats(1e-6, 1.1e3), min_size=2, max_size=2, unique=True).map(sorted),
            st.tuples(st.one_of(EDGE_FLOATS, st.floats()), st.one_of(EDGE_FLOATS, st.floats())),
        ),
        steps=st.one_of(
            st.integers(2, 200), st.sampled_from((-1, 0, 1, 2, 3, MAX_DIVISIBILITY_STEPS + 1))
        ),
    )
    def test_divisibility(self, bounds, steps):
        lo, hi = bounds
        argv = ["divisibility", f"--eta-min={lo!r}", f"--eta-max={hi!r}", f"--steps={steps}"]
        _finite_record_or_documented_error(argv)


class TestConstants:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tol_not_positive_is_error(self, tol):
        # --tol is no longer an option, so every value, these included, is
        # refused by the parser
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--regime", "halfnormal", f"--tol={tol}"])
        assert exc.value.code == 2

    def test_tol_is_not_an_option(self):
        # the G(r, h) quadrature has fixed panels and a fixed rule; --tol was
        # only checked for sign
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--regime", "rayleigh", "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_rayleigh_table(self, capsys):
        code, rec = run_json(capsys, "constants", "--regime", "rayleigh")
        assert code == 0
        vals = rec["values"]
        assert vals["mean_1"] == pytest.approx(0.78248160099165661501, abs=1e-9)
        assert vals["mean_4"] == pytest.approx(0.05056118481134243184, abs=1e-9)
        assert vals["corr_n_1"] == pytest.approx(0.83298010, abs=1e-6)
        assert vals["mode"] == pytest.approx(0.4809, abs=1e-3)
        assert vals["median"] == pytest.approx(0.6842, abs=5e-4)

    def test_implausible_table_is_error(self, capsys, monkeypatch):
        # a failed table check is a computation error with a record, not a
        # traceback, and python -O keeps it
        from randmap import moments

        monkeypatch.setattr(moments, "g_constant", lambda r, h, tol=1e-12: 1.0)
        code, rec = run_json(capsys, "constants", "--regime", "rayleigh")
        assert code == 1
        assert rec["errors"]["reason"].startswith(
            "RuntimeError: means must be positive and decreasing in rank"
        )
        assert rec["values"] == {}


class TestInvlaplace:
    def test_erfc_gauss(self, capsys):
        code, rec = run_json(
            capsys, "invlaplace", "--transform", "erfc-gauss", "--xi", "1.0"
        )
        assert code == 0
        assert rec["values"]["value"] == pytest.approx(math.exp(-math.pi / 4), abs=1e-9)

    def test_method_mismatch_is_computation_error(self, capsys):
        code, rec = run_json(
            capsys,
            "invlaplace",
            "--transform",
            "erfc-gauss",
            "--xi",
            "1.0",
            "--method",
            "talbot",
        )
        assert code == 1
        assert "MethodMismatchError" in rec["errors"]["reason"]

    @pytest.mark.parametrize("xi", ["1e6", "1e300"])
    def test_huge_xi_on_the_line_is_error_before_any_node(self, capsys, monkeypatch, xi):
        def no_nodes(*args, **kwargs):
            raise AssertionError("line nodes were built")

        monkeypatch.setattr(laplace._quad, "gl_panels", no_nodes)
        code, rec = run_json(capsys, "invlaplace", "--transform", "erfc-gauss", "--xi", xi)
        assert code == 1
        reason = rec["errors"]["reason"]
        assert reason.startswith("ValueError: the Bromwich line at xi")
        assert f"more than LINE_MAX_PANELS = {laplace.LINE_MAX_PANELS}" in reason

    def test_line_value_lost_to_the_restored_terms_is_error(self, capsys):
        # the restored terms reach 1.6e6 and the value 7.8e-35: the error
        # would be 2.1e-9, above LINE_MAX_ROUNDING
        code, rec = run_json(capsys, "invlaplace", "--transform", "erfc-gauss", "--xi", "10")
        assert code == 1
        assert rec["errors"]["reason"].startswith(
            "LaplaceAccuracyError: the Bromwich line at xi = 10.0 has rounding error estimate"
        )

    def test_line_rounding_is_error(self, capsys):
        code, rec = run_json(capsys, "invlaplace", "--transform", "rayleigh", "--xi", "20")
        assert code == 1
        assert rec["errors"]["reason"].startswith(
            "LaplaceAccuracyError: the Bromwich line at xi = 20.0 has rounding error estimate"
        )

    @pytest.mark.parametrize("xi", ["nan", "inf", "0", "-1"])
    def test_xi_not_finite_positive_is_error(self, capsys, xi):
        code, rec = run_json(capsys, "invlaplace", "--transform", "halfnormal", "--xi", xi)
        assert code == 1
        assert rec["errors"]["reason"].startswith("SpecfunDomainError: invert requires finite xi > 0")


class TestSimulateAndEnumerate:
    def test_simulate_deterministic(self, capsys):
        args = ("simulate", "--n", "64", "--trials", "200", "--seed", "5", "--quiet")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_wall_time_only_varies(self, capsys):
        args = ("simulate", "--n", "32", "--trials", "100", "--seed", "9")
        _, rec1 = run_json(capsys, *args)
        _, rec2 = run_json(capsys, *args)
        rec1.pop("wall_time_s")
        rec2.pop("wall_time_s")
        assert rec1 == rec2

    def test_enumerate_with_egf_check(self, capsys):
        code, rec = run_json(capsys, "enumerate", "--n", "2", "--check-egf")
        assert code == 0
        assert rec["values"]["total"] == 4.0
        assert rec["values"]["connected_count"] == 3.0
        assert rec["values"]["egf_match"] == 1.0

    @pytest.mark.parametrize("cell", [(1, 0), (0, 0), (0, 3)])
    def test_egf_check_reads_the_zero_row_and_column(self, capsys, monkeypatch, cell):
        # one mapping moved from a(1, 3) into a cell that must hold 0: two
        # cells differ from the counting series, and the check sees both
        enumerate_all = exact_enum.enumerate_all

        def misplaced(n):
            t = enumerate_all(n)
            counts = t.counts.copy()
            counts[1, 3] -= 1
            counts[cell] += 1
            return exact_enum.ExactTables(n, counts, t.joint, t.connected_count)

        monkeypatch.setattr(exact_enum, "enumerate_all", misplaced)
        code, rec = run_json(capsys, "enumerate", "--n", "3", "--check-egf")
        assert code == 0
        assert rec["values"]["total"] == 27.0
        assert rec["values"]["egf_match"] == 0.0
        assert rec["values"]["egf_mismatch_cells"] == 2.0

    @pytest.mark.parametrize("workers", ["0", "-4", str(MAX_WORKERS + 1)])
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n=64", "--trials=10", "--seed=1"),
            # the connected path sizes its attempt budget per worker
            ("simulate", "--n=64", "--trials=10", "--seed=1", "--constraint=connected"),
        ],
    )
    def test_workers_out_of_range_is_error(self, capsys, monkeypatch, argv, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(mapping_sim, "ThreadPoolExecutor", no_pool)
        code, rec = run_json(capsys, *argv, f"--workers={workers}")
        assert code == 1
        assert rec["errors"]["reason"] == (
            f"ValueError: workers must lie in [1, {MAX_WORKERS}], got {workers}"
        )

    @pytest.mark.parametrize("value", ["2", "", "abc"])
    def test_environment_does_not_change_a_simulate_result(self, capsys, monkeypatch, value):
        # this variable once set the default worker count, and so the
        # Philox stream of each trial, without showing in the record
        variable = f"{cli.__package__.upper()}_WORKERS"
        argv = ("simulate", "--n=200", "--trials=50", "--seed=1")
        monkeypatch.delenv(variable, raising=False)
        stats = mapping_sim.simulate(200, 50, seed=1)
        code, rec = run_json(capsys, *argv, "--quiet")
        monkeypatch.setenv(variable, value)
        assert mapping_sim.simulate(200, 50, seed=1) == stats and stats.workers == 1
        assert run_json(capsys, *argv, "--quiet") == (code, rec) and code == 0
        code, rec = run_json(capsys, *argv)
        assert code == 0 and rec["params"]["workers"] == 1

    @pytest.mark.parametrize(
        "n, m, reason",
        [
            ("3", "50", "a mapping of size 3 has at most 3 components, not 50"),
            ("2", "5", "a mapping of size 2 has at most 2 components, not 5"),
            ("20", "20", "components=20 at n = 20 has expected acceptance 9.5e-27"),
            ("10", "10", "components=10 at n = 10 has expected acceptance 1.0e-10"),
        ],
    )
    def test_simulate_unmeetable_constraint_is_error(self, capsys, monkeypatch, n, m, reason):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(mapping_sim._kernels, "batch_stats", no_batch)
        code, rec = run_json(
            capsys, "simulate", f"--n={n}", "--trials=1", f"--constraint=components={m}", "--seed=1"
        )
        assert code == 1
        assert rec["errors"]["reason"].startswith(f"ValueError: {reason}")

    @pytest.mark.parametrize("n", [str(mapping_sim.MAX_N + 1), "1000000000000"])
    def test_simulate_n_above_bound_is_error(self, capsys, monkeypatch, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(mapping_sim, "_worker_run", no_draw)
        code, rec = run_json(capsys, "simulate", f"--n={n}", "--trials=1", "--seed=1")
        assert code == 1
        assert rec["errors"]["reason"] == (
            f"ValueError: n must lie in [2, {mapping_sim.MAX_N}], got {n}"
        )

    def test_simulate_trials_above_bound_is_error(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(mapping_sim, "_worker_run", no_draw)
        code, rec = run_json(capsys, "simulate", "--n=10000", "--trials=1000001", "--seed=1")
        assert code == 1
        assert rec["errors"]["reason"] == (
            "ValueError: 1000001 trials at n = 10000 draw about 1.0e+10 nodes "
            "(trials * n / expected acceptance), above MAX_DRAWN_NODES = 1e+10"
        )

    def test_memory_error_is_computation_error(self, capsys, monkeypatch):
        reason = "Unable to allocate 16.0 GiB for an array with shape (1, 2147483647)"

        def out_of_memory(*args, **kwargs):
            raise MemoryError(reason)

        monkeypatch.setattr(mapping_sim, "_worker_run", out_of_memory)
        code, rec = run_json(capsys, "simulate", "--n=64", "--trials=10", "--seed=1")
        assert code == 1
        assert rec["errors"]["reason"] == f"MemoryError: {reason}"
        assert rec["values"] == {}

    def test_enumerate_takes_no_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n=3", "--workers=2"])
        assert exc.value.code == 2

    def test_enumerate_size_error(self, capsys):
        code, rec = run_json(capsys, "enumerate", "--n", "9")
        assert code == 1


class TestDivisibility:
    def test_report(self, capsys):
        code, rec = run_json(
            capsys,
            "divisibility",
            "--eta-min",
            "0.05",
            "--eta-max",
            "10",
            "--steps",
            "32",
        )
        assert code == 0
        vals = rec["values"]
        assert vals["bounds_strict"] == 1.0
        assert vals["max_approx_rel_err"] < 0.005
        assert vals["m2_root_ratio"] >= 5.0

    @pytest.mark.parametrize(
        "lo, hi", [("nan", "20"), ("0.1", "inf"), ("-inf", "2"), ("0.1", "nan"), ("2", "1")]
    )
    def test_bounds_must_be_finite_and_ordered(self, capsys, lo, hi):
        code, rec = run_json(
            capsys, "divisibility", f"--eta-min={lo}", f"--eta-max={hi}", "--steps=10"
        )
        assert code == 1
        assert rec["errors"]["reason"] == "ValueError: need finite 0 < eta-min < eta-max"

    @pytest.mark.parametrize("hi", ["1000.0000000000001", "1e200", "1e300"])
    def test_eta_above_bound_is_error(self, capsys, hi):
        # the reported approximation error was 2.2x the true one at 1e4 and
        # "inf" at 1e200; at 1e300 erfcx warned of an overflow
        code, rec = run_json(capsys, "divisibility", "--eta-min=1", f"--eta-max={hi}", "--steps=2")
        assert code == 1
        assert rec["errors"]["reason"] == (
            "SpecfunDomainError: eta grid must lie below DIVISIBILITY_MAX_ETA = 1e3"
        )
        code, rec = run_json(capsys, "divisibility", "--eta-min=1", "--eta-max=1000", "--steps=2")
        assert code == 0 and rec["values"]["bounds_strict"] == 1.0

    @pytest.mark.parametrize("lo", ["1e-12", "9.99e-7"])
    def test_eta_below_bound_is_error(self, capsys, lo):
        # the bound chain holds for every eta > 0, yet at 1e-12 the record
        # reported bounds_strict 0.0: double precision breaks it below 1e-7
        argv = ("divisibility", "--eta-max=20", "--steps=50")
        code, rec = run_json(capsys, *argv, f"--eta-min={lo}")
        assert code == 1
        assert rec["errors"]["reason"] == (
            "SpecfunDomainError: eta grid must lie above DIVISIBILITY_MIN_ETA = 1e-6"
        )
        code, rec = run_json(capsys, *argv, "--eta-min=1e-6")
        assert code == 0 and rec["values"]["bounds_strict"] == 1.0

    @pytest.mark.parametrize("steps", [1, MAX_DIVISIBILITY_STEPS + 1, 10**15])
    def test_steps_out_of_range_is_error_before_the_grid(self, capsys, monkeypatch, steps):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        code, rec = run_json(
            capsys, "divisibility", "--eta-min=0.1", "--eta-max=2", f"--steps={steps}"
        )
        assert code == 1
        assert rec["errors"]["reason"] == (
            f"ValueError: need 2 <= steps <= {MAX_DIVISIBILITY_STEPS}"
        )


class TestFormats:
    def test_csv_and_json_encode_same_numbers(self, capsys):
        code, js = run_json(capsys, "eval", "--fn", "rho", "--x", "2.5")
        code2, out = run_cli(capsys, "eval", "--fn", "rho", "--x", "2.5", "--format", "csv")
        assert code == code2 == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "value"]
        table = {r[0]: r[1] for r in rows[1:]}
        assert float(table["value"]) == js["values"]["value"]

    @pytest.mark.parametrize(
        "argv, key, text, exit_code",
        [
            (("cdf", "--kind", "mapping-cycle", "--b", "nan"), "b", "nan", 1),
            (("eval", "--fn", "rho", "--x", "inf"), "x", "inf", 1),
            (("eval", "--fn", "rho", "--x=-inf"), "x", "-inf", 0),
        ],
    )
    def test_non_finite_arguments_give_strict_json(self, capsys, argv, key, text, exit_code):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out = run_cli(capsys, *argv)
        rec = json.loads(out, parse_constant=reject)
        assert code == exit_code
        assert rec["params"][key] == text
        assert ("reason" in rec.get("errors", {})) == (exit_code == 1)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cdf", "--kind", "nope"])
        assert exc.value.code == 2


# The exact stdout and exit code of a success, an error and a simulate record
# (which carries errors and seed), as JSON and CSV, with and without --quiet;
# wall_time_s is written as <wall>
with open(os.path.join(os.path.dirname(__file__), "data", "cli_records.json")) as fh:
    RECORDS = json.load(fh)
_WALL_TIME = re.compile(r'(?<=wall_time_s": )[0-9.e+-]+|(?<=wall_time_s,)[0-9.e+-]+')


@pytest.mark.parametrize("argv", sorted(RECORDS))
def test_record_bytes(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    walls = _WALL_TIME.findall(out)
    assert len(walls) == (0 if "--quiet" in argv else 1)
    assert all(float(w) >= 0.0 for w in walls)
    assert code == RECORDS[argv]["exit"]
    assert _WALL_TIME.sub("<wall>", out) == RECORDS[argv]["stdout"]
