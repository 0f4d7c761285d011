"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest
from oracles import hk_closed_form

from randmap import dde, distributions, laplace, moments
from randmap.distributions import Regime
from randmap.exact_enum import enumerate_all
from randmap.gfseries import a_count
from randmap.laplace import TransformSpec, divisibility_report, invert
from randmap.mapping_sim import simulate


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}: {label} {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


@pytest.fixture(scope="module")
def unconstrained_run():
    # criterion 11 / 12 shared run: n = 10^4, 2*10^4 trials, fixed seed
    return simulate(10_000, 20_000, seed=20240817, cdf_grid=(0.4, 0.6842, 1.0, 1.5))


def test_criterion_01_permutation_interval():
    t0 = time.perf_counter()
    val = distributions.perm_longest_cycle_cdf(0.5) - distributions.perm_longest_cycle_cdf(
        1.0 / 3.0
    )
    elapsed = time.perf_counter() - t0
    ok = abs(val - 0.258244431148) <= 1e-9 and elapsed < 1.0
    _report(1, "rho(2)-rho(3) interval probability", ok, f"value={val:.12f} t={elapsed:.2f}s")


def test_criterion_02_largest_component_probabilities():
    t0 = time.perf_counter()
    p1 = distributions.largest_component_cdf(2.0 / 3.0) - distributions.largest_component_cdf(0.5)
    p2 = distributions.largest_component_cdf(0.5) - distributions.largest_component_cdf(1.0 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(p1 - 0.222894638557) <= 1e-9
        and abs(p2 - 0.110414874191) <= 1e-9
        and elapsed < 5.0
    )
    _report(2, "largest-component interval probabilities", ok, f"{p1:.12f} {p2:.12f} t={elapsed:.2f}s")


def test_criterion_03_moment_tables():
    t0 = time.perf_counter()
    ray = moments.moment_table(Regime.rayleigh(), include_location=False)
    hn = moments.moment_table(Regime.halfnormal(), include_location=False)
    ray_means = [0.78248160099165661501, 0.26267067265131265469, 0.11068781528281010827, 0.05056118481134243184]
    ray_vars = [0.24111407342881901748, 0.04395998473216610374, 0.01233552055537805858, 0.00386619224804518754]
    ray_corr = [0.83298010, 0.65486924, 0.52094617, 0.42505712]
    hn_means = [0.49814325870512904597, 0.16722134383091813637, 0.07046605176920746245, 0.03218824996523203019]
    hn_vars = [0.17854905846627743895, 0.02851495566901143371, 0.00732819205178914862, 0.00217522939296169629]
    hn_corr = [0.89066843, 0.74816251, 0.62190221, 0.52141727]
    worst_mv = 0.0
    worst_corr = 0.0
    for r in (1, 2, 3, 4):
        worst_mv = max(
            worst_mv,
            abs(ray.mean[r] - ray_means[r - 1]),
            abs(ray.variance[r] - ray_vars[r - 1]),
            abs(hn.mean[r] - hn_means[r - 1]),
            abs(hn.variance[r] - hn_vars[r - 1]),
        )
        worst_corr = max(
            worst_corr,
            abs(ray.corr_with_n[r] - ray_corr[r - 1]),
            abs(hn.corr_with_n[r] - hn_corr[r - 1]),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_mv <= 1e-9 and worst_corr <= 1e-6 and elapsed < 60.0
    _report(3, "sixteen moment entries and eight correlations", ok,
            f"worst mean/var err={worst_mv:.2e}, worst corr err={worst_corr:.2e}, t={elapsed:.1f}s")


def test_criterion_04_mode_and_medians():
    t0 = time.perf_counter()
    mode = moments.mode_lambda1(Regime.rayleigh())
    med_ray = moments.median_lambda(1, Regime.rayleigh())
    med_hn = moments.median_lambda(1, Regime.halfnormal())
    elapsed = time.perf_counter() - t0
    ok = (
        abs(mode - 0.4809) <= 1e-3
        and abs(med_ray - 0.6842) <= 5e-4
        and abs(med_hn - 0.3903) <= 5e-4
        and elapsed < 60.0
    )
    _report(4, "mode and medians", ok,
            f"mode={mode:.5f} medians={med_ray:.5f},{med_hn:.5f} t={elapsed:.1f}s")


def test_criterion_05_connected_constants():
    from scipy.integrate import quad

    dens = lambda x: math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0)
    mean, _ = quad(lambda x: x * dens(x), 0.0, 42.0, limit=300, epsabs=1e-13, epsrel=1e-13)
    second, _ = quad(lambda x: x * x * dens(x), 0.0, 42.0, limit=300, epsabs=1e-13, epsrel=1e-13)
    var = second - mean * mean
    ok = (
        abs(mean - 0.79788456080286535587) <= 1e-12
        and abs(var - 0.36338022763241865692) <= 1e-12
    )
    _report(5, "connected-mapping constants by quadrature", ok, f"mean={mean:.15f} var={var:.15f}")


def test_criterion_06_transform_round_trips():
    t0 = time.perf_counter()
    grid = np.arange(0.25, 6.01, 0.25)
    worst = 0.0
    for theta, spec in (
        (1.0, TransformSpec(id="dickman")),
        (0.5, TransformSpec(id="watterson")),
        (1.5, TransformSpec(id="theta", theta=1.5)),
    ):
        sol = dde.theta_solution(theta)
        for xi in grid:
            worst = max(worst, abs(invert(spec, float(xi)) - sol(float(xi))))
    conv_worst = 0.0
    for xi in (2.5, 3.0, 4.0):
        conv_worst = max(
            conv_worst, abs(dde.tower(2, 1.0, xi) - hk_closed_form(2, xi))
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and conv_worst <= 1e-9
    _report(6, "invert/forward round trips and double convolution", ok,
            f"worst roundtrip={worst:.2e}, worst convolution={conv_worst:.2e}, t={elapsed:.0f}s")


def test_criterion_07_contour_vs_mixture():
    worst = 0.0
    for b in (0.5, 0.6842, 1.0):
        contour = laplace.mapping_cycle_cdf_contour(b)
        mixture = distributions.mapping_longest_cycle_cdf(b, 1, Regime.rayleigh())
        worst = max(worst, abs(contour - mixture))
    ok = worst <= 1e-6
    _report(7, "cycle-CDF contour inversion vs mixture integral", ok, f"worst={worst:.2e}")


def test_criterion_08_divisibility_suite():
    t0 = time.perf_counter()
    report = divisibility_report(np.linspace(0.02, 20.0, 1000))
    rt = max(report["max_roundtrip_err_lower"], report["max_roundtrip_err_upper"])
    elapsed = time.perf_counter() - t0
    ok = (
        report["bounds_strict"] == 1.0
        and report["max_approx_rel_err"] < 0.005
        and rt <= 1e-8
        and report["m2_root_ratio"] >= 5.0
    )
    _report(8, "half-normal divisibility bounds/approximation/probe", ok,
            f"approx={report['max_approx_rel_err']:.2e} roundtrip={rt:.2e} "
            f"ratio={report['m2_root_ratio']:.1f} t={elapsed:.0f}s")


def test_criterion_09_derivative_identity():
    sigma = dde.watterson_solution()
    xs = np.linspace(0.102, 0.898, 100)
    worst = 0.0
    for x in xs:
        f = lambda t: dde.sigma_tilde(sigma, 1.0 / t)
        slope = abs(f(x + 1e-3) - f(x - 1e-3)) / (2e-3 * abs(f(x)))
        d_break = min(abs(x - 1.0 / j) for j in range(2, 12))
        h = max(1e-5, min(2e-3, 0.02 / max(slope, 1.0), 0.05 * d_break))
        deriv = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
        rhs = sigma((1.0 - x) / x) / (2.0 * x**1.5)
        worst = max(worst, abs(deriv - rhs) / abs(rhs))
    ok = worst <= 1e-6
    _report(9, "scaled-solution derivative identity", ok, f"worst rel={worst:.2e}")


def test_criterion_10_egf_vs_enumeration():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(2, 8):
        tables = enumerate_all(n)
        for m in range(1, n + 1):
            for l in range(1, n + 1):
                if tables.a(m, l) != a_count(n, m, l):
                    mismatches.append((n, m, l))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    _report(10, "generating-function counts equal enumeration (n=2..7)", ok,
            f"mismatches={mismatches} t={elapsed:.0f}s")


def test_criterion_11_monte_carlo_agreement(unconstrained_run):
    t0 = time.perf_counter()
    stats = unconstrained_run
    conn = simulate(4096, 5000, constraint="connected", seed=20240818)
    elapsed = time.perf_counter() - t0
    d_mean = abs(stats.mean["lambda1"] - 0.78248)
    d_corr = abs(stats.corr_lambda_n[1] - 0.83298)
    d_conn = abs(conn.mean["lambda1"] - 0.79789)
    ok = d_mean <= 0.03 and d_corr <= 0.03 and d_conn <= 0.03 and elapsed < 600.0
    _report(11, "Monte Carlo means and correlation", ok,
            f"d_mean={d_mean:.4f} d_corr={d_corr:.4f} d_connected={d_conn:.4f} t={elapsed:.0f}s")


def test_criterion_12a_component_count_trend_checks(unconstrained_run):
    # m = 1 trend: P{M=1} sqrt(2n/pi) increases toward 1 over n = 3..7
    vals = []
    for n in range(3, 8):
        t = enumerate_all(n)
        vals.append(t.connected_count / n**n * math.sqrt(2.0 * n / math.pi))
    increasing = all(b > a for a, b in zip(vals, vals[1:])) and vals[-1] < 1.0
    # the documented state of the E(M) asymptotic: the additive gap to
    # (1/2) log n sits near the known constant (log 2 + gamma)/2 = 0.635,
    # and the multiplicative gap shrinks with n
    m_mean = unconstrained_run.mean["components"]
    gap = m_mean - 0.5 * math.log(10_000)
    const = 0.5 * (math.log(2.0) + 0.57721566490153286)
    documented = abs(gap - const) <= 0.1
    ok = increasing and documented
    _report(12, "trend checks (connected-count approach, E(M) second-order gap)", ok,
            f"trend={['%.3f' % v for v in vals]} E(M)-log-gap={gap:.3f} vs {const:.3f}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated +-0.3 window around (1/2) log n is unattainable: E(M) at "
        "n = 10^4 exceeds (1/2) log n by the second-order constant "
        "(log 2 + gamma)/2 = 0.635 > 0.3; see the documented trend check above"
    ),
)
def test_criterion_12b_component_count_window_as_stated(unconstrained_run):
    m_mean = unconstrained_run.mean["components"]
    ok = abs(m_mean - 0.5 * math.log(10_000)) <= 0.3
    _report(12, "E(M) within 0.3 of half log n (as stated)", ok, f"mean M={m_mean:.3f}")
