"""Time the NumPy kernels, simulation, the analytic layer and cold starts.

Usage:
    python benchmarks/bench_kernels.py [--quick]

Times the batch analyzer and its count-only pass (the rejection filter of
constrained simulation) across problem sizes (from enumeration-sized rows
of 6 up to 10^4), the exact enumerator, and an end-to-end simulate() call.
A last section times uncached DDE solves (rank 1 and 2, theta = 1/2 and
1.5), then the analytic layer on warm (already solved) DDE solutions:
scalar rho on the head, the closed-form segment and the Chebyshev
body, one 1000-point vector evaluation, the mixture CDF of the longest cycle
(rayleigh at four b, and pavlov c = 10 on its window split at the mode),
the largest-component CDF on the sigma segment, the rank-1 mode, one
uncached cross-rank moment, one de Hoog inversion, and the truncated CDF
series at a = 1/16 of each kind from a cleared E^k tower.
The cold-start section runs ``import randmap`` and each cheap README command
in a fresh interpreter (best of 5 wall times) and lists which of scipy,
scipy.special, scipy.optimize and mpmath each one loaded.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

import numpy as np

import randmap
from randmap import _kernels


def _time(fn, repeats=3, number=1):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def bench_batch(quick: bool):
    print(f"{'batch analyze':<28}{'rows x n':>16}{'time':>10}{'counts only':>13}")
    cases = [(2000, 6), (2000, 100), (2000, 1000), (500, 10_000)]
    if not quick:
        cases.append((100, 100_000))
    rng = np.random.default_rng(0)
    for rows, n in cases:
        imgs = rng.integers(0, n, size=(rows, n), dtype=np.int64)
        t = _time(lambda: _kernels.batch_stats(imgs))
        t_counts = _time(lambda: _kernels.component_counts(imgs))
        print(f"{'':<28}{rows:>8} x {n:<6}{t:>9.3f}s{t_counts:>12.3f}s")


def bench_enumerate(quick: bool):
    print(f"{'exact enumeration':<28}{'n':>16}{'time':>10}")
    for n in (5, 6) if quick else (5, 6, 7):
        t = _time(lambda: _kernels.enumerate_tally(n), repeats=1)
        print(f"{'':<28}{n:>16}{t:>9.3f}s")


def bench_simulate(quick: bool):
    from randmap import mapping_sim

    n, trials = (2000, 2000) if quick else (10_000, 5000)
    print(f"{'simulate':<28}{'n x trials':>16}{'time':>10}")
    t = _time(lambda: mapping_sim.simulate(n, trials, seed=1, workers=1), repeats=1)
    print(f"{'':<28}{n:>8} x {trials:<6}{t:>9.2f}s")


def bench_analytic(quick: bool):
    from randmap import dde, distributions, laplace, moments

    number = 20 if quick else 200
    rho = dde.dickman_solution(1)
    for r in (2, 3, 4):
        dde.dickman_solution(r)  # solve outside the timed region
    print(f"{'analytic (warm solutions)':<28}{'case':>16}{'best of 5':>14}")
    # uncached solves; rank 2 reads the warm rank-1 solution
    solves = [
        (dde.solve_generalized_dickman, "generalized-dickman", "rank", 1),
        (dde.solve_generalized_dickman, "generalized-dickman", "rank", 2),
        (dde.solve_theta_dde, "theta-family", "theta", 0.5),
        (dde.solve_theta_dde, "theta-family", "theta", 1.5),
    ]
    for solve, kind, name, value in solves:
        spec = dde.DdeSpec(kind=kind, **{name: value})
        t = _time(lambda: solve(spec), repeats=5)
        print(f"{solve.__name__:<28}{f'{name}={value}':>16}{t * 1e3:>11.3f} ms")
    for x in (0.5, 1.5, 10.3):
        t = _time(lambda: rho(x), repeats=5, number=number)
        print(f"{'rho(x) scalar':<28}{'x=%g' % x:>16}{t * 1e6:>11.1f} us")
    xs = np.linspace(0.5, 60.0, 1000)
    t = _time(lambda: rho(xs), repeats=5, number=number)
    print(f"{'rho(x) vector':<28}{'1000 points':>16}{t * 1e3:>11.3f} ms")
    for b in (0.01, 0.1, 0.6842, 4.0):
        t = _time(lambda: distributions.mapping_longest_cycle_cdf(b), repeats=5, number=number)
        print(f"{'mapping_longest_cycle_cdf':<28}{'b=%g' % b:>16}{t * 1e3:>11.3f} ms")
    # a pavlov window split at the mode sqrt(20), past the rayleigh window
    pavlov = distributions.Regime.pavlov(10.0)
    t = _time(lambda: distributions.mapping_longest_cycle_cdf(1.0, 1, pavlov), repeats=5, number=number)
    print(f"{'mapping_longest_cycle_cdf':<28}{'c=10 b=1':>16}{t * 1e3:>11.3f} ms")
    t = _time(lambda: distributions.largest_component_cdf(0.7), repeats=5, number=number)
    print(f"{'largest_component_cdf':<28}{'a=0.7':>16}{t * 1e6:>11.1f} us")
    t = _time(lambda: moments.mode_lambda1(), repeats=5)
    print(f"{'mode_lambda1':<28}{'rayleigh':>16}{t * 1e3:>11.3f} ms")
    # __wrapped__ skips the lru_cache, so every call integrates
    t = _time(lambda: moments.cross_rank_moment.__wrapped__(1, 2), repeats=5)
    print(f"{'cross_rank_moment':<28}{'(1,2)':>16}{t * 1e3:>11.3f} ms")
    dickman = laplace.TransformSpec(id="dickman")
    t = _time(lambda: laplace.invert(dickman, 4.3), repeats=3)
    print(f"{'de Hoog invert(dickman)':<28}{'xi=4.3':>16}{t * 1e3:>11.3f} ms")
    for kind in ("permutation", "component"):
        def cold_series():
            laplace._level.cache_clear()  # every level is built again
            laplace.truncated_cdf_series(1.0 / 16.0, kind)

        t = _time(cold_series, repeats=3)
        print(f"{'truncated_cdf_series cold':<28}{kind + ' a=1/16':>16}{t * 1e3:>11.3f} ms")


HEAVY = ("scipy", "scipy.special", "scipy.optimize", "mpmath")

# The README's examples apart from simulate and enumerate --n 7, which take
# tens of seconds; enumerate runs at n = 5 instead.
COLD_COMMANDS = (
    "eval --fn rho --x 2",
    "eval --fn g --theta 1.5 --x 3.25",
    "cdf --kind perm-cycle --a 0.5",
    "cdf --kind mapping-cycle --b 0.6842 --regime rayleigh",
    "constants --regime halfnormal",
    "invlaplace --transform erfc-gauss --xi 1",
    "invlaplace --transform cycle-cdf --b 0.5 --xi 2 --method talbot",
    "enumerate --n 5 --check-egf",
    "divisibility --eta-min 0.02 --eta-max 20 --steps 1000",
)

# Runs one command (or only the import, with no arguments) and prints the
# heavy modules it loaded.
_COLD_PROBE = f"""
import contextlib, io, sys
if sys.argv[1:]:
    from randmap import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    import randmap
    code = 0
print(code, *[m for m in {HEAVY!r} if m in sys.modules])
"""


def bench_cold_start():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(randmap.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["RANDMAP_WORKERS"] = "1"
    print(f"{'cold start (fresh process)':<68}{'best of 5':>10}  heavy modules loaded")
    for command in ("import randmap",) + COLD_COMMANDS:
        argv = [] if command == "import randmap" else command.split()
        best, out = float("inf"), ""
        for _ in range(5):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _COLD_PROBE, *argv], env=env,
                                  capture_output=True, text=True, check=True)
            best = min(best, time.perf_counter() - t0)
            out = proc.stdout.split()
        code, loaded = out[0], out[1:]
        note = "" if code == "0" else f"  (exit {code})"
        print(f"  {command:<66}{best:>9.2f}s  {', '.join(loaded) or '-'}{note}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    bench_batch(args.quick)
    print()
    bench_enumerate(args.quick)
    print()
    bench_simulate(args.quick)
    print()
    bench_analytic(args.quick)
    print()
    bench_cold_start()


if __name__ == "__main__":
    main()
