"""Time the NumPy kernels, simulation, the analytic layer and cold starts.

Usage:
    python benchmarks/bench_kernels.py [--quick]

Times the batch analyzer and its count-only pass (the rejection filter of
constrained simulation) across problem sizes (from enumeration-sized rows
of 6 up to 10^4), the exact enumerator (`enumerate_all` at n = 5, 6
and 7, with the n * n! rows each analyzes), and
an end-to-end simulate() call.
A last section times uncached DDE solves (rank 1 and 2, theta = 1/2 and
1.5), then the analytic layer on warm (already solved) DDE solutions:
scalar rho on the head, the closed-form segment and the Chebyshev
body, one 1000-point vector evaluation, the mixture CDF of the longest cycle
(rayleigh at five b, and pavlov c = 10 on its window split at the mode),
the scalar point calls (the joint density at ranks 1 and 3, the
permutation CDF at rank 2 and the largest-component CDF on the sigma
segment), the rank-1 mode, one
uncached cross-rank moment, one de Hoog inversion, one Bromwich line
inversion of each erfc-family transform at xi = 1.5, the truncated CDF
series at a = 1/16 of each kind from a cleared E^k tower, and the
divisibility report on the README's grid with its 16 forward transforms.
The cold-start section runs ``import randmap`` and each cheap README command
in a fresh interpreter (best of 5 wall times), once with randmap's modules
compiled from source and once from cached bytecode, each time in a
temporary bytecode cache outside the tree, and lists the randmap modules
and which of scipy, scipy.special, scipy.optimize and mpmath each loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import randmap
from randmap import _kernels, exact_enum


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
    # enumerate_all analyzes n * n! canonical rows for the n^n mappings
    print(f"{'exact enumeration':<28}{'n':>16}{'best time':>14}{'rows':>10}")
    for n in (5, 6, 7):
        t = _time(lambda: exact_enum.enumerate_all(n), repeats=3 if quick else 5)
        print(f"{'':<28}{n:>16}{t * 1e3:>11.2f} ms{n * math.factorial(n):>10}")


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
        (dde.solve_generalized_dickman, "rank", 1),
        (dde.solve_generalized_dickman, "rank", 2),
        (dde.solve_theta_dde, "theta", 0.5),
        (dde.solve_theta_dde, "theta", 1.5),
    ]
    for solve, name, value in solves:
        t = _time(lambda: solve(value), repeats=5)
        print(f"{solve.__name__:<28}{f'{name}={value}':>16}{t * 1e3:>11.3f} ms")
    for x in (0.5, 1.5, 10.3):
        t = _time(lambda: rho(x), repeats=5, number=number)
        print(f"{'rho(x) scalar':<28}{'x=%g' % x:>16}{t * 1e6:>11.1f} us")
    xs = np.linspace(0.5, 60.0, 1000)
    t = _time(lambda: rho(xs), repeats=5, number=number)
    print(f"{'rho(x) vector':<28}{'1000 points':>16}{t * 1e3:>11.3f} ms")
    for b in (0.01, 0.02, 0.1, 0.6842, 4.0):
        t = _time(lambda: distributions.mapping_longest_cycle_cdf(b), repeats=5, number=number)
        print(f"{'mapping_longest_cycle_cdf':<28}{'b=%g' % b:>16}{t * 1e3:>11.3f} ms")
    # a pavlov window split at the mode sqrt(20), past the rayleigh window
    pavlov = distributions.Regime.pavlov(10.0)
    t = _time(lambda: distributions.mapping_longest_cycle_cdf(1.0, 1, pavlov), repeats=5, number=number)
    print(f"{'mapping_longest_cycle_cdf':<28}{'c=10 b=1':>16}{t * 1e3:>11.3f} ms")
    # the scalar point calls: one density and one or two solution floats each
    point = distributions.JointPoint(lam=0.4, nu=1.7)
    for r in (1, 3):
        t = _time(lambda: distributions.joint_density(point, r), repeats=5, number=50 * number)
        print(f"{'joint_density':<28}{f'r={r} nu/lam=4.25':>16}{t * 1e6:>11.1f} us")
    t = _time(lambda: distributions.perm_longest_cycle_cdf(0.2, 2), repeats=5, number=50 * number)
    print(f"{'perm_longest_cycle_cdf':<28}{'a=0.2 r=2':>16}{t * 1e6:>11.1f} us")
    t = _time(lambda: distributions.largest_component_cdf(0.7), repeats=5, number=50 * number)
    print(f"{'largest_component_cdf':<28}{'a=0.7':>16}{t * 1e6:>11.1f} us")
    t = _time(lambda: moments.mode_lambda1(), repeats=5)
    print(f"{'mode_lambda1':<28}{'rayleigh':>16}{t * 1e3:>11.3f} ms")
    # __wrapped__ skips the lru_cache, so every call integrates
    t = _time(lambda: moments.cross_rank_moment.__wrapped__(1, 2), repeats=5)
    print(f"{'cross_rank_moment':<28}{'(1,2)':>16}{t * 1e3:>11.3f} ms")
    dickman = laplace.TransformSpec(id="dickman")
    t = _time(lambda: laplace.invert(dickman, 4.3), repeats=3)
    print(f"{'de Hoog invert(dickman)':<28}{'xi=4.3':>16}{t * 1e3:>11.3f} ms")
    for tid in ("halfnormal", "rayleigh", "erfc-gauss"):
        spec = laplace.TransformSpec(id=tid)
        t = _time(lambda: laplace.invert(spec, 1.5), repeats=5, number=number)
        print(f"{'line invert(' + tid + ')':<28}{'xi=1.5':>16}{t * 1e3:>11.3f} ms")
    for kind in ("permutation", "component"):
        def cold_series():
            dde._tower_level.cache_clear()  # every level is built again
            laplace.truncated_cdf_series(1.0 / 16.0, kind)

        t = _time(cold_series, repeats=3)
        print(f"{'truncated_cdf_series cold':<28}{kind + ' a=1/16':>16}{t * 1e3:>11.3f} ms")
    # the README's divisibility grid, whole and its forward transforms alone:
    # the two bound inverses on the report's 8-point log-spaced subset
    grid = np.linspace(0.02, 20.0, 1000)
    t = _time(lambda: laplace.divisibility_report(grid), repeats=3)
    print(f"{'divisibility_report':<28}{'1000 points':>16}{t * 1e3:>11.3f} ms")
    sub = np.geomspace(0.02, 20.0, 8)
    # L^-1[1/sqrt(1 + c eta)], as the report writes them
    bounds = [lambda xi, c=c: np.exp(-xi / c) / np.sqrt(np.pi * c * xi)
              for c in (np.sqrt(np.pi / 2.0), np.sqrt(2.0 / np.pi))]
    t = _time(lambda: [laplace.forward_laplace(f, e, tol=1e-11) for f in bounds for e in sub],
              repeats=3)
    print(f"{'forward_laplace (bounds)':<28}{'16 transforms':>16}{t * 1e3:>11.3f} ms")


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

# Runs one command (or only the import, with no arguments) and prints its
# exit code, the randmap modules it loaded and the heavy modules it loaded.
_COLD_PROBE = f"""
import contextlib, io, json, sys
if sys.argv[1:]:
    from randmap import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    import randmap
    code = 0
print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith("randmap.")),
                  [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def bench_cold_start():
    """Best of 5 fresh processes per command, in two bytecode states.

    Each state gets its own empty PYTHONPYCACHEPREFIX directory, so nothing
    is written into the tree.  One untimed run of every command fills it;
    the timed runs then write nothing.  "no cache" then deletes randmap's
    cached bytecode, so its modules compile from source in every process
    while numpy and the standard library read theirs, as in a checkout run
    with PYTHONDONTWRITEBYTECODE set; "cached" keeps it.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(randmap.__file__)))
    base = dict(os.environ)
    base["PYTHONPATH"] = src + os.pathsep + base.get("PYTHONPATH", "")
    base.pop("PYTHONDONTWRITEBYTECODE", None)
    runs = {"import randmap": []} | {command: command.split() for command in COLD_COMMANDS}

    def probe(argv, env):
        return subprocess.run([sys.executable, "-c", _COLD_PROBE, *argv], env=env,
                              capture_output=True, text=True, check=True)

    best, seen = {}, {}
    for state in ("no cache", "cached"):
        with tempfile.TemporaryDirectory() as prefix:
            env = dict(base, PYTHONPYCACHEPREFIX=prefix)
            for argv in runs.values():
                probe(argv, env)
            if state == "no cache":
                shutil.rmtree(os.path.join(prefix, src.lstrip(os.sep), "randmap"))
            env["PYTHONDONTWRITEBYTECODE"] = "1"
            for command, argv in runs.items():
                times = []
                for _ in range(5):
                    t0 = time.perf_counter()
                    proc = probe(argv, env)
                    times.append(time.perf_counter() - t0)
                best[command, state] = min(times)
                seen[command] = json.loads(proc.stdout)
    print(f"{'cold start (fresh process, best of 5)':<68}{'no cache':>10}{'cached':>10}")
    for command in runs:
        code, modules, heavy = seen[command]
        note = "" if code == 0 else f"  (exit {code})"
        print(f"  {command:<66}{best[command, 'no cache']:>9.2f}s"
              f"{best[command, 'cached']:>9.2f}s{note}")
        print(f"      randmap: {' '.join(modules) or '-'}; heavy: {', '.join(heavy) or '-'}")


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
