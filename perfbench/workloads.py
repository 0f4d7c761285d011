"""The four benchmark workloads.

Each workload is a closed loop: one caller, one call at a time, each call
after the previous one returned, every call with ``workers=1``.  A workload
draws its inputs once from the seed; a *round* makes its fixed list of calls
with those inputs, grouped into named *parts*, and the harness repeats rounds
until the run's time is up.  Outputs are checked against independent oracles
outside the timed calls; a call that raises or returns a wrong value counts
as failed.

Every call is timed on its own, and every round repeats the same calls.  On
a shared 2-vCPU virtual machine other tenants slow a core down by up to 1.7x,
in stretches from about a second to minutes, so raw times of one run differ
from the next by up to 50%.  Between calls, at most every CAL_EVERY_S, the harness
therefore also times a fixed probe (small NumPy calls, Python arithmetic and
a sort: the package's own kind of work).  The probes sample the same slow
stretches as the calls, so a part's time is reported as the sum over its
calls of each call's mean over the rounds, rescaled by the probe's mean to
the speed at which the probe takes CAL_REF_S: a time reported as 1 s took
1 s on a machine as fast as the reference.  The raw figures and the probe
times go into the record beside them.

Why these four:

* montecarlo  large rows, so the per-mapping kernel and rejection sampling
              dominate and the analytic layers stay idle.
* exact       the same kernel on tiny rows (per-row overhead), plus the exact
              rational series oracle.  A kernel change that wins at n = 10^4
              but loses at n = 6 shows up here.
* analytic    specfun, DDE evaluation, Laplace inversion, the mixture CDFs
              and the moment constants, with the kernels idle.
* cli-cold    fresh ``python -m randmap.cli`` processes: the only workload
              that pays interpreter start, package import and the CLI layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import reference
import tracing

clock = time.perf_counter
CAL_REF_S = 0.005  # the probe's typical time on a shared 2-vCPU x86-64 VM: the reference speed
CAL_EVERY_S = 0.1  # probe between calls at most this often
_CAL_X = np.linspace(0.1, 3.0, 32)
_CAL_SORT = np.random.default_rng(0).integers(0, 1 << 20, size=200_000)
# the package's lru_caches, looked up before any tracer rebinds their names
CACHES = tracing.find_caches()


def calibration_sample() -> float:
    """Seconds the fixed probe takes now: the machine's current speed."""
    t0 = clock()
    acc = 0.0
    for i in range(300):
        acc += float(np.sum(np.exp(-_CAL_X * (1.0 + i * 1e-3))))
        acc += sum(j * 0.5 for j in range(20))
    np.sort(_CAL_SORT)
    return clock() - t0


def speed_factor(samples) -> float:
    """Multiply a time by this to express it at the reference speed."""
    return CAL_REF_S / statistics.mean(samples)


def tail_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    if len(xs) < 11:
        return None, None
    return 100.0 * (len(xs) - 10) / len(xs), xs[len(xs) - 11]


class Workload:
    """Shared bookkeeping: timed calls, parts, failures and deferred checks."""

    name = ""
    #: what throughput_per_s counts on this workload
    items = ""
    #: name prefix of the parts whose units per second is the headline throughput
    headline = ""

    def __init__(self, seed: int, root: str, tracer=None):
        self.root = root
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)  # draws the run's inputs, once
        self.attempted = 0
        self.failures: list = []
        self.pending: list = []  # (label, value, check) run by finish()
        self.units: dict = {}  # part -> work units per round
        self._calls: dict = {}  # this round: (part, call index) -> seconds
        self._part = None
        self._seq = 0
        self.cal: list = []  # probe times
        self.cal_at: list = []  # when each probe started
        self._last_cal = 0.0

    def calibrate(self, samples: int):
        for _ in range(samples):
            self.cal_at.append(clock())
            self.cal.append(calibration_sample())
        self._last_cal = clock()

    def call(self, label, fn, *args, **kwargs):
        """One timed call at the workload boundary; returns its result or None."""
        self.attempted += 1
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the run goes on; the failure is counted and reported
            out = None
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
        self.record(clock() - t0)
        return out

    def record(self, seconds):
        self._calls[(self._part, self._seq)] = seconds
        self._seq += 1
        if clock() - self._last_cal >= CAL_EVERY_S:
            self.calibrate(1)

    @contextlib.contextmanager
    def part(self, name, units=1):
        """Group the calls made inside into a part (a span when tracing)."""
        self._part, self._seq = name, 0
        self.units[name] = units
        with self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext():
            yield
        self._part = None

    def end_round(self) -> dict:
        calls, self._calls = self._calls, {}
        return calls

    def fail(self, label, why):
        self.failures.append(f"{label}: {why}")

    def expect(self, label, value, check):
        """Queue check(value) -> problem or None; finish() runs the queue untimed."""
        if value is not None:
            self.pending.append((label, value, check))

    def clear_cache(self, name):
        """cache_clear() an lru_cache, banking its statistics with the tracer first."""
        if self.tracer:
            self.tracer.note_clear(name)
        CACHES[name].cache_clear()

    def warm_up(self):
        """Per-process set-up that every run pays before its first round."""

    def finish(self):
        """Run the deferred checks (outside every timed call)."""
        for label, value, check in self.pending:
            problem = check(value)
            if problem:
                self.fail(label, problem)
        self.pending = []

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    def costs(self, rounds, at_reference=True) -> dict:
        """part -> seconds: the sum over its calls of each call's mean over the rounds."""
        k = speed_factor(self.cal) if at_reference else 1.0
        out = defaultdict(float)
        for key in rounds[0]:
            out[key[0]] += k * statistics.mean(r[key] for r in rounds)
        return dict(out)

    def rate(self, costs, prefix) -> float:
        """Units per second over the parts whose names start with prefix."""
        parts = [p for p in costs if p.startswith(prefix)]
        return sum(self.units[p] for p in parts) / sum(costs[p] for p in parts)

    def end_to_end(self, rounds, at_reference=True) -> dict:
        costs = self.costs(rounds, at_reference)
        return {"round_s": sum(costs.values()), "throughput_per_s": self.rate(costs, self.headline)}


def _close(value, expected, tol):
    return None if abs(value - expected) <= tol else f"{value} != {expected} (tol {tol})"


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


class RowSampler:
    """Keeps one seeded row (input and output) of each of the first LIMIT batch_stats calls.

    The cap keeps the run's peak memory independent of how many rounds fit in it.
    """

    LIMIT = 400

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.rows: list = []

    def wrap(self, fn):
        def sampled(images):
            out = fn(images)
            if len(self.rows) < self.LIMIT:
                k = int(self.rng.integers(len(images)))
                self.rows.append((np.array(images[k]), tuple(int(v) for v in out[k])))
            return out

        return sampled


class Montecarlo(Workload):
    name = "montecarlo"
    items = "mappings analyzed per second by unconstrained simulate at n = 10^4"
    headline = "unconstrained"
    N_BIG, TRIALS_BIG = 10_000, 50
    # several connected calls per round, so the seed's luck in rejection
    # (attempts vary by about 1/sqrt(accepted)) averages out of the round
    N_CONN, TRIALS_CONN, CONN_CALLS = 1024, 32, 8

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        from randmap import _kernels, mapping_sim

        self.sim = mapping_sim
        self.kernels = _kernels
        self.seeds = [int(s) for s in self.rng.integers(2**63, size=1 + self.CONN_CALLS)]
        self.attempts = 0
        self.sampler = RowSampler(seed)
        self._original = _kernels.batch_stats
        _kernels.batch_stats = self.sampler.wrap(self._original)

    def warm_up(self):
        self.sim.simulate(64, 8, seed=0, workers=1)
        self.sampler.rows.clear()

    def round(self, i):
        with self.part("unconstrained", self.TRIALS_BIG):
            big = self.call("simulate n=10^4", self.sim.simulate,
                            self.N_BIG, self.TRIALS_BIG, seed=self.seeds[0], workers=1)
        with self.part("connected", self.TRIALS_CONN * self.CONN_CALLS):
            conn = [self.call("simulate connected n=1024", self.sim.simulate,
                              self.N_CONN, self.TRIALS_CONN, constraint="connected",
                              seed=seed, workers=1) for seed in self.seeds[1:]]
        self._check_stats(big, self.TRIALS_BIG, connected=False)
        for stats in conn:
            self._check_stats(stats, self.TRIALS_CONN, connected=True)
        self.attempts = sum(stats.attempts for stats in conn if stats is not None)
        return self.end_round()

    def _check_stats(self, stats, trials, connected):
        label = "connected" if connected else "unconstrained"
        if stats is None:
            return
        means = np.array(list(stats.mean.values()))
        if stats.trials != trials or not np.all(np.isfinite(means)):
            self.fail(label, f"trials {stats.trials}, means {means}")
        if connected and (stats.mean["components"] != 1.0 or not 0 < stats.acceptance_rate < 1):
            self.fail(label, f"components mean {stats.mean['components']}, "
                             f"acceptance {stats.acceptance_rate}")
        if not connected and stats.attempts != trials:
            self.fail(label, f"{stats.attempts} attempts for {trials} unconstrained trials")

    def finish(self):
        super().finish()
        self.kernels.batch_stats = self._original
        for image, row in self.sampler.rows:
            if reference.analyze_row(image) != row:
                self.fail(f"batch_stats row n={len(image)}",
                          f"kernel {row} != reference {reference.analyze_row(image)}")

    def summarize(self, rounds):
        costs = self.costs(rounds)
        return {
            "mc.mappings_per_s": self.rate(costs, "unconstrained"),
            "mc.connected_samples_per_s": self.rate(costs, "connected"),
            "mc.connected_attempts_per_s": self.attempts / costs["connected"],
            "mc.connected_acceptance": self.units["connected"] / self.attempts if self.attempts else 0.0,
            "mc.reference_rows_checked": len(self.sampler.rows),
        }


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


class Exact(Workload):
    name = "exact"
    items = "mappings tallied per second by enumerate_all(6)"
    headline = "enumerate"
    N_ENUM = 6
    N_SERIES = 12

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        from randmap import exact_enum, gfseries

        self.enum = exact_enum
        self.gf = gfseries
        # every a_count(n, m, l) for n <= 12, grouped by n, in a seeded order
        self.sweep = []
        for n in self.rng.permutation(range(1, self.N_SERIES + 1)):
            cells = [(int(n), m, l) for m in range(1, n + 1) for l in range(0, n + 1)]
            self.sweep.append((int(n), [cells[k] for k in self.rng.permutation(len(cells))]))

    def warm_up(self):
        self.enum.enumerate_all(3, workers=1)

    def round(self, i):
        with self.part("enumerate", self.N_ENUM**self.N_ENUM):
            tables = self.call("enumerate_all(6)", self.enum.enumerate_all, self.N_ENUM, workers=1)
        self.clear_cache("gfseries.component_cycle_egf")
        got = {}
        for n, cells in self.sweep:
            with self.part(f"oracle.n{n}", len(cells)):
                for cell in cells:
                    got[cell] = self.call(f"a_count{cell}", self.gf.a_count, *cell)
        self._check(tables, got)
        return self.end_round()

    def _check(self, tables, got):
        n = self.N_ENUM
        for cell, value in got.items():
            if value is not None and value != reference.mapping_count(*cell):
                self.fail(f"a_count{cell}", f"{value} != {reference.mapping_count(*cell)}")
        if tables is None:
            return
        if tables.total() != n**n or tables.connected_count != reference.CONNECTED_COUNTS[n]:
            self.fail("enumerate_all(6)", f"total {tables.total()}, connected {tables.connected_count}")
        bad = [(m, l) for m in range(1, n + 1) for l in range(n + 1)
               if tables.a(m, l) != got.get((n, m, l))]
        if bad:
            self.fail("enumerate_all(6)", f"counts differ from a_count at {bad}")

    def summarize(self, rounds):
        costs = self.costs(rounds)
        return {
            "exact.mappings_per_s": self.rate(costs, "enumerate"),
            "exact.oracle_s": sum(t for p, t in costs.items() if p.startswith("oracle")),
        }


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


def _stratified_log(rng, lo, hi, k):
    """k log-uniform draws on [lo, hi], one per equal-width stratum in log space."""
    u = (np.arange(k) + rng.random(k)) / k
    return [float(b) for b in np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))]


def _stratified(rng, lo, hi, k):
    return [float(x) for x in lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k]


def _cdf_problem(values):
    """Values of one CDF at increasing arguments must lie in [0, 1] and not decrease."""
    if all(0.0 <= v <= 1.0 for v in values) and all(a <= b + 1e-12 for a, b in zip(values, values[1:])):
        return None
    return f"not a CDF along increasing b: {values}"


def _table_problem(table, means, median, mode):
    worst = max(abs(table.mean[r] - means[r - 1]) for r in (1, 2, 3, 4))
    if worst > reference.MEAN_TOL:
        return f"means off by {worst:.2e}"
    if abs(table.median - median[0]) > median[1]:
        return f"median {table.median}"
    if mode and abs(table.mode - mode[0]) > mode[1]:
        return f"mode {table.mode}"
    corr = list(table.cross_rank_corr.values())
    if not all(-1.0 < c < 1.0 for c in corr):
        return f"cross-rank correlations {corr}"
    return None


class Analytic(Workload):
    """Moment tables, CDF and density points, and Laplace transforms.

    The tables are built from the public calls moment_table itself makes
    (g_constant, cross_rank_moment, mode_lambda1, median_lambda, after
    clearing the caches), then assembled by moment_table from the warm
    caches, so each timed call lasts about a second or less.  A round
    interleaves the three step lists part by part, so the short point calls
    are spread over the whole round rather than one slow second of it.
    """

    name = "analytic"
    items = "CDF and density points evaluated per second"
    headline = "points."
    CDF_PER_CASE = 8  # b values per (regime, rank)
    JOINT, PERM, COMPONENT = 100, 50, 50
    TALBOT, LINE_PER_TRANSFORM = 20, 2
    LINE_TRANSFORMS = {
        "erfc-gauss": lambda x: math.exp(-math.pi * x * x / 4.0),
        "halfnormal": lambda x: math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0),
        "rayleigh": lambda x: x * math.exp(-x * x / 2.0),
    }

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        from randmap import dde, distributions, laplace, moments
        from randmap.distributions import JointPoint, Regime

        self.dde, self.dist, self.lap, self.mom = dde, distributions, laplace, moments
        self.regimes = (Regime.rayleigh(), Regime.halfnormal(), Regime.pavlov(1.0))
        rng = self.rng
        self.cdf_cases = [(regime, r, _stratified_log(rng, 0.01, 4.0, self.CDF_PER_CASE))
                          for regime in self.regimes for r in (1, 2, 3, 4)]
        lam = rng.uniform(0.05, 2.0, self.JOINT)
        nu = lam * (1.0 + rng.uniform(0.05, 6.0, self.JOINT))
        self.joint = [(JointPoint(lam=float(x), nu=float(y)), int(r), self.regimes[k])
                      for x, y, r, k in zip(lam, nu, rng.integers(1, 5, self.JOINT),
                                            rng.integers(0, 3, self.JOINT))]
        self.perm = [(float(a), int(r)) for a, r in zip(rng.uniform(0.05, 1.0, self.PERM),
                                                         rng.integers(1, 5, self.PERM))]
        self.component = [float(a) for a in rng.uniform(0.05, 1.0, self.COMPONENT)]
        self.talbot = _stratified_log(rng, 0.05, 5.0, self.TALBOT)
        self.line = [(tid, xi) for tid in self.LINE_TRANSFORMS
                     for xi in _stratified(rng, 0.25, 4.0, self.LINE_PER_TRANSFORM)]
        self.dehoog_xi = float(rng.uniform(2.5, 6.0))
        self.forward_eta = [float(e) for e in rng.uniform(0.5, 3.0, 2)]

    def warm_up(self):
        for r in (1, 2, 3, 4):
            self.dde.dickman_solution(r)
        self.dde.watterson_solution()

    def round(self, i):
        steps = [self._tables(), self._points(), self._transforms()]
        while steps:
            for step in list(steps):
                if next(step, StopIteration) is StopIteration:
                    steps.remove(step)
        return self.end_round()

    def _tables(self):
        mom, (ray_regime, hn_regime, _) = self.mom, self.regimes
        self.clear_cache("moments.g_constant")
        self.clear_cache("moments.cross_rank_moment")
        with self.part("table.g"):
            for r in (1, 2, 3, 4):
                for h in (1, 2):
                    self.call(f"g_constant({r},{h})", mom.g_constant, r, h, 1e-12)
        yield
        for r, s in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            with self.part(f"table.cross.{r}{s}"):
                self.call(f"cross_rank_moment({r},{s})", mom.cross_rank_moment, r, s)
            yield
        with self.part("table.mode"):
            mode = self.call("mode_lambda1", mom.mode_lambda1, ray_regime)
        yield
        medians = []
        for g in (ray_regime, hn_regime):
            with self.part(f"table.median.{g.tag}"):
                medians.append(self.call(f"median_lambda({g.tag})", mom.median_lambda, 1, g))
            yield
        with self.part("table.assemble"):
            ray = self.call("moment_table(rayleigh)", mom.moment_table, ray_regime,
                            include_cross_rank=True, include_location=False)
            hn = self.call("moment_table(halfnormal)", mom.moment_table, hn_regime,
                           include_location=False)
        for table, m, med in ((ray, mode, medians[0]), (hn, 0.0, medians[1])):
            if table is not None:
                table.mode, table.median = m, med
        self.expect("moment_table(rayleigh)", ray, lambda t: _table_problem(
            t, reference.RAYLEIGH_MEANS, reference.RAYLEIGH_MEDIAN, reference.RAYLEIGH_MODE))
        self.expect("moment_table(halfnormal)", hn, lambda t: _table_problem(
            t, reference.HALFNORMAL_MEANS, reference.HALFNORMAL_MEDIAN, None))

    def _points(self):
        dist, dde = self.dist, self.dde
        for regime, r, bs in self.cdf_cases:
            with self.part(f"points.cdf.{regime.tag}.r{r}", len(bs)):
                vals = [self.call("mapping_longest_cycle_cdf", dist.mapping_longest_cycle_cdf,
                                  b, r, regime) for b in bs]
            if None not in vals:
                self.expect(f"mapping_longest_cycle_cdf r={r} {regime.tag}", vals, _cdf_problem)
            yield
        with self.part("points.joint", len(self.joint)):
            vals = [self.call("joint_density", dist.joint_density, p, r, g) for p, r, g in self.joint]
        for (p, _, _), v in zip(self.joint, vals):
            self.expect(f"joint_density at {p}", v,
                        lambda v: None if math.isfinite(v) and v >= 0.0 else f"{v}")
        yield
        with self.part("points.perm", len(self.perm)):
            vals = [self.call("perm_longest_cycle_cdf", dist.perm_longest_cycle_cdf, a, r)
                    for a, r in self.perm]
        for (a, r), v in zip(self.perm, vals):
            if r == 1 and 1.0 / a <= 3.0:  # closed form of rho on [0, 3]
                self.expect(f"perm_longest_cycle_cdf({a})", v,
                            lambda v, x=1.0 / a: _close(v, dde.rho_closed_form(x), 1e-10))
        yield
        with self.part("points.component", len(self.component)):
            vals = [self.call("largest_component_cdf", dist.largest_component_cdf, a)
                    for a in self.component]
        for a, v in zip(self.component, vals):
            if 1.0 / a <= 2.0:  # closed form of sigma on (0, 2]
                self.expect(f"largest_component_cdf({a})", v, lambda v, x=1.0 / a: _close(
                    v, math.sqrt(x) * dde.sigma_closed_form(x), 1e-10))

    def _transforms(self):
        lap, dde, spec = self.lap, self.dde, self.lap.TransformSpec
        with self.part("invert.talbot", len(self.talbot)):
            vals = [self.call("mapping_cycle_cdf_contour", lap.mapping_cycle_cdf_contour, b)
                    for b in self.talbot]
        for b, v in zip(self.talbot, vals):
            self.expect(f"contour vs mixture at b={b}", v, lambda v, b=b: _close(
                v, self.dist.mapping_longest_cycle_cdf(b), 1e-6))
        yield
        with self.part("invert.line", len(self.line)):
            vals = [self.call(f"invert {tid}", lap.invert, spec(id=tid), xi) for tid, xi in self.line]
        for (tid, xi), v in zip(self.line, vals):
            self.expect(f"invert {tid} at {xi}", v,
                        lambda v, y=self.LINE_TRANSFORMS[tid](xi): _close(v, y, 1e-8))
        yield
        xi = self.dehoog_xi
        with self.part("invert.dehoog"):
            v = self.call("invert dickman", lap.invert, spec(id="dickman"), xi)
        self.expect(f"de Hoog invert dickman at {xi}", v,
                    lambda v: _close(v, dde.dickman_solution(1)(xi), 1e-8))
        yield
        rho = dde.dickman_solution(1)
        for (tid, f, kwargs), eta in zip((
            ("dickman", rho, {"xi_max": rho.x_max, "breakpoints": range(1, int(rho.x_max))}),
            ("rayleigh", lambda x: x * np.exp(-x * x / 2.0), {}),
        ), self.forward_eta):
            with self.part(f"forward.{tid}"):
                v = self.call(f"forward_laplace {tid}", lap.forward_laplace, f, eta, **kwargs)
            self.expect(f"forward_laplace {tid} at {eta}", v, lambda v, tid=tid, eta=eta: _close(
                v, lap.transform_value(spec(id=tid), eta), 1e-9))
            yield

    def summarize(self, rounds):
        costs = self.costs(rounds)
        return {
            "analytic.table_s": sum(t for p, t in costs.items() if p.startswith("table.")),
            "analytic.eval_points_per_s": self.rate(costs, "points."),
            "analytic.inversions_per_s": self.rate(costs, "invert."),
            "analytic.forward_s": sum(t for p, t in costs.items() if p.startswith("forward.")),
        }


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

# The README's cheap examples, one per subcommand.  `simulate` and
# `enumerate --n 7` are left to the montecarlo and exact workloads, which
# run them at scale.
CLI_COMMANDS = (
    ("eval", "--fn", "rho", "--x", "2"),
    ("cdf", "--kind", "mapping-cycle", "--b", "0.6842", "--regime", "rayleigh"),
    ("constants", "--regime", "halfnormal"),
    ("invlaplace", "--transform", "cycle-cdf", "--b", "0.5", "--xi", "2", "--method", "talbot"),
    ("divisibility", "--eta-min", "0.02", "--eta-max", "20", "--steps", "1000"),
    ("enumerate", "--n", "5", "--check-egf"),
)

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def randmap_import_s(stderr: str) -> float:
    """Cumulative import time of the top-level randmap package from -X importtime."""
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3) == "" and m.group(4) == "randmap":
            return int(m.group(2)) / 1e6
    return 0.0


class CliCold(Workload):
    name = "cli-cold"
    items = "CLI commands completed per second, each in a fresh process"
    headline = ""  # every command
    TIMEOUT_S = 120

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["RANDMAP_WORKERS"] = "1"
        self.order = [CLI_COMMANDS[k] for k in self.rng.permutation(len(CLI_COMMANDS))]
        self.outputs: dict = {}

    def warm_up(self):
        import randmap.cli  # noqa: F401  (the import every CLI process pays)

    def _run(self, argv):
        cmd = [sys.executable]
        if self.tracer:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "randmap.cli", *argv]
        self.attempted += 1
        start = clock()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        end = clock()
        self.record(end - start)
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            record = None
        if proc.returncode != 0 or record is None or record.get("errors"):
            self.fail(" ".join(argv), f"exit {proc.returncode}, stdout {out[-300:]!r}, "
                                      f"stderr {err[-300:]!r}")
        else:
            self.outputs.setdefault(argv, []).append(record["values"])
        if self.tracer:
            compute = record.get("wall_time_s", 0.0) if record else 0.0
            idx = self.tracer.add_span("cli.process", start, end, {"command": argv[0]})
            self.tracer.add_child(idx, "cli.import", start, start + randmap_import_s(err))
            self.tracer.add_child(idx, "cli.compute", end - compute, end)

    def round(self, i):
        for argv in self.order:
            with self.part(" ".join(argv)):
                self._run(argv)
        return self.end_round()

    def finish(self):
        from randmap import cli

        for argv, seen in self.outputs.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            expect = json.loads(buf.getvalue())["values"]
            if code != 0 or any(v != expect for v in seen):
                self.fail(" ".join(argv), f"process values {seen[0]} != in-process {expect}")

    def summarize(self, rounds):
        times = [t for r in rounds for t in r.values()]
        pct, tail = tail_percentile(times)
        return {
            "cli.cold_p50_s": statistics.median(times),
            "cli.cold_tail_s": tail,
            "cli.cold_tail_percentile": pct,
            "cli.invocations": len(times),
            "cli.round_s": sum(self.costs(rounds).values()),
        }


WORKLOADS = {w.name: w for w in (Montecarlo, Exact, Analytic, CliCold)}
