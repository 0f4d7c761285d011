"""Monte Carlo engine for uniform random mappings.

Sampling is counter-based: worker w draws from a Philox stream keyed by
(seed, w), and trial t is assigned to stream t mod workers, so results are
reproducible for a fixed (seed, workers) pair regardless of scheduling.
Worker 0 runs on the calling thread and workers 1..W-1 on a thread pool,
which starts a thread per submitted worker only; the parts are merged in
worker order.  Images are drawn as int32, which holds the values of an
int64 draw: below 2^32 NumPy's bounded draw takes one 32-bit path for both.
Constrained runs (connected, exactly m components) use rejection: each drawn
block is filtered on its component counts alone (_kernels.component_counts),
and only the accepted rows, in draw order and cut at the worker's remaining
quota, go through the full analysis (_kernels.batch_stats).  The draws, the
accepted rows and the attempt count are those of analyzing every draw.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

__all__ = [
    "Mapping",
    "GraphSummary",
    "SimStats",
    "BudgetExhaustedError",
    "MIN_ACCEPTANCE",
    "MAX_DRAWN_NODES",
    "MAX_N",
    "sample_mapping",
    "analyze",
    "simulate",
    "interplay_estimate",
]

_STAT_NAMES = ("lambda1", "lambda2", "lambda3", "lambda4", "n_cyclic", "components")


# Smallest expected acceptance rate a component constraint may have: below
# it the default attempt budget (10^4 times the expected attempts) is out of
# reach, e.g. components=20 at n = 20 has 20^-20 = 9.5e-27.
MIN_ACCEPTANCE = 1e-6
# Largest n: a worker draws (rows, n) int32 blocks of at most MAX_N entries.
# Its traced peak is 28 bytes a node of one row (112 MB at n = MAX_N), and
# 4.4 bytes a drawn node when n <= 2^16, as the kernel then analyzes the
# block 2^16 nodes at a time; past MAX_N one row would be drawn whole and
# memory would grow with n up to the int32 draws' bound 2^31.
MAX_N = 4_000_000
# Largest expected count of drawn nodes, trials * n / expected acceptance:
# the time bound, as MAX_N is the memory bound.  At about 4e7 nodes a
# second on one core of an x86-64 VM (n = 10^4) it is some 4 minutes.
MAX_DRAWN_NODES = 10**10
_MAX_CYCLES = 512  # |s(l, j)|/l! <= H_l^(j-1)/(j-1)! < 1e-300 above it, l <= 10^20


class BudgetExhaustedError(RuntimeError):
    """Rejection sampling hit its attempt budget before enough acceptances."""


@dataclass(frozen=True)
class Mapping:
    """A function {1..n} -> {1..n}; image[i-1] = f(i), values are 1-based."""

    n: int
    image: np.ndarray

    def __post_init__(self):
        if not _is_integer(self.n, 0):
            raise ValueError(f"n must be an integer >= 0, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        img = np.asarray(self.image, dtype=np.int64)
        object.__setattr__(self, "image", img)
        if img.shape != (self.n,):
            raise ValueError(f"image must have length n={self.n}")
        if img.size and (img.min() < 1 or img.max() > self.n):
            raise ValueError("image entries must lie in [1, n]")


@dataclass(frozen=True)
class GraphSummary:
    """Structural digest of one mapping's functional graph."""

    n: int
    component_count: int
    cyclic_point_count: int
    cycle_lengths: tuple  # descending, one per component
    component_sizes: tuple  # descending
    largest_component_contains_longest_cycle: bool

    def lambda_r(self, r: int) -> int:
        """Length of the r-th longest cycle; 0 when fewer than r cycles.

        An r that is not an integer >= 1 raises ValueError; an integral
        float is taken as that integer.
        """
        if not _is_integer(r, 1):
            raise ValueError(f"r must be an integer >= 1, got {r}")
        r = int(r)
        return self.cycle_lengths[r - 1] if r <= len(self.cycle_lengths) else 0


def _is_integer(value, low=-math.inf) -> bool:
    """Whether value is an integer >= low: an int, or an integral float."""
    return -math.inf < value < math.inf and value >= low and value == int(value)


def _philox(seed, stream: int) -> np.random.Generator:
    # a uint64 key: NumPy reads a list of ints past 2^63 as float64
    key = np.array([int(seed) % 2**64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_mapping(n: int, rng) -> Mapping:
    """Draw a uniform mapping; rng is a numpy Generator or an integer seed.

    An n that is not an integer >= 1, or a seed that is not an integer,
    raises ValueError; an integral float is taken as that integer.
    """
    if not _is_integer(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n}")
    n = int(n)
    if isinstance(rng, np.random.Generator):
        gen = rng
    elif _is_integer(rng):
        gen = _philox(rng, 0)
    else:
        raise ValueError(f"seed must be an integer, got {rng}")
    image = gen.integers(0, n, size=n, dtype=np.int64) + 1
    return Mapping(n=n, image=image)


def analyze(mapping: Mapping) -> GraphSummary:
    """Ranked cycle lengths, component sizes and the largest-component flag,
    computed by the NumPy kernel in randmap._kernels."""
    lengths, sizes, flag = _kernels.analyze_arrays(mapping.image - 1)
    return GraphSummary(
        n=mapping.n,
        component_count=len(lengths),
        cyclic_point_count=int(lengths.sum()),
        cycle_lengths=tuple(int(v) for v in lengths),
        component_sizes=tuple(int(v) for v in sizes),
        largest_component_contains_longest_cycle=bool(flag),
    )


def _required_components(constraint):
    """The component count a constraint requires: None, "none", "connected"
    (1) or "components=m" with an integer m >= 1 ("components=2.0" is m = 2);
    None means unconstrained."""
    if constraint in (None, "none"):
        return None
    if constraint == "connected":
        return 1
    if isinstance(constraint, str) and constraint.startswith("components="):
        try:
            m = float(constraint.split("=", 1)[1])
        except ValueError:
            m = math.nan
        if not _is_integer(m, 1):
            raise ValueError(f"component constraint must be an integer >= 1, got {constraint!r}")
        return int(m)
    raise ValueError(f"unknown constraint {constraint!r}")


@functools.lru_cache
def _expected_acceptance(n: int, m: int | None) -> float:
    """P(M = m), M the component count (the cycles of the permutation of the N
    cyclic points) of a uniform mapping of size n: sum_l P(N = l) |s(l, m)|/l!
    with P(N = l) = (l/n) prod_{i<l} (1 - i/n) and the Stirling recursion in l,
    until P(N > l) < e^(-l^2/2n) is below 1e-17 of the sum or 1e-300: O(sqrt(n))
    steps of O(min(m, 512)) work, subnormals flushed to 0.  Cached per (n, m),
    as every constrained simulate call at a size needs the same value."""
    if m is None or m > _MAX_CYCLES:
        return 1.0 if m is None else 0.0
    q = np.zeros(m + 1)
    q[1] = 1.0  # q_1: a permutation of one point has one cycle
    total, survival = 0.0, 1.0  # survival = P(N >= l)
    for l in range(1, n + 1):
        total += survival * (l / n) * q[m]
        survival *= 1.0 - l / n
        if survival <= max(1e-17 * total, 1e-300):
            return total
        q[1:] = (q[1:] * l + q[:-1]) / (l + 1)
        q[q < 1e-300] = 0.0
    return total


@dataclass
class _Partial:
    count: int = 0
    attempts: int = 0
    vec_sum: np.ndarray = field(default_factory=lambda: np.zeros(6))
    vec_sq: np.ndarray = field(default_factory=lambda: np.zeros((6, 6)))
    flag_sum: int = 0
    cdf_counts: np.ndarray | None = None

    def merge(self, other: "_Partial"):
        self.count += other.count
        self.attempts += other.attempts
        self.vec_sum += other.vec_sum
        self.vec_sq += other.vec_sq
        self.flag_sum += other.flag_sum
        if other.cdf_counts is not None:
            if self.cdf_counts is None:
                self.cdf_counts = other.cdf_counts.copy()
            else:
                self.cdf_counts += other.cdf_counts


@dataclass
class SimStats:
    """Aggregated Monte Carlo estimates.

    Cycle lengths and the cyclic-point count are scaled by sqrt(n); the
    component count is unscaled.  mean/variance/standard_error are keyed by
    lambda1..lambda4, n_cyclic, components.
    """

    n: int
    trials: int
    constraint: str
    seed: int
    workers: int
    attempts: int
    acceptance_rate: float
    mean: dict
    variance: dict
    standard_error: dict
    corr_lambda_n: dict  # r -> corr(Lambda_r, N)
    corr_lambda_pairs: dict  # (r, s) -> corr(Lambda_r, Lambda_s)
    p_largest_contains_longest: float
    p_largest_contains_longest_se: float
    lambda1_cdf: dict  # b -> empirical P{Lambda_1 <= b sqrt(n)}


def _worker_run(n, quota, seed, widx, m_required, cap, cdf_grid):
    rng = _philox(seed, widx)
    part = _Partial()
    if cdf_grid is not None:
        part.cdf_counts = np.zeros(len(cdf_grid), dtype=np.int64)
    scale = np.array([math.sqrt(n)] * 5 + [1.0])
    chunk_rows = min(quota, MAX_N // n)
    remaining = quota
    while remaining > 0:
        rows = min(chunk_rows, remaining) if m_required is None else chunk_rows
        images = rng.integers(0, n, size=(rows, n), dtype=np.int32)
        part.attempts += rows
        if m_required is not None:
            accepted = np.flatnonzero(_kernels.component_counts(images) == m_required)
            images = images[accepted[:remaining]]
        if len(images):
            stats = _kernels.batch_stats(images)
            vec = stats[:, :6] / scale  # components unscaled
            part.vec_sum += vec.sum(axis=0)
            part.vec_sq += vec.T @ vec
            part.flag_sum += int(stats[:, 6].sum())
            part.count += len(stats)
            if cdf_grid is not None:
                for i, b in enumerate(cdf_grid):
                    part.cdf_counts[i] += int(np.sum(vec[:, 0] <= b))
            remaining -= len(stats)
        if part.attempts > cap and remaining > 0:
            raise BudgetExhaustedError(
                f"worker {widx}: {part.attempts} attempts for {quota - remaining}/{quota} acceptances"
            )
    return part


def simulate(
    n: int,
    trials: int,
    constraint="none",
    seed: int = 0,
    workers: int | None = None,
    cdf_grid=None,
    max_attempts: int | None = None,
) -> SimStats:
    """Aggregate structural statistics over `trials` (accepted) mappings.

    ``max_attempts`` caps each worker's rejection attempts; the default is
    10^4 times the expected attempt count for the constraint.  An n outside
    [2, MAX_N], more than n components, an expected acceptance rate below
    ``MIN_ACCEPTANCE`` or more than ``MAX_DRAWN_NODES`` expected drawn nodes
    (trials * n / acceptance) raise ValueError before any draw.  ``workers``
    (default RANDMAP_WORKERS, else 1) must lie in [1, _kernels.MAX_WORKERS].
    An n, trials, seed, max_attempts or component count that is not an
    integer, or a NaN in ``cdf_grid``, raises ValueError too, before any
    draw; an integral float is taken as that integer.
    """
    if not (_is_integer(n) and 2 <= n <= MAX_N):
        raise ValueError(f"n must lie in [2, {MAX_N}], got {n}")
    if not _is_integer(trials, 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials}")
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed}")
    if max_attempts is not None and not _is_integer(max_attempts, 1):
        raise ValueError(f"max_attempts must be an integer >= 1, got {max_attempts}")
    grid = tuple(float(b) for b in cdf_grid) if cdf_grid is not None else None
    if grid is not None and any(math.isnan(b) for b in grid):
        raise ValueError(f"cdf_grid must not hold NaN, got {cdf_grid}")
    n, trials, seed = int(n), int(trials), int(seed)
    m_required = _required_components(constraint)
    if m_required is not None and m_required > n:
        raise ValueError(f"a mapping of size {n} has at most {n} components, not {m_required}")
    acc = _expected_acceptance(n, m_required)
    if acc < MIN_ACCEPTANCE:
        raise ValueError(
            f"components={m_required} at n = {n} has expected acceptance {acc:.1e}, "
            f"below MIN_ACCEPTANCE = {MIN_ACCEPTANCE:.0e}"
        )
    if trials * n > MAX_DRAWN_NODES * acc:
        raise ValueError(
            f"{trials} trials at n = {n} draw about {trials * n / acc:.1e} nodes "
            f"(trials * n / expected acceptance), above MAX_DRAWN_NODES = {MAX_DRAWN_NODES:.0e}"
        )
    workers = _kernels.worker_count(workers)
    if max_attempts is not None:
        cap_per_worker = int(max_attempts)
    else:
        cap_per_worker = int(math.ceil(10_000.0 * (trials / workers + 1) / acc))
    quotas = [len(range(w, trials, workers)) for w in range(workers)]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [
            pool.submit(_worker_run, n, quotas[w], seed, w, m_required, cap_per_worker, grid)
            for w in range(1, workers)
            if quotas[w] > 0
        ]
        parts = [_worker_run(n, quotas[0], seed, 0, m_required, cap_per_worker, grid)]
        parts += [f.result() for f in futs]
    total = _Partial()
    for p in parts:
        total.merge(p)

    c = total.count
    means = total.vec_sum / c
    cov = total.vec_sq / c - np.outer(means, means)
    var_sample = (total.vec_sq.diagonal() - c * means**2) / max(c - 1, 1)
    mean_d, var_d, se_d = {}, {}, {}
    for i, name in enumerate(_STAT_NAMES):
        mean_d[name] = float(means[i])
        var_d[name] = float(var_sample[i])
        se_d[name] = float(math.sqrt(max(var_sample[i], 0.0) / c))
    sd = np.sqrt(np.clip(cov.diagonal(), 1e-300, None))
    corr_ln = {r: float(cov[r - 1, 4] / (sd[r - 1] * sd[4])) for r in (1, 2, 3, 4)}
    corr_pairs = {
        (r, s): float(cov[r - 1, s - 1] / (sd[r - 1] * sd[s - 1]))
        for r in (1, 2, 3, 4)
        for s in (1, 2, 3, 4)
        if r < s
    }
    p_flag = total.flag_sum / c
    cdf = {}
    if grid is not None:
        cdf = {b: float(k / c) for b, k in zip(grid, total.cdf_counts)}
    return SimStats(
        n=n,
        trials=trials,
        constraint="none" if m_required is None else f"components={m_required}",
        seed=seed,
        workers=workers,
        attempts=total.attempts,
        acceptance_rate=c / total.attempts,
        mean=mean_d,
        variance=var_d,
        standard_error=se_d,
        corr_lambda_n=corr_ln,
        corr_lambda_pairs=corr_pairs,
        p_largest_contains_longest=float(p_flag),
        p_largest_contains_longest_se=float(math.sqrt(p_flag * (1.0 - p_flag) / c)),
        lambda1_cdf=cdf,
    )


def interplay_estimate(n: int, trials: int, seed: int = 0, workers: int | None = None):
    """P{largest component contains a longest cycle} with standard error.

    Ties on component size go to the component with the longer cycle, then
    the lower minimum label; a tie on cycle length counts as success when any
    longest cycle lies in the selected component.
    """
    stats = simulate(n, trials, constraint="none", seed=seed, workers=workers)
    return stats.p_largest_contains_longest, stats.p_largest_contains_longest_se
