"""Brute-force enumeration of all n^n mappings for small n.

Streams every image array through the structural analyzer and keeps exact
integer tallies: the count table a[m][l] of mappings with m components and l
cyclic points, a joint histogram over (components, cyclic points, two longest
cycles), and the number of connected mappings.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = ["ExactTables", "EnumerationSizeError", "enumerate_all", "MAX_N"]

MAX_N = 7


class EnumerationSizeError(ValueError):
    """n beyond the supported brute-force range."""


@dataclass(frozen=True)
class ExactTables:
    """Exact tallies over all n^n mappings."""

    n: int
    counts: np.ndarray  # counts[m, l] = #mappings with m components, l cyclic points
    joint: np.ndarray  # joint[M, N, lam1, lam2]
    connected_count: int

    def total(self) -> int:
        return int(self.counts.sum())

    def a(self, m: int, l: int) -> int:
        return int(self.counts[m, l])

    def mean_lambda1(self) -> float:
        lam1 = np.arange(self.n + 1)
        weights = self.joint.sum(axis=(0, 1, 3))
        return float((lam1 * weights).sum() / weights.sum())


def enumerate_all(n: int, workers: int | None = None) -> ExactTables:
    """Tally all n^n mappings, n <= 7.

    The image array is iterated as a mixed-radix odometer (no mapping is
    stored).  With workers > 1 the range splits by the first image entry,
    which partitions the space into n equal slices.  ``workers`` (default
    RANDMAP_WORKERS, else 1) must lie in [1, _kernels.MAX_WORKERS].
    """
    if not 1 <= n <= MAX_N:
        raise EnumerationSizeError(f"enumeration supports 1 <= n <= {MAX_N}, got {n}")
    workers = _kernels.worker_count(workers)
    if workers == 1 or n == 1:
        counts, joint, connected = _kernels.enumerate_tally(n)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, n)) as pool:
            futs = [pool.submit(_kernels.enumerate_tally, n, first) for first in range(n)]
            results = [f.result() for f in futs]
        counts = sum(r[0] for r in results)
        joint = sum(r[1] for r in results)
        connected = sum(r[2] for r in results)
    return ExactTables(n=n, counts=counts, joint=joint, connected_count=int(connected))
