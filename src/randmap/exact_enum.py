"""Brute-force enumeration of all n^n mappings for small n.

Keeps exact integer tallies over all n^n mappings: the count table a[m][l]
of mappings with m components and l cyclic points, a joint histogram over
(components, cyclic points, two longest cycles), and the number of
connected mappings.  Two relabeling symmetries cut the work.  A relabeling
that fixes 0 and sends 1 to k carries the slice f(0) = 1 onto f(0) = k, so
only the slices f(0) = 0 and f(0) = 1 are tallied.  Within a slice, the
points outside D_j = {0..j} with f(0..j-1) are interchangeable once
f(0..j-1) is fixed, so f(j) tries D_j and the smallest point outside it,
with weight n - |D_j| (`_kernels.enumerate_tally`): n * n! weighted rows
stand for all n^n mappings.
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

    The mappings are split by the first image entry f(0) into n slices.  A
    relabeling sigma that fixes 0 and sends 1 to k maps the slice f(0) = 1
    onto f(0) = k by f -> sigma f sigma^-1 and keeps M, N and every cycle
    length, so only the slices f(0) = 0 and f(0) = 1 are tallied, on
    min(workers, 2) threads, and slice 1 counts n - 1 times.  Each slice is
    enumerated afresh as weighted canonical prefixes, n * n! rows for both
    in place of 2 n^(n-1) (see `_kernels.enumerate_tally`).  An n that is
    not an integer in [1, MAX_N] raises EnumerationSizeError before any
    thread starts; an integral float is taken as that integer.  ``workers``
    (default RANDMAP_WORKERS, else 1) must lie in [1, _kernels.MAX_WORKERS].
    """
    if not (1 <= n <= MAX_N and n == int(n)):
        raise EnumerationSizeError(f"enumeration supports 1 <= n <= {MAX_N}, got {n}")
    n = int(n)
    workers = _kernels.worker_count(workers)
    slices = range(min(n, 2))
    with ThreadPoolExecutor(max_workers=min(workers, 2)) as pool:
        tallies = pool.map(_kernels.enumerate_tally, [n] * len(slices), slices)
        joint = sum(w * t for w, t in zip((1, n - 1), tallies))
    counts = joint.sum(axis=(2, 3))
    return ExactTables(n=n, counts=counts, joint=joint, connected_count=int(counts[1].sum()))
