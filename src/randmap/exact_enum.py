"""Exact enumeration of all n^n mappings for small n.

Keeps exact integer tallies over all n^n mappings: the count table a[m][l]
of mappings with m components and l cyclic points, a joint histogram over
(components, cyclic points, two longest cycles), and the number of
connected mappings.  A relabeling symmetry cuts the work: once f(0..j-1)
is fixed, the points outside D_j = {0..j} with f(0..j-1) are
interchangeable, so f(j) tries D_j and the smallest point outside it, with
weight n - |D_j| (`_kernels.enumerate_tally`): n * n! weighted rows stand
for all n^n mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._args import integer

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
        """counts[m, l]; an m or l that is not an integer in [0, n] raises
        ValueError (an integral float is taken as that integer)."""
        return int(self.counts[integer(m, "m", 0, self.n), integer(l, "l", 0, self.n)])

    def mean_lambda1(self) -> float:
        lam1 = np.arange(self.n + 1)
        weights = self.joint.sum(axis=(0, 1, 3))
        return float((lam1 * weights).sum() / weights.sum())


def enumerate_all(n: int, workers: int | None = None) -> ExactTables:
    """Tally all n^n mappings, n <= 7, in one `_kernels.enumerate_tally`
    call on the calling thread: n * n! weighted canonical rows stand for
    the n^n mappings.

    An n that is not an integer in [1, MAX_N] raises EnumerationSizeError;
    an integral float is taken as that integer.  ``workers`` has no effect:
    an explicit value is only checked, by `_kernels.worker_count`.
    """
    n = integer(n, "n", 1, MAX_N, EnumerationSizeError)
    if workers is not None:
        _kernels.worker_count(workers)
    joint = _kernels.enumerate_tally(n)
    counts = joint.sum(axis=(2, 3))
    return ExactTables(n=n, counts=counts, joint=joint, connected_count=int(counts[1].sum()))
