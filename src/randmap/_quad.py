"""Gauss-Legendre panel quadrature shared by the analytic modules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre


@lru_cache(maxsize=8)
def gl_rule(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return legendre.leggauss(n)


def gl_nodes(lo, hi, nodes: int):
    """Nodes of the n-point rule on the panels [lo[i], hi[i]], one row per
    panel, and the panels' half widths."""
    x, _ = gl_rule(nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * x, half


def gl_panels(f, edges, nodes: int):
    """Sum of n-point Gauss-Legendre rules over the panels between sorted edges.

    ``f`` is called once, on a flat array holding the nodes of every panel in
    turn, and must return one (real or complex) value per node.  Panel sums
    are accumulated in edge order into a Python float or complex.
    """
    _, w = gl_rule(nodes)
    edges = np.asarray(edges, dtype=float)
    pts, half = gl_nodes(edges[:-1], edges[1:], nodes)
    vals = np.asarray(f(pts.ravel()))
    sums = np.sum(w * vals.reshape(len(half), nodes), axis=1)
    total = 0.0
    for h, s in zip(half.tolist(), sums.tolist()):
        total += h * s
    return total
