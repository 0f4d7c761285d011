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


def edge_order_sum(half, sums) -> float:
    """Sum of half[i] * sums[i], added in panel order into a Python float or
    complex."""
    total = 0.0
    for h, s in zip(half.tolist(), sums.tolist()):
        total += h * s
    return total


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
    return edge_order_sum(half, np.sum(w * vals.reshape(len(half), nodes), axis=1))


def kink_panels(window, b: float, shift: int, table, f):
    """Gauss-Legendre panels on a window split at the kinks k b, and g(nu/b - shift)
    at their nodes.

    ``window`` is a sorted list of edges: a start at or past shift * b, any
    split points, an end.  ``table`` holds g at k + (1 + x_i)/2 in row k, for
    the nodes x_i of the rule with ``table.shape[1]`` points, and its last
    row is 0, as g is past it; ``f`` evaluates g on an array.  Kinks run
    from b to cap * b, cap = len(table) + shift, and at most to the first
    kink at or past the end: the count is int(min(end / b, cap)), never an
    edge divided by b and rounded, so b = 5e-324 and b = inf keep finite
    counts.  Past cap * b the argument of g is past the table, where g is 0.

    A window that starts on a kink and has b <= end / 2 ends on a kink: the
    first one at or past its end, or cap * b.  The piece added past the end
    is not quadrature error but mass the caller's window already drops.
    Larger b keeps the end: its last panel then spans less than two kinks.

    Each whole panel [k b, (k+1) b] reads row k - shift of the table: at its
    nodes nu/b - shift is k - shift + (1 + x_i)/2 up to rounding.  The other
    panels (pieces at split points or at an end off the kinks) call ``f``
    once, on all their nodes together.  Returns the (panels, nodes) array of
    nodes, the panels' half widths and g at the nodes, a read-only view of
    the table when every panel is whole.
    """
    nodes = table.shape[1]
    lo, hi = window[0], window[-1]
    cap = len(table) + shift
    count = int(min(hi / b, cap))
    if lo == shift * b and b <= hi / 2.0:
        while count < cap and count * b < hi:
            count += 1
        hi = count * b
        window = [e for e in window[:-1] if e < hi] + [hi]
        if len(window) == 2:  # every panel is whole
            edges = np.arange(shift, count + 1) * b
            nu, half = gl_nodes(edges[:-1], edges[1:], nodes)
            return nu, half, table[: count - shift]
    kinks = [k * b for k in range(1, count + 1)]
    index = {e: k for k, e in enumerate(kinks, 1)}
    index[0.0] = 0
    # a sorted set rather than np.unique, whose first call imports numpy.ma
    # (about 12 ms of a cold `randmap cdf`)
    edges = sorted({*window, *(e for e in kinks if lo < e < hi)})
    k = np.array([index.get(e, -1) for e in edges])
    edges = np.array(edges)
    nu, half = gl_nodes(edges[:-1], edges[1:], nodes)
    whole = (k[:-1] >= shift) & (k[1:] == k[:-1] + 1)
    out = np.empty_like(nu)
    out[whole] = table[k[:-1][whole] - shift]
    rest = ~whole
    if rest.any():
        with np.errstate(over="ignore"):
            out[rest] = f(nu[rest] / b - shift)
    return nu, half, out
