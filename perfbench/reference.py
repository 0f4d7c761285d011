"""Independent oracles the benchmark checks the package's outputs against.

Nothing here imports randmap: the analyzer walks each mapping with plain
dicts and lists, and the counts come from the closed form
a(n, m, l) = C(n, l) * l * n^(n-l-1) * c(l, m), with c the unsigned Stirling
numbers of the first kind (a mapping is a permutation of its l cyclic points
plus a forest of rooted trees on the other n - l points).
"""

from __future__ import annotations

import math
from functools import lru_cache

# OEIS A001865: connected mappings on n labelled points.
CONNECTED_COUNTS = {1: 1, 2: 3, 3: 17, 4: 142, 5: 1569, 6: 21576, 7: 355081}

# Moment-table reference values, as in tier-1 acceptance criteria 3 and 4.
RAYLEIGH_MEANS = (
    0.78248160099165661501,
    0.26267067265131265469,
    0.11068781528281010827,
    0.05056118481134243184,
)
HALFNORMAL_MEANS = (
    0.49814325870512904597,
    0.16722134383091813637,
    0.07046605176920746245,
    0.03218824996523203019,
)
MEAN_TOL = 1e-9
RAYLEIGH_MODE = (0.4809, 1e-3)
RAYLEIGH_MEDIAN = (0.6842, 5e-4)
HALFNORMAL_MEDIAN = (0.3903, 5e-4)


def analyze_row(image) -> tuple:
    """The seven batch_stats columns of one 0-based mapping, by dict walk.

    Returns (lam1, lam2, lam3, lam4, cyclic points, components, flag): the
    four longest cycle lengths, descending and zero-padded, and whether the
    largest component (size, then cycle length, descending; then smallest
    label) contains a longest cycle.
    """
    image = [int(v) for v in image]
    comp: dict[int, int] = {}  # node -> component id
    cycle_len: list[int] = []
    for start in range(len(image)):
        if start in comp:
            continue
        pos: dict[int, int] = {}
        path: list[int] = []
        v = start
        while v not in comp and v not in pos:
            pos[v] = len(path)
            path.append(v)
            v = image[v]
        if v in comp:
            cid = comp[v]
        else:  # the walk closed a new cycle at v
            cid = len(cycle_len)
            cycle_len.append(len(path) - pos[v])
        for u in path:
            comp[u] = cid
    size = [0] * len(cycle_len)
    min_label = [len(image)] * len(cycle_len)
    for node, cid in comp.items():
        size[cid] += 1
        min_label[cid] = min(min_label[cid], node)
    best = min(range(len(cycle_len)), key=lambda c: (-size[c], -cycle_len[c], min_label[c]))
    ranked = sorted(cycle_len, reverse=True)
    top = (ranked + [0, 0, 0, 0])[:4]
    flag = int(cycle_len[best] == ranked[0])
    return (*top, sum(cycle_len), len(cycle_len), flag)


@lru_cache(maxsize=None)
def stirling1(l: int, m: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of l with m cycles."""
    if l == m:
        return 1
    if m == 0 or m > l:
        return 0
    return stirling1(l - 1, m - 1) + (l - 1) * stirling1(l - 1, m)


def mapping_count(n: int, m: int, l: int) -> int:
    """n-mappings with exactly m components and l cyclic points (closed form)."""
    if m < 1 or l < m or l > n:
        return 0
    if l == n:
        return stirling1(n, m)
    return math.comb(n, l) * l * n ** (n - l - 1) * stirling1(l, m)
