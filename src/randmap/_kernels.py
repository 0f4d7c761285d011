"""NumPy kernels for functional-graph analysis and exact enumeration.

A batch of mappings is analyzed in one component pass with no per-row Python
loop: the rows are flattened into a single functional graph on the nodes
row*n + v, and squaring it k times maps every node v to f^K(v), K = 2^k.  The
image S of f^K holds every cyclic node, and f maps S into itself; once f is
also injective on S it permutes S, so S is exactly the cyclic set and f^K
lands every node on the cycle of its component.  Squaring stops at the first
K >= 4 sqrt(n) where sorted f[S] equals S, and at the latest at K >= n, which
bounds every tail; a uniform random row rarely has a tail longer than
4 sqrt(n), so the first test almost always passes.  Min-label doubling on
the cyclic nodes, as many rounds as the largest per-row cyclic-point count
needs, names each cycle by its smallest node; a scatter map from cyclic node
to name gives each node's component at its landing point.  Bincounts give
cycle lengths, component sizes and per-row counts; one integer sort ranks
the cycle lengths and a per-row maximum picks the largest component.
component_counts stops after the naming, which is all a rejection test on
the component count needs.  Rows are processed in blocks of at most _BLOCK
nodes, which keeps the int32 temporary arrays small.
"""

from __future__ import annotations

import os

import numpy as np

BACKEND = "numpy"  # exported as randmap.kernel_backend for benchmark provenance

# per-row output columns of batch_stats
_COLS = 7  # lam1, lam2, lam3, lam4, n_cyclic, n_components, flag

_BLOCK = 1 << 16  # nodes per component pass (a single row may exceed it)

MAX_WORKERS = 64  # the most threads one simulate or enumerate_all call starts


def worker_count(workers=None) -> int:
    """``workers``, or RANDMAP_WORKERS (default 1) when it is None.

    Raises ValueError outside [1, MAX_WORKERS], before any thread starts.
    """
    if workers is None:
        workers = os.environ.get("RANDMAP_WORKERS", "1")
    workers = int(workers)
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")
    return workers


def _permutes(succ, cyc) -> bool:
    """Stop test of the cycle finder: f maps S = cyc (ascending) into itself,
    so it permutes S, and S is the cyclic set, when sorted f[S] is S."""
    return np.array_equal(np.sort(succ), cyc)


def _cycles(block: np.ndarray):
    """Cycle finder shared by batch_stats and component_counts.

    Returns each node's landing point on its cycle, the cyclic nodes
    (ascending), each cyclic node's cycle label (the compressed index of the
    cycle's smallest node), the node -> compressed index map (valid at cyclic
    nodes) and the per-row cyclic-point counts.  Gathers use np.take, which
    reads int32 indices directly where fancy indexing first converts them to
    intp.
    """
    rows, n = block.shape
    f = (block.astype(np.int32) + np.arange(0, rows * n, n, dtype=np.int32)[:, None]).ravel()
    steps = max(1, (n - 1).bit_length())  # 2^steps >= n bounds tails and cycles
    first_test = min(steps, ((16 * n - 1).bit_length() + 1) // 2)  # least k: 2^k >= 4 sqrt(n)
    land = f
    for k in range(steps + 1):
        if k >= first_test:
            cyclic = np.zeros(f.size, dtype=bool)
            cyclic[land.astype(np.intp)] = True  # an intp index scatters faster than int32
            cyc = np.flatnonzero(cyclic)
            del cyclic
            succ = np.take(f, cyc)
            if k == steps or _permutes(succ, cyc):
                break
        land = np.take(land, land)
    n_cyclic = np.bincount(cyc // n, minlength=rows)
    index = np.empty(f.size, dtype=np.int32)  # compressed index, read at cyclic nodes only
    index[cyc] = np.arange(cyc.size, dtype=np.int32)
    succ = np.take(index, succ)
    label = np.arange(cyc.size, dtype=np.int32)
    for _ in range((int(n_cyclic.max()) - 1).bit_length()):  # 2^rounds >= every cycle length
        label = np.minimum(label, np.take(label, succ))
        succ = np.take(succ, succ)
    return land, cyc, label, index, n_cyclic


def _components(block: np.ndarray):
    """Cycles of a block of 0-based mappings, one entry per component.

    Returns (row, cycle length, component size) with rows ascending, plus
    the per-row cyclic-point counts.
    """
    n = block.shape[1]
    land, cyc, label, index, n_cyclic = _cycles(block)
    index[cyc] = label
    comp = np.take(index, land)
    del index, land
    reps = np.flatnonzero(label == np.arange(cyc.size))
    length = np.bincount(label, minlength=cyc.size)[reps]
    size = np.bincount(comp, minlength=cyc.size)[reps]
    return cyc[reps] // n, length, size, n_cyclic


def _stats(n, row, length, size, n_cyclic):
    """batch_stats columns from the per-component arrays of _components."""
    rows = n_cyclic.size
    out = np.zeros((rows, _COLS), dtype=np.int64)
    m_comp = np.bincount(row, minlength=rows)
    first = np.cumsum(m_comp) - m_comp  # index of each row's first component
    # one integer key per component sorts by row, then cycle length descending
    ranked = n - np.sort(row * (n + 1) + (n - length)) % (n + 1)
    rank = np.arange(row.size) - first[row]
    top = rank < 4
    out[row[top], rank[top]] = ranked[top]
    # largest component: size desc, then cycle length desc; a remaining tie
    # (the min-label rule) cannot change the flag, as the lengths are equal
    best = np.maximum.reduceat(size * (n + 1) + length, first) % (n + 1)
    out[:, 4] = n_cyclic
    out[:, 5] = m_comp
    out[:, 6] = best == out[:, 0]
    return out


def _blocks(m, n):
    """Row slices of at most _BLOCK nodes each (at least one row)."""
    step = max(1, _BLOCK // max(n, 1))
    return (slice(start, start + step) for start in range(0, m, step))


def _batch_stats(images: np.ndarray) -> np.ndarray:
    """Per-row structural stats of a batch of 0-based mappings.

    Returns int64 (rows, 7): four longest cycle lengths (descending, padded
    with zeros), cyclic-point count, component count, and a 0/1 flag telling
    whether the largest component contains a longest cycle.
    """
    images = np.asarray(images)
    m, n = images.shape
    out = np.empty((m, _COLS), dtype=np.int64)
    for rows in _blocks(m, n):
        out[rows] = _stats(n, *_components(images[rows]))
    return out


def component_counts(images: np.ndarray) -> np.ndarray:
    """Per-row component counts of a batch of 0-based mappings, as int64:
    column 5 of batch_stats, from the cycle finder alone."""
    images = np.asarray(images)
    m, n = images.shape
    out = np.empty(m, dtype=np.int64)
    for rows in _blocks(m, n):
        _, cyc, label, _, n_cyclic = _cycles(images[rows])
        reps = cyc[label == np.arange(cyc.size)]
        out[rows] = np.bincount(reps // n, minlength=n_cyclic.size)
    return out


# enumerate_tally calls _batch_stats, not the module attribute, so a wrapper
# installed on batch_stats (the benchmark's tracer) sees simulation rows only
batch_stats = _batch_stats


def analyze_arrays(image: np.ndarray):
    """Full per-mapping digest: (cycle lengths desc, component sizes desc, flag)."""
    image = np.asarray(image)
    parts = _components(image[None, :])
    flag = int(_stats(image.size, *parts)[0, 6])
    _, length, size, _ = parts
    return np.sort(length)[::-1], np.sort(size)[::-1], flag


def enumerate_tally(n: int, first: int | None = None):
    """Exact tallies over all n^n mappings (or the slice image[0] = first).

    Returns (counts[m, l], joint[M, N, lam1, lam2], connected_count) as exact
    integer arrays.  Mappings are unranked from mixed-radix indices in chunks
    and pushed through the batch analyzer.
    """
    joint = np.zeros((n + 1,) * 4, dtype=np.int64)
    # mixed-radix index i has image[j] = (i // n^j) % n; the slice
    # image[0] = first is every n-th index from first
    start, stride = (0, 1) if first is None else (int(first), n)
    powers = n ** np.arange(n, dtype=np.int64)
    chunk = (1 << 15) * stride
    for lo in range(start, n**n, chunk):
        idx = np.arange(lo, min(lo + chunk, n**n), stride, dtype=np.int64)
        stats = _batch_stats(idx[:, None] // powers % n)
        np.add.at(joint, (stats[:, 5], stats[:, 4], stats[:, 0], stats[:, 1]), 1)
    counts = joint.sum(axis=(2, 3))
    return counts, joint, int(counts[1].sum())
