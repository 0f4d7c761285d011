"""Spans and counts recorded around calls into randmap's layers.

The package is not instrumented.  ``Tracer.install`` rebinds the module
attributes that callers look up at call time (``_kernels.batch_stats`` for
``mapping_sim``, ``moments.e1_real`` and ``laplace.e1_complex`` at their
import sites, ``PiecewiseSolution.__call__`` on the class, ...) to wrappers
that append a span ``[name, start, end, parent, counts]`` to an in-memory
list; ``uninstall`` puts the originals back.  Everything runs in one thread,
so a stack gives each span its parent.  The layer of a span is the first
dotted component of its name.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# lru_caches reported by name in the per-layer metrics; every other cache
# found in the package goes into the record only.
NAMED_CACHES = (
    "moments.g_constant",
    "moments.cross_rank_moment",
    "gfseries.component_cycle_egf",
    "dde._theta_cached",
    "dde._dickman_cached",
    "distributions._rank_solution",
)
CLI_SUBCOMMANDS = ("eval", "cdf", "constants", "invlaplace", "divisibility", "enumerate")


def _rows_and_n(args, kwargs, out):
    rows, n = np.shape(args[0])
    return {"rows": rows, "n": n}


def _enumerated(args, kwargs, out):
    n = args[0]
    first = args[1] if len(args) > 1 else kwargs.get("first")
    return {"mappings": n ** n if first is None else n ** (n - 1)}


def _sim_counts(args, kwargs, out):
    constraint = kwargs.get("constraint", args[2] if len(args) > 2 else "none")
    return {
        "n": out.n,
        "attempts": out.attempts,
        "accepted": out.trials,
        "constrained": constraint not in (None, "none"),
    }


def _points(args, kwargs, out):
    return {"points": int(np.size(args[1]))}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []
        self._caches: dict = {}
        self._cache_mark: dict = {}  # hits/misses when counting last (re)started
        self._cache_total: defaultdict = defaultdict(lambda: [0, 0])

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counts is not None:
                spans[idx][4] = counts(args, kwargs, out)
            return out

        return traced

    def _count_only(self, name, fn):
        counter = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add_span(self, name, start, end, counts=None) -> int:
        """Record a span measured elsewhere (a CLI child process) under the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, counts])
        return len(self.spans) - 1

    def add_child(self, parent, name, start, end):
        self.spans.append([name, start, end, parent, None])

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import mpmath

        from randmap import (
            _kernels,
            dde,
            distributions,
            exact_enum,
            gfseries,
            laplace,
            mapping_sim,
            moments,
        )

        if not self._caches:
            self._caches = find_caches()
        self._cache_mark = {k: _hits_misses(f) for k, f in self._caches.items()}
        spanned = [
            (_kernels, "batch_stats", "kernels.batch_stats", _rows_and_n),
            (_kernels, "enumerate_tally", "kernels.enumerate_tally", _enumerated),
            (mapping_sim, "simulate", "mapping_sim.simulate", _sim_counts),
            (exact_enum, "enumerate_all", "exact_enum.enumerate_all", None),
            (gfseries, "a_count", "gfseries.a_count", None),
            (dde, "solve_theta_dde", "dde.solve", None),
            (dde, "solve_generalized_dickman", "dde.solve", None),
            (dde.PiecewiseSolution, "__call__", "dde.eval", _points),
            (laplace, "invert", "laplace.invert", None),
            (laplace, "_invert_talbot", "laplace.invert.talbot", None),
            (laplace, "_invert_line_subtracted", "laplace.invert.line", None),
            (laplace, "_invert_theta_family", "laplace.invert.dehoog", None),
            (laplace, "_invert_mp_line", "laplace.invert.dehoog", None),
            (laplace, "forward_laplace", "laplace.forward_laplace", None),
            (distributions, "mapping_longest_cycle_cdf", "distributions.mapping_longest_cycle_cdf", None),
            (distributions, "joint_density", "distributions.joint_density", None),
            (distributions, "perm_longest_cycle_cdf", "distributions.perm_longest_cycle_cdf", None),
            (distributions, "largest_component_cdf", "distributions.largest_component_cdf", None),
            (moments, "moment_table", "moments.moment_table", None),
            (moments, "g_constant", "moments.g_constant", None),
            (moments, "cross_rank_moment", "moments.cross_rank_moment", None),
            (moments, "median_lambda", "moments.median_lambda", None),
            (moments, "mode_lambda1", "moments.mode_lambda1", None),
        ]
        for owner, attr, name, counts in spanned:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), counts))
        counted = [
            (moments, "e1_real", "specfun.e1_real"),
            (laplace, "e1_real", "specfun.e1_real"),
            (laplace, "e1_complex", "specfun.e1_complex"),
            (mpmath, "invertlaplace", "laplace.dehoog.invertlaplace"),
        ]
        for owner, attr, name in counted:
            self._patch(owner, attr, self._count_only(name, getattr(owner, attr)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        for name in self._caches:
            self._bank(name)
        self._cache_mark = {}

    # -- cache accounting --------------------------------------------------

    def _bank(self, name):
        if name in self._cache_mark:
            hits, misses = _hits_misses(self._caches[name])
            mark_h, mark_m = self._cache_mark[name]
            self._cache_total[name][0] += hits - mark_h
            self._cache_total[name][1] += misses - mark_m
            self._cache_mark[name] = (0, 0)

    def note_clear(self, name: str):
        """Bank a cache's statistics before ``cache_clear`` resets them."""
        self._bank(name)

    def cache_stats(self) -> dict:
        """Hits and misses of every package lru_cache while the tracer was installed."""
        return {name: {"hits": self._cache_total[name][0], "misses": self._cache_total[name][1]}
                for name in self._caches}

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self, path, t0: float):
        """Write the spans, times in microseconds from t0, as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, counts]
            for name, start, end, parent, counts in self.spans
        ]
        payload = {"names": names, "fields": ["name", "start_us", "end_us", "parent", "counts"],
                   "spans": rows, "counts": dict(self.counts)}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _hits_misses(fn):
    info = fn.cache_info()
    return info.hits, info.misses


def find_caches() -> dict:
    """Every functools.lru_cache at module level in the randmap package."""
    import importlib

    found = {}
    for mod in ("dde", "distributions", "gfseries", "laplace", "moments", "specfun", "mapping_sim",
                "exact_enum"):
        module = importlib.import_module(f"randmap.{mod}")
        for attr, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and callable(getattr(obj, "cache_clear", None)):
                found[f"{mod}.{attr}"] = obj
    return found


def _busy(intervals) -> float:
    """Length of the union of (start, end) intervals sorted by start."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in intervals:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and counts, plus reasons for idle layers."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return _busy((spans[i][1], spans[i][2]) for i in by_name[name])

    def self_of(name):
        return sum(selfs[i] for i in by_name[name])

    def count_sum(name, key, where=lambda c: True):
        return sum(spans[i][4][key] for i in by_name[name] if spans[i][4] and where(spans[i][4]))

    m: dict = {}
    absent: dict = {}

    # kernels: batch_stats in total and split by n
    bs = by_name["kernels.batch_stats"]
    m["kernels.batch_stats.calls"] = len(bs)
    m["kernels.batch_stats.rows"] = count_sum("kernels.batch_stats", "rows")
    m["kernels.batch_stats.busy_s"] = busy("kernels.batch_stats")
    for n in (10_000, 1024):
        idx = [i for i in bs if spans[i][4]["n"] == n]
        rows = sum(spans[i][4]["rows"] for i in idx)
        t = _busy((spans[i][1], spans[i][2]) for i in idx)
        m[f"kernels.batch_stats.n{n}.calls"] = len(idx)
        m[f"kernels.batch_stats.n{n}.rows"] = rows
        m[f"kernels.batch_stats.n{n}.busy_s"] = t
        m[f"kernels.batch_stats.n{n}.us_per_row"] = 1e6 * t / rows if rows else 0.0
    m["kernels.batch_stats.us_per_row"] = (
        1e6 * m["kernels.batch_stats.busy_s"] / m["kernels.batch_stats.rows"]
        if m["kernels.batch_stats.rows"] else 0.0
    )
    if not bs:
        absent["kernels.batch_stats"] = (
            "no call through randmap._kernels.batch_stats; enumerate_tally calls its "
            "backend's batch_stats directly, so enumeration rows are not seen here"
        )
    et = busy("kernels.enumerate_tally")
    m["kernels.enumerate_tally.busy_s"] = et
    mapped = count_sum("kernels.enumerate_tally", "mappings")
    m["kernels.enumerate_tally.mappings_per_s"] = mapped / et if et else 0.0
    if not et:
        absent["kernels.enumerate_tally"] = "no enumeration in this workload"

    # mapping_sim: rejection efficiency of the constrained calls, self time
    constrained = lambda c: c["constrained"]  # noqa: E731
    attempts = count_sum("mapping_sim.simulate", "attempts", constrained)
    accepted = count_sum("mapping_sim.simulate", "accepted", constrained)
    m["mapping_sim.attempts"] = attempts
    m["mapping_sim.accepted"] = accepted
    m["mapping_sim.acceptance_ratio"] = accepted / attempts if attempts else 0.0
    m["mapping_sim.self_s"] = self_of("mapping_sim.simulate")
    if not by_name["mapping_sim.simulate"]:
        absent["mapping_sim"] = "no simulate call in this workload"

    m["exact_enum.self_s"] = self_of("exact_enum.enumerate_all")
    m["gfseries.a_count.calls"] = calls("gfseries.a_count")
    m["gfseries.a_count.busy_s"] = busy("gfseries.a_count")

    m["dde.solve.calls"] = calls("dde.solve")
    m["dde.solve.busy_s"] = busy("dde.solve")
    points = count_sum("dde.eval", "points")
    m["dde.eval.calls"] = calls("dde.eval")
    m["dde.eval.points"] = points
    m["dde.eval.busy_s"] = busy("dde.eval")
    m["dde.eval.points_per_call"] = points / calls("dde.eval") if calls("dde.eval") else 0.0

    m["specfun.e1_real.calls"] = tracer.counts["specfun.e1_real"]
    m["specfun.e1_complex.calls"] = tracer.counts["specfun.e1_complex"]

    for engine in ("talbot", "line", "dehoog"):
        m[f"laplace.invert.{engine}.calls"] = calls(f"laplace.invert.{engine}")
        m[f"laplace.invert.{engine}.busy_s"] = busy(f"laplace.invert.{engine}")
    m["laplace.forward_laplace.calls"] = calls("laplace.forward_laplace")
    m["laplace.forward_laplace.busy_s"] = busy("laplace.forward_laplace")
    m["laplace.dehoog.invertlaplace_calls"] = tracer.counts["laplace.dehoog.invertlaplace"]

    cdf = "distributions.mapping_longest_cycle_cdf"
    m[f"{cdf}.calls"] = calls(cdf)
    m[f"{cdf}.busy_s"] = busy(cdf)
    m[f"{cdf}.self_s"] = self_of(cdf)
    m["distributions.joint_density.calls"] = calls("distributions.joint_density")
    m["distributions.joint_density.busy_s"] = busy("distributions.joint_density")

    for fn in ("g_constant", "cross_rank_moment", "median_lambda", "mode_lambda1"):
        m[f"moments.{fn}.busy_s"] = busy(f"moments.{fn}")
    median_ids = set(by_name["moments.median_lambda"])
    m["moments.median_lambda.cdf_calls"] = sum(1 for i in by_name[cdf] if spans[i][3] in median_ids)

    # cli: each process span holds an import child (from -X importtime) and a
    # compute child (the record's wall_time_s); the rest is interpreter start-up
    procs = by_name["cli.process"]
    for part, values in (
        ("import_s", [spans[i][2] - spans[i][1] for i in by_name["cli.import"]]),
        ("compute_s", [spans[i][2] - spans[i][1] for i in by_name["cli.compute"]]),
        ("startup_s", [selfs[i] for i in procs]),
    ):
        m[f"cli.{part}"] = statistics.median(values) if values else 0.0
    for sub in CLI_SUBCOMMANDS:
        walls = [spans[i][2] - spans[i][1] for i in procs if spans[i][4]["command"] == sub]
        m[f"cli.{sub}.p50_s"] = statistics.median(walls) if walls else 0.0
    if not procs:
        absent["cli"] = "no CLI process in this workload"

    # layer self times: every span's self time lands in its layer
    layer_self = defaultdict(float)
    for i, span in enumerate(spans):
        layer_self[span[0].split(".", 1)[0]] += selfs[i]
    for layer in ("bench", "cli", "kernels", "mapping_sim", "exact_enum", "gfseries", "dde",
                  "distributions", "moments", "laplace"):
        m[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    m["trace.self_sum_s"] = sum(layer_self.values())

    for name, hm in tracer.cache_stats().items():
        if name in NAMED_CACHES:
            m[f"cache.{name}.hits"] = hm["hits"]
            m[f"cache.{name}.misses"] = hm["misses"]

    for layer in ("dde", "distributions", "moments", "laplace", "gfseries"):
        if m[f"self_s.{layer}"] == 0.0:
            absent.setdefault(layer, "not called in this workload")
    return m, absent
