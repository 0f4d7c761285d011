import concurrent.futures
import dataclasses
import itertools
import json
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from randmap import _kernels, gfseries, mapping_sim
from randmap.mapping_sim import (
    MAX_DRAWN_NODES,
    MAX_N,
    BudgetExhaustedError,
    GraphSummary,
    Mapping,
    _expected_acceptance,
    analyze,
    interplay_estimate,
    sample_mapping,
    simulate,
)


class TestMappingType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Mapping(n=3, image=np.array([1, 2]))
        with pytest.raises(ValueError):
            Mapping(n=3, image=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            Mapping(n=3, image=np.array([1, 2, 4]))

    def test_integral_float_n_is_that_integer(self):
        # n = 3.0 was kept as a float, so analyze(...).n was 3.0
        m = Mapping(n=3.0, image=np.array([2, 3, 1]))
        assert type(m.n) is int and type(analyze(m).n) is int and m.n == 3

    @pytest.mark.parametrize("n", [2.5, float("nan"), float("inf"), -1])
    def test_non_integral_n_is_refused(self, n):
        # n = 2.5 blamed the image length
        with pytest.raises(ValueError, match=f"n must be an integer >= 0, got {n}"):
            Mapping(n=n, image=np.array([1, 2]))


class TestSampleMapping:
    def test_n_one(self):
        m = sample_mapping(1, 0)
        assert list(m.image) == [1]

    def test_determinism(self):
        a = sample_mapping(20, 12345)
        b = sample_mapping(20, 12345)
        assert np.array_equal(a.image, b.image)

    def test_uniformity_chi_square(self):
        rng = np.random.Generator(np.random.Philox(key=[99, 0]))
        n = 10
        draws = np.array([sample_mapping(n, rng).image[0] for _ in range(100_000)])
        counts = np.bincount(draws - 1, minlength=n)
        _, p = chisquare(counts)
        assert p > 0.001


class TestAnalyze:
    def test_three_cycle(self):
        s = analyze(Mapping(n=3, image=np.array([2, 3, 1])))
        assert s.component_count == 1
        assert s.cyclic_point_count == 3
        assert s.cycle_lengths == (3,)

    def test_rooted_tree_on_fixed_point(self):
        s = analyze(Mapping(n=3, image=np.array([1, 1, 1])))
        assert s.component_count == 1
        assert s.cyclic_point_count == 1
        assert s.cycle_lengths == (1,)
        assert s.component_sizes == (3,)

    def test_two_transpositions(self):
        s = analyze(Mapping(n=4, image=np.array([2, 1, 4, 3])))
        assert s.component_count == 2
        assert s.cyclic_point_count == 4
        assert s.cycle_lengths == (2, 2)
        assert s.lambda_r(2) == 2
        assert s.lambda_r(3) == 0
        assert s.lambda_r(2.0) == 2

    @pytest.mark.parametrize("r", [0, -1, 1.5, float("nan"), float("inf")])
    def test_lambda_r_refuses_a_rank_below_one_or_not_integral(self, r):
        # on cycles (3, 2, 1) r = 0 gave 1 and r = -1 gave 2 (Python's
        # negative indices), and r = 1.0 died with a bare TypeError
        s = analyze(Mapping(n=6, image=np.array([2, 3, 1, 5, 4, 6])))
        assert s.cycle_lengths == (3, 2, 1) and s.lambda_r(1.0) == 3
        with pytest.raises(ValueError, match=f"r must be an integer >= 1, got {r}"):
            s.lambda_r(r)

    @given(
        st.integers(min_value=1, max_value=60).flatmap(
            lambda n: st.lists(
                st.integers(min_value=1, max_value=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_structural_invariants(self, image):
        n = len(image)
        s = analyze(Mapping(n=n, image=np.array(image)))
        assert 1 <= s.component_count <= s.cyclic_point_count <= n
        assert sum(s.cycle_lengths) == s.cyclic_point_count
        assert sum(s.component_sizes) == n
        # one cycle per component: the cycle count and the component count
        # must coincide
        assert len(s.cycle_lengths) == s.component_count
        assert len(s.component_sizes) == s.component_count
        assert all(a >= b for a, b in zip(s.cycle_lengths, s.cycle_lengths[1:]))
        assert all(a >= b for a, b in zip(s.component_sizes, s.component_sizes[1:]))


def _reference_digest(image):
    """(cycle lengths desc, component sizes desc, flag) of one 0-based mapping.

    A plain dict walk, independent of the kernel: each walk from an
    unvisited node either closes a new cycle or joins a known component.  The
    largest component is chosen by size, then cycle length, then smallest
    node; the flag says whether its cycle is a longest one.
    """
    comp = {}
    cycle_len = []
    for start in range(len(image)):
        seen = {}
        v = start
        while v not in comp and v not in seen:
            seen[v] = len(seen)
            v = int(image[v])
        if v in comp:
            cid = comp[v]
        else:
            cid = len(cycle_len)
            cycle_len.append(len(seen) - seen[v])
        for u in seen:
            comp[u] = cid
    size = [0] * len(cycle_len)
    min_node = [len(image)] * len(cycle_len)
    for node, cid in comp.items():
        size[cid] += 1
        min_node[cid] = min(min_node[cid], node)
    best = min(range(len(size)), key=lambda c: (-size[c], -cycle_len[c], min_node[c]))
    lengths = sorted(cycle_len, reverse=True)
    return lengths, sorted(size, reverse=True), int(cycle_len[best] == lengths[0])


def _reference_row(image):
    lengths, _, flag = _reference_digest(image)
    return [*(lengths + [0, 0, 0])[:4], sum(lengths), len(lengths), flag]


def _structured_images(n):
    """Identity, one n-cycle, a path of length n - 1 into a fixed point, and a
    tail of length n - 2 into a 2-cycle: the extremes of the doubling depth."""
    nodes = np.arange(n)
    path = np.maximum(nodes - 1, 0)
    tail = path.copy()
    if n > 2:
        tail[0], tail[1] = 1, 0
    return np.stack([nodes, np.roll(nodes, -1), path, tail])


class TestReferenceParity:
    """The kernel against the dict-walk reference, row by row."""

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 17, 64, 257, 1024])
    def test_batch_stats_matches_reference(self, n):
        rng = np.random.default_rng(n)
        imgs = np.concatenate(
            [rng.integers(0, n, size=(48, n), dtype=np.int64), _structured_images(n)]
        )
        stats = _kernels.batch_stats(imgs)
        assert stats.shape == (len(imgs), 7)
        assert stats.dtype == np.int64
        for image, row in zip(imgs, stats):
            assert row.tolist() == _reference_row(image)
        counts = _kernels.component_counts(imgs)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, stats[:, 5])

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 127])
    def test_every_integer_input_width_gives_the_reference_rows(self, n, dtype):
        # the kernel widens its input to intp; simulate passes int32 draws,
        # enumeration int8 rows
        rng = np.random.default_rng(300 + n)
        imgs = np.concatenate(
            [rng.integers(0, n, size=(40, n), dtype=np.int64), _structured_images(n)]
        ).astype(dtype)
        stats = _kernels.batch_stats(imgs)
        counts = _kernels.component_counts(imgs)
        assert stats.dtype == counts.dtype == np.int64
        assert stats.tolist() == [_reference_row(image) for image in imgs]
        assert np.array_equal(counts, stats[:, 5])

    @pytest.mark.parametrize("n", [6, 17, 1000])
    def test_batch_stats_across_block_seams(self, n):
        # rows * n spans several analysis blocks, with a partial last block
        rows = 2 * _kernels._BLOCK // n + 7
        imgs = np.random.default_rng(n).integers(0, n, size=(rows, n), dtype=np.int64)
        stats = _kernels.batch_stats(imgs)
        step = max(1, _kernels._BLOCK // n)
        seams = {k for s in range(0, rows, step) for k in (s - 1, s) if 0 <= k < rows}
        for k in sorted(seams | set(range(0, rows, 97))):
            assert stats[k].tolist() == _reference_row(imgs[k]), k
        assert np.array_equal(_kernels.component_counts(imgs), stats[:, 5])

    def test_long_tail_keeps_doubling_past_the_first_stop_test(self, monkeypatch):
        # a path of 300 nodes into a fixed point, every other node mapped
        # straight onto that fixed point, amid random rows: at n = 1024 the
        # stop test first runs at K = 128 >= 4 sqrt(n), where f^K(path start)
        # is still on the path, and passes only at K = 512
        n, length = 1024, 300
        rng = np.random.default_rng(41)
        imgs = rng.integers(0, n, size=(40, n), dtype=np.int64)
        path = rng.permutation(n)[:length]
        imgs[17] = path[-1]
        imgs[17, path[:-1]] = path[1:]
        outcomes = []

        def recorded(succ, cyc):
            outcomes.append(permutes(succ, cyc))
            return outcomes[-1]

        permutes = _kernels._permutes
        monkeypatch.setattr(_kernels, "_permutes", recorded)
        stats = _kernels.batch_stats(imgs)
        assert outcomes == [False, False, True]
        outcomes.clear()
        counts = _kernels.component_counts(imgs)
        assert outcomes == [False, False, True]
        assert stats[17].tolist() == [1, 0, 0, 0, 1, 1, 1]
        for image, row, count in zip(imgs, stats, counts):
            assert row.tolist() == _reference_row(image)
            assert count == row[5]

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 257])
    def test_analyze_arrays_matches_reference(self, n):
        rng = np.random.default_rng(100 + n)
        imgs = np.concatenate(
            [rng.integers(0, n, size=(12, n), dtype=np.int64), _structured_images(n)]
        )
        for image in imgs:
            lengths, sizes, flag = _kernels.analyze_arrays(image)
            ref_lengths, ref_sizes, ref_flag = _reference_digest(image)
            assert lengths.tolist() == ref_lengths
            assert sizes.tolist() == ref_sizes
            assert flag == ref_flag

    def test_enumerate_matches_closed_form_and_reference(self):
        def stirling1(l, m):
            if l == m:
                return 1
            if m == 0 or m > l:
                return 0
            return stirling1(l - 1, m - 1) + (l - 1) * stirling1(l - 1, m)

        n = 4
        joint = _kernels.enumerate_tally(n)
        counts = joint.sum(axis=(2, 3))
        # a mapping is a permutation of its l cyclic points plus a forest of
        # rooted trees on the rest: C(n,l) l n^(n-l-1) c(l,m) of them
        for m in range(n + 1):
            for l in range(n + 1):
                if m == 0 or l < m:
                    expected = 0
                elif l == n:
                    expected = stirling1(n, m)
                else:
                    expected = math.comb(n, l) * l * n ** (n - l - 1) * stirling1(l, m)
                assert counts[m, l] == expected, (m, l)
        ref_joint = np.zeros_like(joint)
        for image in itertools.product(range(n), repeat=n):
            lam1, lam2, _, _, n_cyc, m_comp, _ = _reference_row(image)
            ref_joint[m_comp, n_cyc, lam1, lam2] += 1
        assert np.array_equal(joint, ref_joint)
        assert counts[1].sum() == 142  # OEIS A001865


class TestSimulate:
    def test_deterministic_given_seed_and_workers(self):
        a = simulate(64, 300, seed=11, workers=2)
        b = simulate(64, 300, seed=11, workers=2)
        assert a == b

    @pytest.mark.parametrize("workers, lambda1_sum, flags", [(1, 1927, 241), (2, 1948, 246)])
    def test_worker_zero_runs_on_the_calling_thread(self, monkeypatch, workers, lambda1_sum, flags):
        batch_stats = _kernels.batch_stats
        threads = []

        def recording(images):
            assert images.dtype == np.int32
            threads.append(threading.current_thread())
            return batch_stats(images)

        monkeypatch.setattr(_kernels, "batch_stats", recording)
        stats = simulate(64, 300, seed=11, workers=workers)
        assert threading.main_thread() in threads
        assert len(set(threads)) == workers
        # the draws of trial t come from Philox stream (seed, t mod workers):
        # over 300 trials the longest cycles (scaled by sqrt(64) = 8) sum to
        # lambda1_sum and `flags` have the longest cycle in the largest component
        assert stats.mean["lambda1"] == lambda1_sum / (8 * 300)
        assert stats.p_largest_contains_longest == flags / 300

    def test_one_worker_starts_no_thread(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", refused)
        monkeypatch.setattr(threading.Thread, "start", refused)
        assert simulate(64, 10, seed=1, workers=1).trials == 10

    def test_pool_runs_workers_one_and_up(self, monkeypatch):
        worker_run = mapping_sim._worker_run
        submit = concurrent.futures.ThreadPoolExecutor.submit
        ran, submitted = {}, []

        def recording_run(n, quota, seed, widx, *args):
            ran[widx] = threading.get_ident()
            return worker_run(n, quota, seed, widx, *args)

        def recording_submit(pool, fn, *args, **kwargs):
            submitted.append(args[3])
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(mapping_sim, "_worker_run", recording_run)
        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", recording_submit)
        stats = simulate(64, 30, seed=4, workers=3)
        assert submitted == [1, 2]
        assert ran[0] == threading.get_ident()
        assert threading.get_ident() not in (ran[1], ran[2])
        assert stats.trials == 30

    @pytest.mark.parametrize("workers", [1.9, 1.5, 0.5, float("nan"), float("inf")])
    def test_non_integral_worker_count_is_refused_before_any_thread(self, monkeypatch, workers):
        # 1.9 was truncated: simulate ran on 1 thread and reported workers == 1
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        with pytest.raises(ValueError, match=f"workers must lie in .*, got {workers}"):
            simulate(10, 5, seed=1, workers=workers)
        with pytest.raises(ValueError, match="workers must lie in"):
            _kernels.worker_count(workers)

    def test_integral_float_worker_count_is_that_count(self):
        assert _kernels.worker_count(2.0) == 2 and type(_kernels.worker_count(2.0)) is int
        assert simulate(10, 5, seed=1, workers=2.0) == simulate(10, 5, seed=1, workers=2)

    @pytest.mark.parametrize("value, count", [("2.0", 2), ("2", 2), ("1", 1), ("64", 64)])
    def test_randmap_workers_follows_the_argument_rule(self, monkeypatch, value, count):
        # "2.0" raised int()'s bare "invalid literal" message
        monkeypatch.setenv("RANDMAP_WORKERS", value)
        assert _kernels.worker_count() == count and type(_kernels.worker_count()) is int

    @pytest.mark.parametrize("value", ["2.5", "0", "65", "abc", "", "nan", "inf"])
    def test_randmap_workers_outside_the_rule_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("RANDMAP_WORKERS", value)
        with pytest.raises(ValueError) as exc:
            _kernels.worker_count()
        assert str(exc.value) == f"workers must lie in [1, {_kernels.MAX_WORKERS}], got {value}"

    def test_worker_partition_changes_stream_assignment_only(self):
        a = simulate(64, 300, seed=11, workers=1)
        b = simulate(64, 300, seed=11, workers=3)
        # different stream layout, same law: means agree within joint error
        se = math.hypot(a.standard_error["lambda1"], b.standard_error["lambda1"])
        assert abs(a.mean["lambda1"] - b.mean["lambda1"]) < 6 * se

    def test_connected_constraint(self):
        stats = simulate(128, 150, constraint="connected", seed=3)
        assert stats.attempts > stats.trials
        assert 0.0 < stats.acceptance_rate < 1.0
        # all accepted samples have one component
        assert stats.mean["components"] == pytest.approx(1.0, abs=1e-12)

    def test_components_constraint(self):
        stats = simulate(128, 150, constraint="components=2", seed=3)
        assert stats.mean["components"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n, constraint", [(64, "connected"), (128, "components=2")])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_pass_keeps_every_field(self, monkeypatch, n, constraint, workers):
        # filtering on the full analysis gives the same draws, accepted rows
        # and attempts; the full analysis only ever sees accepted rows
        def run():
            return simulate(n, 40, constraint=constraint, seed=9, workers=workers, cdf_grid=(0.5, 1.0))

        fast = run()
        batch_stats = _kernels.batch_stats
        seen = []

        def accepted_only(images):
            seen.append(len(images))
            return batch_stats(images)

        monkeypatch.setattr(_kernels, "batch_stats", accepted_only)
        assert run() == fast
        assert seen and min(seen) > 0 and sum(seen) == 40
        monkeypatch.setattr(_kernels, "component_counts", lambda im: _kernels.batch_stats(im)[:, 5])
        assert run() == fast

    def test_budget_error(self):
        with pytest.raises(BudgetExhaustedError):
            simulate(
                256,
                100,
                constraint="components=12",
                seed=1,
                workers=1,
                max_attempts=2000,
            )

    @pytest.mark.parametrize("n, m", [(3, 50), (2, 5), (20, 20), (256, 30), (10, 10), (13, 11)])
    def test_unmeetable_constraint_fails_before_any_draw(self, monkeypatch, n, m):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        # a constrained draw reaches the count pass first
        monkeypatch.setattr(_kernels, "component_counts", no_batch)
        monkeypatch.setattr(_kernels, "batch_stats", no_batch)
        with pytest.raises(ValueError):
            simulate(n, 1, constraint=f"components={m}", seed=1, max_attempts=10)
        with pytest.raises(ValueError):
            simulate(n, 1, constraint=f"components={m}", seed=1)

    @pytest.mark.parametrize("n", [MAX_N + 1, 2**31, 10**18])
    def test_n_above_bound_fails_before_any_draw(self, monkeypatch, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(mapping_sim, "_worker_run", no_draw)
        monkeypatch.setattr(_kernels, "batch_stats", no_draw)
        with pytest.raises(ValueError, match=f"n must lie in \\[2, {MAX_N}\\], got {n}"):
            simulate(n, 1, seed=1)

    def test_n_at_bound_is_drawn(self, monkeypatch):
        class Drawn(Exception):
            pass

        def drawn(n, *args):
            assert n == MAX_N
            raise Drawn

        monkeypatch.setattr(mapping_sim, "_worker_run", drawn)
        with pytest.raises(Drawn):
            simulate(MAX_N, 1, seed=1)

    @pytest.mark.parametrize(
        "n, trials, constraint",
        [(10**4, 10**6 + 1, "none"), (2, 10**12, "none"), (1024, 400_000, "connected")],
    )
    def test_trials_above_bound_fail_before_any_draw(self, monkeypatch, n, trials, constraint):
        # trials * n / expected acceptance above MAX_DRAWN_NODES: the time
        # had no bound
        def no_draw(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(mapping_sim, "_worker_run", no_draw)
        monkeypatch.setattr(_kernels, "batch_stats", no_draw)
        bound = re.escape(f"above MAX_DRAWN_NODES = {MAX_DRAWN_NODES:.0e}")
        with pytest.raises(ValueError, match=bound):
            simulate(n, trials, constraint=constraint, seed=1)

    def test_trials_at_bound_are_drawn(self, monkeypatch):
        class Drawn(Exception):
            pass

        def drawn(n, quota, *args):
            assert n * quota == MAX_DRAWN_NODES
            raise Drawn

        monkeypatch.setattr(mapping_sim, "_worker_run", drawn)
        with pytest.raises(Drawn):
            simulate(10**4, MAX_DRAWN_NODES // 10**4, seed=1, workers=1)

    def test_seeds_past_two_to_the_63_keep_their_own_stream(self):
        # the Philox key was a list of Python ints, which NumPy read as
        # float64 past 2^63: seed -1 (2^64 - 1) gave seed 0's stream
        def lam1(seed):
            return simulate(64, 20, seed=seed).mean["lambda1"]

        assert lam1(-1) == lam1(2**64 - 1) != lam1(0)
        assert lam1(2**63) != lam1(2**63 + 1)
        assert sample_mapping(64, -1).image.tolist() != sample_mapping(64, 0).image.tolist()

    def test_expected_acceptance_is_exact(self):
        # P(M = m) against the exact counts a(n, m, l), and values no
        # large-n law gives: only the identity has 10 components at n = 10
        for n in range(2, 9):
            for m in range(1, n + 1):
                count = sum(gfseries.a_count(n, m, l) for l in range(1, n + 1))
                assert _expected_acceptance(n, m) == pytest.approx(count / n**n, rel=1e-14)
        assert _expected_acceptance(10, 10) == pytest.approx(1e-10, rel=1e-14)
        assert _expected_acceptance(20, 20) == pytest.approx(20.0**-20, rel=1e-14)
        assert _expected_acceptance(1024, 1) == pytest.approx(0.03884, abs=5e-6)
        assert _expected_acceptance(10**6, 513) == 0.0

    def test_connected_flag_has_zero_standard_error(self):
        stats = simulate(64, 20, constraint="connected", seed=2)
        assert stats.p_largest_contains_longest == 1.0
        assert stats.p_largest_contains_longest_se == 0.0

    def test_sanity_against_limit_law(self):
        stats = simulate(4096, 3000, seed=5, cdf_grid=(0.6842,))
        assert stats.mean["lambda1"] == pytest.approx(0.78248, abs=0.05)
        assert stats.lambda1_cdf[0.6842] == pytest.approx(0.5, abs=0.06)
        assert abs(stats.corr_lambda_n[1] - 0.83298) < 0.08
        assert -1.0 <= min(stats.corr_lambda_pairs.values())
        assert max(stats.corr_lambda_pairs.values()) <= 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            simulate(1, 10)
        with pytest.raises(ValueError):
            simulate(10, 0)
        with pytest.raises(ValueError):
            simulate(10, 5, constraint="weird")

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((10.5, 5), {}, "n must lie in"),
            ((float("nan"), 5), {}, "n must lie in"),
            ((100, 2.5), {}, "trials must be an integer >= 1, got 2.5"),
            ((100, float("nan")), {}, "trials must be an integer >= 1, got nan"),
            ((100, 5), {"constraint": "components=2.5"}, "must be an integer >= 1, got 'components=2.5'"),
            ((100, 5), {"constraint": "components=inf"}, "must be an integer >= 1"),
            ((100, 5), {"seed": 1.5}, "seed must be an integer, got 1.5"),
            ((100, 5), {"max_attempts": 2.5}, "max_attempts must be an integer >= 1"),
            ((100, 5), {"cdf_grid": (0.5, float("nan"))}, "cdf_grid must not hold NaN"),
        ],
    )
    def test_non_integral_arguments_fail_before_any_draw(self, monkeypatch, args, kwargs, message):
        # each died with a bare TypeError, int()'s "invalid literal" or
        # "cannot convert float NaN", or (the NaN grid point) returned {nan: 0.0}
        def no_draw(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(mapping_sim, "_worker_run", no_draw)
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(*args, **kwargs)

    def test_integral_floats_are_those_integers(self):
        floats = simulate(100.0, 20.0, constraint="components=2.0", seed=3.0, max_attempts=1e6)
        ints = simulate(100, 20, constraint="components=2", seed=3, max_attempts=10**6)
        assert repr(floats) == repr(ints)
        assert interplay_estimate(64.0, 20.0) == interplay_estimate(64, 20)
        assert sample_mapping(3.0, 1).image.tolist() == sample_mapping(3, 1).image.tolist()

    @pytest.mark.parametrize("n", [2.5, float("nan"), float("inf"), 0])
    def test_sample_mapping_refuses_non_integral_n(self, n):
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n}"):
            sample_mapping(n, 1)

    @pytest.mark.parametrize("seed", [1.5, float("nan"), float("inf")])
    def test_sample_mapping_refuses_non_integral_seed(self, seed):
        # 1.5 drew seed 1's mapping and NaN died inside int()
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
            sample_mapping(5, seed)
        assert sample_mapping(5, 1.0).image.tolist() == sample_mapping(5, 1).image.tolist()

    def test_interplay_estimate_refuses_non_integral_trials(self):
        with pytest.raises(ValueError, match="trials must be an integer"):
            interplay_estimate(6, 2.5)


@pytest.fixture(scope="module")
def big_run():
    return simulate(10_000, 20_000, seed=424242, cdf_grid=(0.4, 0.6842, 1.0, 1.5))


@pytest.fixture(scope="module")
def two_component_run():
    return simulate(10_000, 1500, constraint="components=2", seed=2718, cdf_grid=(0.3903,))


class TestLimitLawAgreement:
    def test_empirical_cdf_matches_mixture(self, big_run):
        from randmap.distributions import Regime, mapping_longest_cycle_cdf

        for b, emp in big_run.lambda1_cdf.items():
            analytic = mapping_longest_cycle_cdf(b, 1, Regime.rayleigh())
            assert abs(emp - analytic) < 0.02

    def test_corr_lambda1_n(self, big_run):
        assert abs(big_run.corr_lambda_n[1] - 0.83298010) < 0.03

    def test_connected_acceptance_rate(self):
        stats = simulate(10_000, 600, constraint="connected", seed=31337)
        expected = math.sqrt(math.pi / (2.0 * 10_000))
        assert abs(stats.acceptance_rate - expected) / expected < 0.15

    def test_two_component_cyclic_variance(self, two_component_run):
        # the limiting variance of N/sqrt(n) is insensitive to the
        # two-component conditioning already at n = 10^4
        assert abs(two_component_run.variance["n_cyclic"] - (1.0 - 2.0 / math.pi)) < 0.05

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "stated +-0.05 window is unattainable at n = 10^4: conditioning on "
            "M = 2 tilts N upward with an effective family parameter "
            "c = 2/log n = 0.22, leaving a +0.12 mean bias that shrinks only "
            "logarithmically; the bracketing test below documents the state"
        ),
    )
    def test_two_component_cyclic_mean_window_as_stated(self, two_component_run):
        assert abs(two_component_run.mean["n_cyclic"] - math.sqrt(2.0 / math.pi)) < 0.05

    def test_two_component_mean_between_limit_and_finite_n_proxy(self, two_component_run):
        # the finite-n conditional law sits between its n -> infinity limit
        # (half-normal) and the c = m/log n member of the interpolating
        # density family evaluated at this n
        from scipy.integrate import quad

        from randmap.distributions import Regime, cyclic_points_density

        c_eff = 2.0 / math.log(10_000)
        proxy_mean, _ = quad(
            lambda nu: nu * cyclic_points_density(nu, Regime.pavlov(c_eff)), 1e-12, 12.0
        )
        lo = math.sqrt(2.0 / math.pi)
        assert lo < two_component_run.mean["n_cyclic"] < proxy_mean

    def test_two_component_longest_cycle_direction(self, two_component_run):
        # conjectural intermediate-regime law: at moderate n the conditional
        # cycle lengths run long, so the limit law's median value sits well
        # below one half while staying nondegenerate
        cdf_at_limit_median = two_component_run.lambda1_cdf[0.3903]
        assert 0.1 < cdf_at_limit_median < 0.5


class TestInterplay:
    def test_exhaustive_n2(self):
        # every 2-mapping's longest cycle lies in its largest component
        flags = []
        for image in itertools.product((1, 2), repeat=2):
            s = analyze(Mapping(n=2, image=np.array(image)))
            flags.append(s.largest_component_contains_longest_cycle)
        assert flags == [True] * 4

    def test_estimate_matches_exhaustive_at_n6(self):
        # exact probability over all 6^6 mappings
        total = 0
        hits = 0
        stats = _kernels.batch_stats(
            np.array(list(itertools.product(range(6), repeat=6)), dtype=np.int64)
        )
        hits = int(stats[:, 6].sum())
        total = len(stats)
        exact = hits / total
        est, se = interplay_estimate(6, 40_000, seed=17)
        assert abs(est - exact) <= 3 * se

    def test_nondegenerate_at_moderate_n(self):
        est, se = interplay_estimate(400, 2000, seed=23)
        assert 0.5 < est < 1.0


class TestDrawStream:
    """simulate draws int32 images.  Below 2^32 NumPy's bounded draw takes
    one 32-bit path for int32 and int64, so the int32 draw holds the values
    of the int64 one, and a draw split in parts is the whole draw."""

    @pytest.mark.parametrize("n", [2, 7, 1000, 1023, 1024, 10**4, 3_000_001, MAX_N])
    def test_int32_draw_is_the_int64_draw(self, n):
        rows = max(1, 2**16 // n)
        whole64 = mapping_sim._philox(99, 2).integers(0, n, size=(rows, n), dtype=np.int64)
        whole32 = mapping_sim._philox(99, 2).integers(0, n, size=(rows, n), dtype=np.int32)
        assert whole32.dtype == np.int32
        assert np.array_equal(whole32, whole64)
        del whole64
        rng = mapping_sim._philox(99, 2)
        cut = rows * n // 3
        first = rng.integers(0, n, size=cut, dtype=np.int32)
        rest = rng.integers(0, n, size=rows * n - cut, dtype=np.int32)
        assert np.array_equal(np.concatenate([first, rest]), whole32.ravel())


# SimStats of a small grid, each field as its repr, recorded by _golden_case
# when simulate drew int64 images and ran every worker on a pool thread: the
# draw width and the thread layout may change, the bits of the result may not
with open(os.path.join(os.path.dirname(__file__), "data", "simulate_golden.json")) as fh:
    GOLDEN = json.load(fh)


def _golden_case(key):
    constraint, n, workers = key.split("|")
    return simulate(
        int(n.removeprefix("n=")),
        30,
        constraint=constraint,
        seed=2027,
        workers=int(workers.removeprefix("workers=")),
        cdf_grid=(0.5, 0.7824, 1.0),
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_simulate_keeps_every_field_of_the_golden_grid(key):
    stats = _golden_case(key)
    assert {f.name: repr(getattr(stats, f.name)) for f in dataclasses.fields(stats)} == GOLDEN[key]
