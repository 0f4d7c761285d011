import math
import threading

import numpy as np
import pytest

from randmap import _kernels
from randmap.exact_enum import EnumerationSizeError, enumerate_all
from randmap.gfseries import a_count
from randmap.mapping_sim import simulate


def _stirling1(l, m):
    """Unsigned Stirling number of the first kind: permutations of l with m cycles."""
    if l == m:
        return 1
    if m == 0 or m > l:
        return 0
    return _stirling1(l - 1, m - 1) + (l - 1) * _stirling1(l - 1, m)


def _closed_form_count(n, m, l):
    """Mappings of n with m components and l cyclic points: a permutation of
    the l cyclic points and a forest of rooted trees on the rest."""
    if l == n:
        return _stirling1(n, m)
    if l == 0:
        return 0
    return math.comb(n, l) * l * n ** (n - l - 1) * _stirling1(l, m)


def _odometer_slice(n, first):
    """Brute-force tally of the slice image[0] = first: every mixed-radix
    index i < n^n with i % n == first is unranked to image[j] = (i // n^j) % n,
    analyzed by batch_stats and binned by (M, N, lam1, lam2)."""
    shape = (n + 1,) * 4
    idx = np.arange(first, n**n, n, dtype=np.int64)
    stats = _kernels.batch_stats(idx[:, None] // n ** np.arange(n, dtype=np.int64) % n)
    cell = np.ravel_multi_index((stats[:, 5], stats[:, 4], stats[:, 0], stats[:, 1]), shape)
    return np.bincount(cell, minlength=(n + 1) ** 4).reshape(shape)


@pytest.fixture(scope="module")
def tables():
    return {n: enumerate_all(n) for n in range(1, 8)}


class TestSmallCases:
    def test_n1(self, tables):
        t = tables[1]
        assert t.total() == 1
        assert t.a(1, 1) == 1
        assert t.joint[1, 1, 1, 0] == 1  # M = N = lam1 = 1, no second cycle

    def test_n2_hand_enumeration(self, tables):
        t = tables[2]
        assert t.a(1, 1) == 2
        assert t.a(1, 2) == 1
        assert t.a(2, 2) == 1
        assert t.connected_count == 3

    def test_n3(self, tables):
        t = tables[3]
        assert t.total() == 27
        assert t.connected_count == 17

    def test_size_guard(self):
        with pytest.raises(EnumerationSizeError):
            enumerate_all(8)

    @pytest.mark.parametrize("n", [6.5, 0.5, float("nan"), float("inf")])
    def test_non_integral_n_is_refused_before_any_thread(self, monkeypatch, n):
        def refused(*args, **kwargs):
            raise AssertionError("work started on a refused n")

        monkeypatch.setattr(threading.Thread, "start", refused)
        monkeypatch.setattr(_kernels, "enumerate_tally", refused)
        with pytest.raises(EnumerationSizeError):
            enumerate_all(n)

    def test_integral_float_n_is_that_n(self, tables):
        t = enumerate_all(6.0)
        assert t.n == 6 and type(t.n) is int
        assert np.array_equal(t.joint, tables[6].joint)
        assert np.array_equal(_kernels.enumerate_tally(6.0), tables[6].joint)

    @pytest.mark.parametrize("n", [0, 2.5, float("nan"), float("inf")])
    def test_tally_refuses_non_integral_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            _kernels.enumerate_tally(n)

    @pytest.mark.parametrize(
        "workers", [0, 1.5, _kernels.MAX_WORKERS + 1, float("nan"), float("inf"), "2", "abc"]
    )
    def test_explicit_workers_are_still_checked(self, workers):
        with pytest.raises(ValueError, match="workers must lie in"):
            enumerate_all(3, workers=workers)

    @pytest.mark.parametrize(
        "m, l", [(-1, 3), (4, 0), (0, -1), (3, 4), (1.5, 1), (float("nan"), 1), (1, float("inf"))]
    )
    def test_count_outside_the_table_is_refused(self, tables, m, l):
        # a(-1, 3) wrapped round to the m = 3 row and returned 1
        with pytest.raises(ValueError, match=r"a\(m, l\) needs integers 0 <= m, l <= n = 3"):
            tables[3].a(m, l)

    def test_count_at_the_table_edges(self, tables):
        t = tables[3]
        assert t.a(0, 0) == 0 and t.a(3, 3) == 1 and t.a(3.0, 3.0) == 1


class TestInvariants:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_total_mass(self, tables, n):
        assert tables[n].total() == n**n

    @pytest.mark.parametrize("n", range(2, 8))
    def test_counts_match_generating_function(self, tables, n):
        t = tables[n]
        for m in range(1, n + 1):
            for l in range(1, n + 1):
                assert t.a(m, l) == a_count(n, m, l)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_generating_function_matches_closed_form(self, n):
        # every cell the series supports, zeros included, past the n <= 7
        # that enumeration reaches
        for m in range(1, n + 1):
            for l in range(n + 1):
                assert a_count(n, m, l) == _closed_form_count(n, m, l), (n, m, l)

    def test_connected_equals_m1_row(self, tables):
        for n in range(1, 8):
            t = tables[n]
            assert t.connected_count == int(t.counts[1, :].sum())

    def test_connected_trend_toward_asymptotic(self, tables):
        # P{M=1} * sqrt(2n/pi) increases toward 1 over n = 3..7
        vals = []
        for n in range(3, 8):
            t = tables[n]
            vals.append(t.connected_count / n**n * math.sqrt(2.0 * n / math.pi))
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_workers_do_not_change_tallies(self):
        for n in range(1, 7):
            one = enumerate_all(n, workers=1)
            for m in range(n + 1):
                for l in range(n + 1):
                    assert one.a(m, l) == _closed_form_count(n, m, l), (n, m, l)
            for workers in (2, 3, n):
                t = enumerate_all(n, workers=workers)
                assert np.array_equal(t.counts, one.counts), (n, workers)
                assert np.array_equal(t.joint, one.joint), (n, workers)
                assert t.connected_count == one.connected_count

    def test_one_tally_call_on_the_calling_thread(self, monkeypatch):
        # the whole tree is tallied by one call, with no slices and no pool
        tally = _kernels.enumerate_tally
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs, threading.current_thread()))
            return tally(*args, **kwargs)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(_kernels, "enumerate_tally", counting)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        for n in range(1, 7):
            for workers in (None, 1, 2, n):
                calls.clear()
                enumerate_all(n, workers=workers)
                assert calls == [((n,), {}, threading.main_thread())], (n, workers)


class TestAgainstOdometer:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_slice_matches_brute_force(self, n):
        # the reference is summed over the slices image[0] = first, so its
        # memory peak stays that of one slice
        ref = sum(_odometer_slice(n, first) for first in range(n))
        got = _kernels.enumerate_tally(n)
        assert got.dtype == np.int64 and got.shape == ref.shape, n
        assert np.array_equal(got, ref), n
        assert int(got.sum()) == n**n, n

    def test_rows_analyzed_per_call(self, monkeypatch):
        # the tree makes n * n! canonical rows, built afresh each call
        analyze = _kernels._batch_stats
        rows = []

        def counting(images):
            rows.append(len(images))
            return analyze(images)

        monkeypatch.setattr(_kernels, "_batch_stats", counting)
        for n in range(1, 8):
            rows.clear()
            enumerate_all(n)
            enumerate_all(n)
            assert rows == [n * math.factorial(n)] * 2, n


class TestAgainstSimulation:
    def test_exact_mean_lambda1_matches_simulation(self, tables):
        t = tables[7]
        exact = t.mean_lambda1()
        stats = simulate(7, 1_000_000, seed=99)
        sim_mean = stats.mean["lambda1"] * math.sqrt(7)
        se = stats.standard_error["lambda1"] * math.sqrt(7)
        assert abs(sim_mean - exact) <= 4 * se
