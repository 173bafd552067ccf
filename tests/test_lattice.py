import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latrelay
from latrelay import gf
from latrelay.chain import build_chain
from latrelay.channel import NestedListDecoder
from latrelay.errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    NotNested,
    RejectionBudgetExceeded,
)
from latrelay.lattice import (
    DEFAULT_ENUM_BUDGET,
    SCAN_ELEMENTS,
    Codebook,
    ConstructionALattice,
    _coset_scan,
    _ScanTable,
    enumerate_codebook,
    is_sublattice,
    second_moment,
)
from conftest import (
    _codeword_grid,
    brute_force_nearest,
    direct_scan_nearest,
    integer_lattice,
    message_index_oracle,
    non_prefix_pairs,
    repeat_call_peak,
    second_moment_quadrature,
    shift_rescan_decode,
)


def _rand_lattice(rng, p=None, n=None):
    p = p or int(rng.choice([3, 5]))
    n = n or int(rng.choice([2, 3]))
    k = int(rng.integers(0, n + 1))
    rows = _rand_rows(rng, p, n, k)
    return ConstructionALattice(p, rows, gamma=float(rng.uniform(0.5, 2.0)), n=n)


def _rand_rows(rng, p, n, k):
    while True:
        rows = rng.integers(0, p, size=(k, n))
        lat = None
        try:
            lat = ConstructionALattice(p, rows, gamma=1.0, n=n)
        except ValueError:
            continue
        return lat.rows


class TestNearestPoint:
    def test_integer_lattice_rounding(self):
        lat = integer_lattice(2)
        assert np.allclose(lat.nearest([0.6, -1.2]), [1.0, -1.0])

    def test_zero_is_fixed(self, small_lattice):
        assert np.allclose(small_lattice.nearest(np.zeros(2)), 0.0)

    def test_construction_a_example(self, small_lattice):
        got = small_lattice.nearest([1.4, 0.9])
        want = brute_force_nearest(small_lattice, [1.4, 0.9])
        assert np.allclose(got, want, atol=1e-9)

    def test_matches_brute_force_many(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            lat = _rand_lattice(rng)
            for _ in range(4):
                y = rng.uniform(-2 * lat.gamma * lat.p, 2 * lat.gamma * lat.p,
                                size=lat.n)
                got = lat.nearest(y)
                want = brute_force_nearest(lat, y)
                assert np.allclose(got, want, atol=1e-9), (repr(lat), y)

    def test_tie_break_lexicographic(self):
        # midpoint of a cell edge of Z^2: candidates (0,0) and (1,0)
        lat = integer_lattice(2)
        assert np.allclose(lat.nearest([0.5, 0.0]), [0.0, 0.0])
        assert np.allclose(lat.nearest([0.5, 0.5]), [0.0, 0.0])

    def test_batch_matches_single_on_half_integer_grid(self):
        # Many points of this grid are ties between cosets; the batch must
        # pick the same lexicographically smallest point as a single call.
        lat = ConstructionALattice(3, [[1, 1]], gamma=1.0, n=2)
        grid = np.arange(-6, 7) / 2.0
        pts = np.array(list(itertools.product(grid, grid)))
        assert len(pts) == 169
        single = np.array([lat.nearest(y) for y in pts])
        assert np.array_equal(lat.nearest_many(pts), single)
        assert np.array_equal(lat.mod_many(pts),
                              np.array([lat.mod(y) for y in pts]))
        for y, got in zip(pts, single):
            assert np.allclose(got, brute_force_nearest(lat, y), atol=1e-9)

    def test_batch_matches_single_random(self):
        rng = np.random.default_rng(99)
        lats = [_rand_lattice(rng) for _ in range(20)]
        lats.append(ConstructionALattice(3, _rand_rows(rng, 3, 8, 4),
                                         gamma=0.9, n=8))
        for lat in lats:
            half = rng.integers(-12, 13, size=(20, lat.n)) / 2.0
            cont = rng.uniform(-2 * lat.p, 2 * lat.p, size=(20, lat.n))
            X = lat.gamma * np.vstack([half, cont])
            single = np.array([lat.nearest(x) for x in X])
            assert np.array_equal(lat.nearest_many(X), single), repr(lat)

    def test_dimension_mismatch(self, small_lattice):
        with pytest.raises(DimensionMismatch):
            small_lattice.nearest(np.zeros(3))
        # Batches of the wrong width, for rank 0, 0 < k < n and rank n.
        for k in range(3):
            lat = ConstructionALattice(3, np.eye(2, dtype=int)[:k], n=2)
            for X in (np.full((2, 3), 1.4), np.full((2, 1), 1.4)):
                with pytest.raises(DimensionMismatch):
                    lat.nearest_many(X)
                with pytest.raises(DimensionMismatch):
                    lat.mod_many(X)

    def test_enumeration_budget(self):
        # p^k = 101^4 cosets exceed the budget; the scan raises before it
        # enumerates any of them.
        rng = np.random.default_rng(0)
        rows = _rand_rows(rng, 101, 5, 4)
        lat = ConstructionALattice(101, rows, gamma=1.0, n=5)
        assert 101 ** 4 > DEFAULT_ENUM_BUDGET
        with pytest.raises(EnumerationBudgetExceeded):
            lat.nearest(np.full(5, 0.3))


class TestCosetScanKernel:
    """The kernel's matrix-product scan against the direct coset scan, bit
    for bit, ties included, at batch sizes around one chunk."""

    @pytest.mark.parametrize("p, n, k", [
        (3, 2, 1), (3, 4, 2), (3, 8, 4), (3, 8, 6), (3, 12, 6),
        (2, 8, 4), (5, 8, 4), (7, 8, 4)])
    def test_matches_direct_scan(self, p, n, k):
        lat = build_chain(p, n, [k], gamma=0.5, seed=3)[0]
        chunk = max(1, SCAN_ELEMENTS // max(p ** k, n * p))
        rng = np.random.default_rng(100 * p + 10 * n + k)
        for m in (chunk - 1, chunk, chunk + 1):
            ties = rng.integers(-2 * p, 2 * p + 1, size=(m, n)) / 2.0
            draws = rng.uniform(-p, p, size=(m, n))
            for X in (lat.gamma * ties, lat.gamma * draws):
                want = direct_scan_nearest(lat, X)
                assert np.array_equal(lat.nearest_many(X), want)
                assert np.array_equal(lat.mod_many(X), X - want)
                single = np.array([lat.nearest(x) for x in X])
                assert np.array_equal(single.reshape(want.shape), want)
                # A row's point does not depend on the rows around it.
                perm = rng.permutation(m)
                assert np.array_equal(lat.nearest_many(X[perm]), want[perm])

    @pytest.mark.parametrize("p, n, k", [
        (3, 8, 4), (3, 12, 6), (2, 8, 4), (5, 8, 4)])
    def test_huge_and_non_finite_rows(self, p, n, k):
        # Tie points with coordinates of magnitude 1e150-1e300 (whose
        # squares overflow to inf from about 1e170 on) and with inf or nan
        # coordinates, in one batch. A huge coordinate's squared distance
        # is the same at every residue and swamps the others, so the
        # product and the direct sum see the same ties.
        lat = build_chain(p, n, [k], gamma=0.5, seed=3)[0]
        rng = np.random.default_rng(10 * p + n + k)
        m = 300
        X = lat.gamma * rng.integers(-2 * p, 2 * p + 1, size=(m, n)) / 2.0
        huge = rng.random((m, n)) < 0.2
        X[huge] = (rng.choice([-1.0, 1.0], size=huge.sum())
                   * 10.0 ** rng.uniform(150, 300, size=huge.sum()))
        bad = rng.random((m, n)) < 0.05
        X[bad] = rng.choice([np.inf, -np.inf, np.nan], size=bad.sum())
        with np.errstate(all="ignore"):
            want = direct_scan_nearest(lat, X)
            assert np.array_equal(lat.nearest_many(X), want, equal_nan=True)
            assert np.array_equal(lat.mod_many(X), X - want, equal_nan=True)
            single = np.array([lat.nearest(x) for x in X])
            # Next to a non-finite row, every row keeps its own point.
            nan_row = X[~np.isfinite(X).all(axis=1)][0]
            beside = np.array([lat.nearest_many(np.stack([nan_row, x]))[1]
                               for x in X])
        assert np.array_equal(single, want, equal_nan=True)
        assert np.array_equal(beside, want, equal_nan=True)

    @staticmethod
    def _window_edge_rows(lat, rng, pairs=12, ulps=40):
        """Rows (m, n) in units of gamma beside the bisector of a pair of
        lattice points lo and hi, lo lexicographically first, one a
        shortest vector from the other: each pair's row y on hi's side
        whose distance gap |y - lo| - |y - hi| is the scan's 1e-12 window,
        then y moved by -ulps..ulps coordinate ulps toward lo. Inside the
        window lo wins the tie; beyond it hi is nearest. Returns the rows
        and each row's lo and hi."""
        p, n = lat.p, lat.n
        words = np.array(_codeword_grid(lat))
        lifts = words - p * (words > p / 2)     # centered lifts, 0 first
        vecs = np.vstack([lifts[1:], p * np.eye(n, dtype=int)])
        norms = (vecs * vecs).sum(axis=1)
        short = vecs[norms == norms.min()]
        steps = np.arange(-ulps, ulps + 1)[:, None]
        rows, los, his = [], [], []
        for _ in range(pairs):
            a = lifts[rng.integers(len(lifts))] + p * rng.integers(-1, 2, n)
            lo, hi = sorted([a, a + short[rng.integers(len(short))]],
                            key=tuple)
            s = np.linalg.norm(lo - hi)
            u = (lo - hi) / s                      # from hi toward lo
            w = rng.normal(size=n)
            w -= (w @ u) * u
            w *= 0.05 * s / np.linalg.norm(w)      # off the bisector's axis
            r = np.hypot(s / 2, 0.05 * s)          # |y - lo| ~ |y - hi|
            y = (lo + hi) / 2 + w - 1e-12 * r / s * u   # gap 1e-12
            rows.append(y + steps * np.abs(np.spacing(y)) * np.sign(u))
            los.append(np.repeat(lo[None], len(steps), axis=0))
            his.append(np.repeat(hi[None], len(steps), axis=0))
        return np.vstack(rows), np.vstack(los), np.vstack(his)

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("p, n, k", [
        (3, 2, 1), (3, 4, 2), (3, 8, 4), (5, 4, 2), (2, 8, 4), (3, 8, 6)])
    def test_window_edge(self, p, n, k, gamma):
        # Rows whose two nearest points differ by the 1e-12 window within
        # a few ulps, where the window decides between them: single and
        # batched nearest points match the direct scan, whose window is
        # decided on distances, and the grouped decode matches the
        # shift-and-rescan members, bit for bit.
        ch = build_chain(p, n, [0, k, k + 1], gamma=gamma, seed=3)
        lat, dec = ch[1], ch.list_decoder
        rng = np.random.default_rng(1000 * p + 10 * n + k)
        Y, lo, hi = self._window_edge_rows(lat, rng)
        X = gamma * Y
        step = 64
        want = np.vstack([direct_scan_nearest(lat, X[i:i + step])
                          for i in range(0, len(X), step)])
        assert np.array_equal(lat.nearest_many(X), want)
        assert np.array_equal(np.array([lat.nearest(x) for x in X]), want)
        # Both sides of the edge are reached: the window flips rows to lo.
        unit = np.rint(want / gamma)
        assert np.all(unit == lo, axis=1).any()
        assert np.all(unit == hi, axis=1).any()
        members = np.vstack([shift_rescan_decode(X[i:i + step], ch[0], ch[1],
                                                 ch[2])
                             for i in range(0, len(X), step)])
        want = message_index_oracle(dec.codebook.points,
                                    members.reshape(-1, n), gamma
                                    ).reshape(len(X), dec.list_size)
        assert np.all(want > 0)
        assert np.array_equal(dec.decode_many(X), want)
        assert np.array_equal(
            np.vstack([dec.decode_many(X[i:i + 1]) for i in range(len(X))]),
            want)

    @pytest.mark.parametrize("p, n, k", [(3, 8, 4), (3, 4, 2), (5, 4, 2)])
    def test_inexact_lifts_single_matches_batch(self, p, n, k):
        # Tie-grid rows with coordinates of magnitude 1e10-1e40, whose
        # lifts are inexact from about 1e16 on and whose near ties the
        # product's rounding would decide: one row, the batch and the
        # direct scan still pick the same point.
        lat = build_chain(p, n, [k], gamma=0.5, seed=3)[0]
        rng = np.random.default_rng(7 * p + n + k)
        m = 4000
        X = rng.integers(-2 * p, 2 * p + 1, size=(m, n)) / 2.0
        big = rng.random((m, n)) < 0.3
        X[big] = (rng.choice([-1.0, 1.0], size=big.sum())
                  * 10.0 ** rng.uniform(10, 40, size=big.sum()))
        X *= lat.gamma
        want = np.vstack([direct_scan_nearest(lat, X[i:i + 500])
                          for i in range(0, m, 500)])
        assert np.array_equal(lat.nearest_many(X), want)
        assert np.array_equal(np.array([lat.nearest(x) for x in X]), want)

    @pytest.mark.parametrize("p, n, k", [
        (3, 2, 1), (3, 4, 2), (3, 8, 4), (5, 4, 2), (2, 8, 4), (3, 8, 6)])
    def test_numpy_warnings_by_magnitude(self, p, n, k):
        # Tie-grid rows with coordinates of magnitude 10^e. Up to 1e152 a
        # scan raises no warning. Beyond, a step of the scan may raise one
        # overflow (the squared distances) and one invalid value (inf * 0
        # in the product), and no other: the bound on the squared
        # distances adds no overflow. Steps hold one batch or one row.
        ch = build_chain(p, n, [0, k, k + 1], gamma=0.5, seed=3)
        lat, dec = ch[1], ch.list_decoder
        rng = np.random.default_rng(p + n + k)
        allowed = {"overflow encountered in multiply",
                   "invalid value encountered in matmul"}
        calls = (lat.nearest_many, dec.decode_many,
                 lambda X: lat.nearest(X[0]), lambda X: dec.decode_many(X[:1]))
        seen, m = set(), 8
        for e in np.arange(0.0, 300.5, 2.5):
            X = rng.integers(-2 * p, 2 * p + 1, size=(m, n)) / 4.0
            big = rng.random((m, n)) < 0.5
            X[big] = (rng.choice([-1.0, 1.0], size=big.sum())
                      * 10.0 ** (e + rng.uniform(0, 0.5, size=big.sum())))
            if e + 0.5 <= 152:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for call in calls:
                        call(X)
                continue
            for call in calls:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    call(X)
                messages = [str(w.message) for w in caught]
                assert set(messages) <= allowed, (e, messages)
                assert len(messages) == len(set(messages)), (e, messages)
                seen.update(messages)
        # At p = 2 a huge coordinate's lift is itself: its square is 0.
        assert seen == (allowed if p > 2 else set())

    def test_no_overflow_near_float_maximum(self):
        # Rows of huge coordinates, each one ulp 2^e from its lift, so that
        # no square overflows: 3 in each binade e = 488..511, whose squared
        # distance to every coset, 2^1024 - 2^976, is within the window's
        # slack of the float maximum; and 4 at e = 511, whose sum 2^1024 is
        # past it (the direct scan's sum overflows there). The scan raises
        # no warning, not even on its bound, and all cosets tie.
        p, n = 3, 72
        ch = build_chain(p, n, [0, 1, 2], gamma=1.0, seed=3)
        lat, dec = ch[1], ch.list_decoder
        rng = np.random.default_rng(5)

        def off_by_ulp(e):
            while True:
                v = rng.choice([-1.0, 1.0]) * (
                    2.0 ** (e + 52) + rng.integers(1, 2 ** 52) * 2.0 ** e)
                if abs(np.ceil(v / p - 0.5) * p - v) == 2.0 ** e:
                    return v

        below = [[off_by_ulp(488 + j // 3) for j in range(n)]
                 for _ in range(3)]
        past = [[off_by_ulp(511) for _ in range(4)] + [0.25] * (n - 4)
                for _ in range(3)]
        X = np.array(below + past)
        sq = (np.ceil(X / p - 0.5) * p - X) ** 2
        assert np.all(sq[:3].sum(axis=1) == np.ldexp(2.0 ** 48 - 1, 976))
        assert np.all(sq[3:, :4] == 2.0 ** 1022)
        with np.errstate(over="ignore"):
            want = direct_scan_nearest(lat, X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(lat.nearest_many(X), want)
            assert np.array_equal(np.array([lat.nearest(x) for x in X]),
                                  want)
            batch = dec.decode_many(X)
            assert np.array_equal(
                np.vstack([dec.decode_many(X[i:i + 1])
                           for i in range(len(X))]), batch)


class TestScanWorkArrays:
    """Each scan table keeps the work arrays of one step of rows and
    reuses them: a repeated one-step scan allocates no (rows x cosets)
    table, and what a scan returns never shares memory with them."""

    @staticmethod
    def _lattice():
        # The list lattice of the p2p_n8 chain: p^k = 3^4 cosets at n = 8.
        return build_chain(3, 8, [0, 4, 6], gamma=2 / 3 ** 0.5, seed=1)[1]

    def test_repeat_scan_allocates_no_distance_table(self):
        lat = self._lattice()
        X = np.random.default_rng(0).uniform(-2, 2, size=(360, 8))
        assert 360 <= max(1, SCAN_ELEMENTS // 81)     # one step
        assert repeat_call_peak(lat.nearest_many, X) < 360 * 81 * 8

    def test_results_do_not_alias_work_arrays(self):
        lat = self._lattice()
        rng = np.random.default_rng(1)
        X, x = rng.uniform(-2, 2, size=(50, 8)), rng.uniform(-2, 2, size=8)
        many, one = lat.nearest_many(X), lat.nearest(x)
        kept_many, kept_one = many.copy(), one.copy()
        lat.nearest_many(rng.uniform(-2, 2, size=(50, 8)))
        lat.nearest(rng.uniform(-2, 2, size=8))
        assert np.array_equal(many, kept_many)
        assert np.array_equal(one, kept_one)

    @pytest.mark.parametrize("p, n, k", [(3, 8, 4), (3, 2, 1), (5, 4, 2)])
    def test_growth_matches_direct_scan(self, p, n, k):
        # Through one table: batches of 3 and 4 rows (the kept arrays grow
        # by one row), one of two steps (whose steps allocate their own
        # arrays), one full step (the kept arrays grow) and a short batch
        # on views of them.
        lat = build_chain(p, n, [k], gamma=0.5, seed=3)[0]
        chunk = max(1, SCAN_ELEMENTS // max(p ** k, n * p))
        rng = np.random.default_rng(p + n + k)
        for m in (3, 4, chunk + 1, chunk, 2):
            X = lat.gamma * rng.integers(-2 * p, 2 * p + 1, size=(m, n)) / 2.0
            X[::2] += rng.uniform(-0.3, 0.3, size=X[::2].shape)
            assert np.array_equal(lat.nearest_many(X),
                                  direct_scan_nearest(lat, X))

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["one_group", "list_groups"])
    def test_step_views_match_fresh_table(self, grouped):
        # One table through steps of 1, chunk and chunk + 1 rows, 1 again
        # after the larger steps, and row counts that change at every
        # step: each result equals that of a fresh table, which builds its
        # arrays and views for that batch alone, and a one-step batch's
        # views are of the table's kept arrays, not of arrays it dropped.
        ch = build_chain(3, 8, [0, 4, 6], gamma=2 / 3 ** 0.5, seed=1)
        if grouped:
            def fresh():
                return NestedListDecoder(ch[0], ch[1], ch[2])._scan
        else:
            def fresh():
                return _ScanTable(3, ch[1].rows, np.zeros((1, 8), dtype=int))
        table = fresh()
        chunk = table.chunk
        sizes = [1, chunk, chunk + 1, 1, 1] + list(range(2, 10)) + [1, chunk]
        rng = np.random.default_rng(4)
        for m in sizes:
            Y = rng.integers(-6, 7, size=(m, 8)) / 2.0
            Y[::2] += rng.uniform(-0.3, 0.3, size=Y[::2].shape)
            got = _coset_scan(Y, table)
            assert np.array_equal(got, _coset_scan(Y, fresh())), m
            if m <= chunk:
                assert np.shares_memory(table.step(m)[0], table._work[0])


def _kept_arrays(obj):
    """Every array ``obj`` holds, directly, in a tuple, or in a scan
    table it holds, views included."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, _ScanTable):
            found += _kept_arrays(value)
        elif isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, np.ndarray):
                    found.append(item)
                elif isinstance(item, tuple):
                    found += [v for v in item if isinstance(v, np.ndarray)]
    return found


class TestFreshResults:
    """The rounding runs in place on a buffer of its own: nearest_many
    returns a fresh, writable array, and mod_many writes its difference
    over that array, so its input stays as it was."""

    # Rank 0, a scanned rank and rank n of one chain.
    CHAIN = build_chain(3, 4, [0, 2, 4], gamma=0.7, seed=5)

    @pytest.mark.parametrize("m", [1, 7], ids=["one_row", "many_rows"])
    @pytest.mark.parametrize("i", [0, 1, 2], ids=["rank0", "scanned", "rankn"])
    def test_nearest_many_is_fresh(self, i, m):
        lat = self.CHAIN[i]
        X = np.random.default_rng(i + m).uniform(-3, 3, size=(m, 4))
        first = lat.nearest_many(X)
        second = lat.nearest_many(X)   # a repeat reuses any kept arrays
        assert np.array_equal(first, second)
        for Q in (first, second):
            assert Q.flags.writeable
            assert not np.shares_memory(Q, X)
            for kept in _kept_arrays(lat):
                assert not np.shares_memory(Q, kept)
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("m", [1, 7], ids=["one_row", "many_rows"])
    @pytest.mark.parametrize("i", [0, 1, 2], ids=["rank0", "scanned", "rankn"])
    def test_mod_many_keeps_its_input(self, i, m):
        lat = self.CHAIN[i]
        X = np.random.default_rng(10 + i + m).uniform(-3, 3, size=(m, 4))
        before = X.copy()
        R = lat.mod_many(X)
        assert np.array_equal(X, before)
        assert not np.shares_memory(R, X)
        assert np.array_equal(R, X - lat.nearest_many(X))

    @pytest.mark.parametrize("gamma", [1e-100, 1.0, 1e100])
    def test_round_formulas_on_tie_grid(self, gamma):
        # Half-integer multiples of gamma: at rank n every coordinate is a
        # tie or a lattice coordinate, at rank 0 every third one a tie.
        p, n = 3, 2
        grid = np.arange(-12, 13) / 2.0
        X = gamma * np.array(list(itertools.product(grid, grid)))
        Y = X / gamma
        cube = ConstructionALattice(p, np.zeros((0, n), int), gamma, n=n)
        ints = ConstructionALattice(p, np.eye(n, dtype=int), gamma, n=n)
        assert np.array_equal(cube.nearest_many(X),
                              gamma * p * np.ceil(Y / p - 0.5))
        assert np.array_equal(ints.nearest_many(X),
                              gamma * np.ceil(Y - 0.5))


class TestZeroAtAnyScale:
    """Nearest points are gamma times integers, so "the nearest point is
    0" is an exact test at every gamma: no absolute tolerance decides it.
    The oracles work at unit scale."""

    ROWS = [[1, 1]]

    @pytest.mark.parametrize("gamma", [1e-12, 1.0, 1e12])
    def test_voronoi_draws_lie_in_the_cell(self, gamma):
        lat = ConstructionALattice(3, self.ROWS, gamma=gamma)
        unit = ConstructionALattice(3, self.ROWS, gamma=1.0)
        rng = np.random.default_rng(11)
        U = np.array([lat.sample_voronoi(rng) for _ in range(500)])
        assert not brute_force_nearest(unit, U / gamma).any()

    @pytest.mark.parametrize("gamma", [1e-12, 1e12])
    def test_second_moment_scales_as_gamma_squared(self, gamma):
        lat = ConstructionALattice(3, self.ROWS, gamma=gamma)
        unit = ConstructionALattice(3, self.ROWS, gamma=1.0)
        assert second_moment(lat) / gamma ** 2 == pytest.approx(
            second_moment(unit), rel=1e-9)


class TestModLattice:
    def test_integer_lattice(self):
        lat = integer_lattice(2)
        assert np.allclose(lat.mod([0.6, -1.2]), [-0.4, -0.2])

    def test_lattice_point_maps_to_zero(self, small_lattice):
        t = small_lattice.gamma * np.array([4.0, 1.0])   # (1,1) + 3*(1,0)
        assert np.allclose(small_lattice.mod(t), 0.0, atol=1e-9)

    def test_consistency_with_nearest(self, small_lattice):
        y = np.array([1.4, 0.9])
        r = small_lattice.mod(y)
        assert np.allclose(r, y - brute_force_nearest(small_lattice, y),
                           atol=1e-9)

    @given(st.lists(st.floats(-8, 8), min_size=2, max_size=2),
           st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, coords, seed):
        rng = np.random.default_rng(seed)
        lat = _rand_lattice(rng, n=2)
        r = lat.mod(np.array(coords))
        assert np.allclose(lat.mod(r), r, atol=1e-9)

    @given(st.lists(st.floats(-8, 8), min_size=2, max_size=2),
           st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_centro_symmetry(self, coords, seed):
        # Q(r) = 0 implies Q(-r) = 0 unless -r is on the cell boundary,
        # i.e. -r is as close to Q(-r) as to 0 and the tie rule chose Q(-r).
        rng = np.random.default_rng(seed)
        lat = _rand_lattice(rng, n=2)
        r = lat.mod(np.array(coords))
        q = lat.nearest(-r)
        tie = abs(np.linalg.norm(-r - q) - np.linalg.norm(r)) < 1e-9
        assert tie or np.linalg.norm(q) < 1e-6


class TestVolumeAndConstruction:
    def test_volume_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lat = _rand_lattice(rng)
            assert lat.volume == pytest.approx(
                lat.gamma ** lat.n * lat.p ** (lat.n - lat.k), rel=1e-12)

    def test_rank_zero_is_scaled_pZn(self):
        lat = ConstructionALattice(3, np.zeros((0, 2), dtype=int),
                                   gamma=0.5, n=2)
        assert np.allclose(lat.nearest([1.6, -1.4]), [1.5, -1.5])

    def test_rank_n_is_scaled_Zn(self):
        lat = ConstructionALattice(3, np.eye(2, dtype=int), gamma=2.0, n=2)
        assert np.allclose(lat.nearest([2.9, -0.8]), [2.0, 0.0])

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError):
            ConstructionALattice(3, [[1, 1]], gamma=gamma, n=2)

    @pytest.mark.parametrize("gamma", [5e-324, sys.float_info.min / 2])
    def test_subnormal_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="subnormal"):
            ConstructionALattice(3, [[1, 1]], gamma=gamma, n=2)
        assert ConstructionALattice(3, [[1, 1]], gamma=sys.float_info.min,
                                    n=2).gamma == sys.float_info.min

    @pytest.mark.parametrize("p, rows", [
        (3, [[1, 1], [2, 2]]),
        (2, [[1, 0], [1, 0]]),
        (5, [[0, 0]]),
        (3, [[1, 0], [0, 1], [1, 1]]),
    ])
    def test_dependent_rows_rejected(self, p, rows):
        with pytest.raises(ValueError, match="linearly dependent"):
            ConstructionALattice(p, rows, n=2)

    def test_import_loads_only_numpy(self):
        # A fresh `import latrelay` may add the standard library and numpy
        # to sys.modules, and no other third-party package.
        src = str(Path(latrelay.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys\n"
                "before = {m.split('.')[0] for m in sys.modules}\n"
                "import latrelay\n"
                "after = {m.split('.')[0] for m in sys.modules}\n"
                "print(' '.join(sorted(after - before)))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        loaded = set(out.stdout.split())
        assert {"latrelay", "numpy"} <= loaded
        assert not loaded & {"sympy", "scipy", "hypothesis", "pytest"}
        assert loaded - sys.stdlib_module_names <= {"latrelay", "numpy"}


class TestSecondMoment:
    # Exact per-dimension second moments, sigma^2 = G V^(2/n): D4 from the
    # [4,3] even-weight code at p = 2 (G = 13 / (120 sqrt 2), V = 2) and
    # sqrt2 E8 from the [8,4,4] extended Hamming code (G = 929 / 12960,
    # V = 16); Conway and Sloane, ch. 21.
    D4 = ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 13 / 120)
    E8 = ([[1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1, 0, 0],
           [0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 0, 1, 0, 1]], 929 / 6480)

    @pytest.mark.parametrize("rows, exact", [D4, E8], ids=["D4", "E8"])
    def test_exact_oracles(self, rows, exact):
        lat = ConstructionALattice(2, rows)
        assert second_moment(lat) == pytest.approx(exact, rel=1e-3)

    def test_against_grid_quadrature(self, small_lattice):
        for lat in (small_lattice, ConstructionALattice(5, [[1, 2]])):
            assert second_moment(lat) == pytest.approx(
                second_moment_quadrature(lat, grid=300), rel=5e-4)

    def test_unit_interval(self):
        assert second_moment(integer_lattice(1)) == 1 / 12

    def test_scaling(self):
        g = 1.7
        assert second_moment(integer_lattice(1, gamma=g)) == g * g / 12

    def test_cubic_cell_exact(self):
        # Bit-equal to the closed forms at rank 0 and rank n.
        for gamma, p, n in itertools.product((0.8, 1e-12, 1e12),
                                             (2, 3, 7), (1, 2, 8)):
            coarse = ConstructionALattice(p, np.zeros((0, n), dtype=int),
                                          gamma=gamma, n=n)
            fine = ConstructionALattice(p, np.eye(n, dtype=int), gamma=gamma)
            assert second_moment(coarse) == (gamma * p) ** 2 / 12
            assert second_moment(fine) == gamma ** 2 / 12

    @staticmethod
    def _mod_loop(lat, samples, seed):
        # Oracle: one-vector mod calls over the cube draw of draw_cell.
        h = lat.gamma * lat.p / 2
        box = np.random.default_rng(seed).uniform(-h, h, (samples, lat.n))
        return np.array([lat.mod(u) for u in box])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equals_per_sample_loop(self, k):
        rows = np.array([[1, 1], [0, 1]])[:k]
        lat = ConstructionALattice(3, rows, gamma=0.8, n=2)
        for seed, samples in itertools.product(range(4), (1, 9, 2000)):
            assert np.array_equal(
                lat.draw_cell(np.random.default_rng(seed), samples),
                self._mod_loop(lat, samples, seed))

    def test_equals_per_sample_loop_n8(self):
        rng = np.random.default_rng(6)
        lat = ConstructionALattice(3, _rand_rows(rng, 3, 8, 3), gamma=1.1, n=8)
        for seed in range(3):
            U = self._mod_loop(lat, 300, seed)
            assert np.array_equal(
                lat.draw_cell(np.random.default_rng(seed), 300), U)
            assert not direct_scan_nearest(lat, U).any()

    def test_cell_with_tiny_acceptance_ratio(self):
        # Z^8 fills 7^-8 of its box of side 7, so a rejection sampler would
        # give up here; the reduced cube draw is uniform on the unit cube.
        lat = ConstructionALattice(7, np.eye(8, dtype=int), n=8)
        U = lat.draw_cell(np.random.default_rng(0), 2000)
        se = np.sqrt((1 / 80 - 1 / 144) / (2000 * 8))   # sd of the mean u^2
        assert abs(np.mean(U * U) - second_moment(lat)) < 3 * se


class TestIsSublattice:
    def test_pZn_inside_every_construction_a(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            lat = _rand_lattice(rng)
            coarse = ConstructionALattice(lat.p, np.zeros((0, lat.n), dtype=int),
                                          gamma=lat.gamma, n=lat.n)
            assert is_sublattice(coarse, lat)

    def test_direction_matters(self):
        fine = integer_lattice(2)
        coarse = ConstructionALattice(2, np.zeros((0, 2), dtype=int), n=2)
        assert is_sublattice(coarse, fine)
        assert not is_sublattice(fine, coarse)

    def test_code_rows_agree_with_codeword_sets(self):
        # Oracle: the coarse code's codewords, enumerated coefficient
        # vector by coefficient vector, are all fine codewords.
        def codeword_set(rows, p):
            return {tuple(np.dot(c, rows).astype(int) % p)
                    for c in itertools.product(range(p), repeat=len(rows))}

        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(60):
            p = int(rng.choice([3, 5]))
            n = int(rng.choice([2, 3, 4]))
            gamma = float(rng.uniform(0.5, 2.0))
            rows = _rand_rows(rng, p, n, int(rng.integers(0, n + 1)))
            fine = ConstructionALattice(p, rows, gamma=gamma, n=n)
            kc = int(rng.integers(0, n + 1))
            nested = bool(rng.integers(0, 2)) and kc <= fine.k
            coarse_rows = rows[:kc] if nested else _rand_rows(rng, p, n, kc)
            coarse = ConstructionALattice(p, coarse_rows, gamma=gamma, n=n)
            want = codeword_set(coarse_rows, p) <= codeword_set(rows, p)
            assert is_sublattice(coarse, fine) == want
            assert not nested or want
            seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("a, b", [
        (integer_lattice(2), integer_lattice(2, gamma=2.0)),
        (ConstructionALattice(3, np.zeros((0, 2), dtype=int), n=2),
         ConstructionALattice(5, np.eye(2, dtype=int), n=2)),
    ], ids=["gamma", "p"])
    def test_cross_family_pair_not_nested(self, a, b):
        for coarse, fine in ((a, b), (b, a)):
            with pytest.raises(NotNested, match="share p and gamma"):
                is_sublattice(coarse, fine)
            with pytest.raises(NotNested, match="share p and gamma"):
                enumerate_codebook(coarse, fine)
            with pytest.raises(NotNested, match="share p and gamma"):
                NestedListDecoder(coarse, fine, fine)

    def test_prefix_rows_nested_and_oracle(self):
        p, n = 3, 2
        rows = np.array([[1, 2], [0, 1]])
        fine = ConstructionALattice(p, rows, gamma=1.0, n=n)
        coarse = ConstructionALattice(p, rows[:1], gamma=1.0, n=n)
        assert is_sublattice(coarse, fine)
        # oracle: every coarse point in a box is a fine point
        for c in range(p):
            for m in itertools.product(range(-2, 3), repeat=n):
                pt = (c * rows[0]) % p + p * np.array(m)
                assert np.allclose(fine.nearest(pt.astype(float)), pt,
                                   atol=1e-9)


class TestVoronoiSampling:
    def test_rejection_budget(self, monkeypatch):
        # With one attempt per sample, a first box draw outside the cell
        # exhausts the budget.
        monkeypatch.setattr("latrelay.lattice.REJECTION_ATTEMPTS", 1)
        lat = ConstructionALattice(3, [[1, 1]], gamma=1.0)
        h = lat.voronoi_box_halfwidth()
        seed = next(s for s in range(100) if lat.nearest(
            np.random.default_rng(s).uniform(-h, h, size=2)).any())
        with pytest.raises(RejectionBudgetExceeded, match="no accept in 1"):
            lat.sample_voronoi(np.random.default_rng(seed))

    def test_integer_lattice_is_uniform_box(self):
        rng = np.random.default_rng(4)
        lat = integer_lattice(2)
        pts = np.array([lat.sample_voronoi(rng) for _ in range(2000)])
        assert np.all(np.abs(pts) <= 0.5 + 1e-12)
        assert np.max(np.abs(pts.mean(axis=0))) < 4 * 0.29 / np.sqrt(2000)

    def test_acceptance_condition(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            lat = _rand_lattice(rng, n=2)
            for _ in range(50):
                u = lat.sample_voronoi(rng)
                assert np.allclose(lat.nearest(u), 0.0, atol=1e-9)

    def test_mean_zero(self, small_lattice):
        rng = np.random.default_rng(17)
        pts = np.array([small_lattice.sample_voronoi(rng)
                        for _ in range(20_000)])
        sd = np.sqrt(second_moment(small_lattice))
        assert np.max(np.abs(pts.mean(axis=0))) < 4 * sd / np.sqrt(20_000)


class TestEnumerateCodebook:
    def test_identical_pair_single_entry(self, small_lattice):
        codebook = enumerate_codebook(small_lattice, small_lattice)
        assert codebook.shape == (1, 2)
        assert np.allclose(codebook[0], 0.0)

    def test_pZn_in_Zn_counts(self):
        coarse = ConstructionALattice(3, np.zeros((0, 2), dtype=int), n=2)
        fine = ConstructionALattice(3, np.eye(2, dtype=int), n=2)
        codebook = enumerate_codebook(coarse, fine)
        assert len(codebook) == 9

    def test_p3_chain_three_entries(self, small_lattice):
        coarse = small_lattice.with_rank(0)
        codebook = enumerate_codebook(coarse, small_lattice)
        assert len(codebook) == 3
        rate = np.log2(len(codebook)) / 2
        assert rate == pytest.approx(0.5 * np.log2(3), rel=1e-12)

    def test_entries_in_coarse_cell_and_bijective(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            fine = _rand_lattice(rng, n=2)
            coarse = fine.with_rank(0)
            codebook = enumerate_codebook(coarse, fine)
            assert len(codebook) == fine.p ** fine.k
            seen = set()
            for t in codebook:
                assert np.allclose(coarse.nearest(t), 0.0, atol=1e-9)
                seen.add(tuple(np.round(t / fine.gamma, 9)))
            assert len(seen) == len(codebook)

    def test_rows_in_integer_lexicographic_order(self):
        # Coarse ranks strictly between 0 and n give points whose equal
        # integer coordinates can differ in the last bits; the order must
        # follow the integer coordinates, not those bits.
        for p, gamma in ((5, 0.37), (7, 1 / 3), (7, 0.99)):
            for seed in range(4):
                ch = build_chain(p, 3, [0, 1, 2, 3], gamma=gamma, seed=seed)
                for i, j in ((1, 2), (1, 3), (2, 3)):
                    codebook = enumerate_codebook(ch[i], ch[j])
                    keys = [tuple(k) for k in
                            np.rint(codebook / gamma).astype(int).tolist()]
                    assert keys == sorted(set(keys)), (p, gamma, seed, i, j)

    def test_count_exact_where_volumes_underflow(self):
        # gamma^4 underflows to 0 at gamma = 1e-300; the codebook still
        # holds p^(k_fine - k_coarse) points, the gamma = 1 codebook scaled.
        tiny = build_chain(3, 4, [0, 2, 4], gamma=1e-300, seed=2)
        unit = build_chain(3, 4, [0, 2, 4], gamma=1.0, seed=2)
        assert tiny[0].volume == 0.0
        for i, j in ((0, 2), (0, 1), (1, 2)):
            codebook = enumerate_codebook(tiny[i], tiny[j])
            assert len(codebook) == 3 ** (tiny[j].k - tiny[i].k)
            assert np.array_equal(np.rint(codebook / 1e-300),
                                  enumerate_codebook(unit[i], unit[j]))
        assert tiny.list_decoder.list_size == 9

    def test_not_nested_raises(self):
        with pytest.raises(NotNested):
            enumerate_codebook(integer_lattice(2), integer_lattice(2, gamma=2.0))
        with pytest.raises(NotNested):
            enumerate_codebook(integer_lattice(2), integer_lattice(2).with_rank(0))
        z2 = ConstructionALattice(3, np.eye(2, dtype=int), n=2)
        with pytest.raises(NotNested):
            NestedListDecoder(z2, z2.with_rank(0), z2.with_rank(0))


class TestCodebookIndex:
    # Every pair of a chain, so fine ranks below n put the pivots of
    # gf.rref(fine.rows) on other coordinates than the first k.
    CASES = ((3, 2, 1.0), (5, 3, 0.37), (7, 2, 0.99), (2, 4, 1.3))

    @staticmethod
    def _pairs(p, n, gamma):
        ch = build_chain(p, n, list(range(n + 1)), gamma=gamma, seed=2)
        return [(ch[i], ch[j]) for i in range(n + 1) for j in range(i, n + 1)]

    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(41)
        for p, n, gamma in self.CASES:
            self._check_pairs(rng, p, n, gamma)

    def _check_pairs(self, rng, p, n, gamma):
        for coarse, fine in self._pairs(p, n, gamma):
            book = Codebook(coarse, fine)
            codebook = enumerate_codebook(coarse, fine)
            assert np.array_equal(book.points, codebook)
            assert len(book) == len(codebook)
            # Every row maps to its own index, also off by rounding.
            noisy = codebook * (1 + 1e-13 * rng.standard_normal(
                codebook.shape))
            for pts in (codebook, noisy):
                assert book.index(pts).tolist() == \
                    list(range(1, len(codebook) + 1))
            # Integer points inside and outside the cell, on and off the
            # fine lattice, as the oracle.
            Q = gamma * rng.integers(-p, p + 1, size=(200, n))
            want = message_index_oracle(codebook, Q, gamma)
            assert np.array_equal(book.index(Q), want)
            assert 0 in want
            on_fine = gf.in_rowspan_many(fine.rows, np.rint(Q / gamma)
                                         .astype(np.int64) % p, p)
            assert not np.any(want[~on_fine])
            if fine.k < n:
                assert not on_fine.all()

    @pytest.mark.parametrize("p, n, gamma", CASES)
    def test_classes_of_fine_points(self, p, n, gamma):
        # Each fine point's class is the codebook row of its reduction.
        rng = np.random.default_rng(43)
        for coarse, fine in self._pairs(p, n, gamma):
            book = Codebook(coarse, fine)
            words = (rng.integers(0, p, size=(100, fine.k)) @ fine.rows
                     + p * rng.integers(-2, 3, size=(100, n)))
            want = message_index_oracle(
                book.points, coarse.mod_many(gamma * words), gamma)
            assert np.all(want > 0)
            assert np.array_equal(book.classes(words), want)

    def test_non_prefix_pairs_match_box_oracle(self):
        # Coarse rows that are combinations of the fine rows: the codebook
        # is the box's fine points whose direct-scan nearest coarse point
        # is 0, in integer lexicographic order, and each fine point's
        # class is the row of its direct-scan reduction.
        rng = np.random.default_rng(47)
        for coarse, fine in non_prefix_pairs():
            p, n, gamma = fine.p, fine.n, fine.gamma
            book = Codebook(coarse, fine)
            box = np.array(list(itertools.product(
                range(-(p // 2) - 1, p // 2 + 2), repeat=n)))
            box = box[gf.in_rowspan_many(fine.rows, box % p, p)]
            inside = ~direct_scan_nearest(coarse, gamma * box).any(axis=1)
            want = sorted(map(tuple, box[inside].tolist()))
            assert len(want) == p ** (fine.k - coarse.k)
            assert np.rint(book.points / gamma).astype(int).tolist() == \
                [list(w) for w in want]
            words = (gf.all_codewords(fine.rows, p)
                     + p * rng.integers(-2, 3, size=(p ** fine.k, n)))
            X = gamma * words
            want = message_index_oracle(
                book.points, X - direct_scan_nearest(coarse, X), gamma)
            assert np.all(want > 0)
            assert np.array_equal(book.classes(words), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 1e20])
    def test_non_finite_and_huge_rows_index_zero(self, bad):
        # Pyproject turns numpy's invalid-value warnings into errors, so
        # this also checks that none is raised.
        for coarse, fine in self._pairs(5, 3, 0.37):
            book = Codebook(coarse, fine)
            rows = np.repeat(book.points[:1], 4, axis=0)
            rows[0, 0] = rows[1, 2] = bad
            rows[2] = bad
            got = book.index(rows)
            assert got.tolist() == [0, 0, 0, 1]

    def test_read_only(self):
        book = Codebook(*self._pairs(3, 2, 1.0)[1])
        with pytest.raises(ValueError):
            book.points[0, 0] = 1.0

    def test_table_budget(self, monkeypatch):
        # One codebook point, but a class table of 3^2 entries.
        monkeypatch.setattr("latrelay.lattice.DEFAULT_ENUM_BUDGET", 8)
        z2 = ConstructionALattice(3, np.eye(2, dtype=int))
        with pytest.raises(EnumerationBudgetExceeded):
            Codebook(z2, z2)
