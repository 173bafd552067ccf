import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latrelay
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
    ConstructionALattice,
    codebook_index,
    enumerate_codebook,
    integer_lattice,
    is_sublattice,
    second_moment,
)
from conftest import (
    brute_force_nearest,
    direct_scan_nearest,
    second_moment_quadrature,
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
        chunk = max(1, SCAN_ELEMENTS // p ** k)
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
    def test_unit_interval(self):
        lat = integer_lattice(1)
        est = second_moment(lat, 20_000, seed=1)
        se = (1 / 12) / np.sqrt(20_000)   # rough scale of the estimator sd
        assert abs(est - 1 / 12) < 3 * 4 * se

    def test_scaling(self):
        g = 1.7
        est = second_moment(integer_lattice(1, gamma=g), 20_000, seed=1)
        assert est == pytest.approx(g * g / 12, rel=0.05)

    def test_against_grid_quadrature(self, small_lattice):
        mc = second_moment(small_lattice, 40_000, seed=3)
        quad = second_moment_quadrature(small_lattice, grid=140)
        assert mc == pytest.approx(quad, rel=0.05)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equals_per_sample_loop(self, k):
        # Oracle: the estimate as a loop of sample_voronoi calls.
        rows = np.array([[1, 1], [0, 1]])[:k]
        lat = ConstructionALattice(3, rows, gamma=0.8, n=2)
        for seed, samples in itertools.product(range(4), (1, 9, 2000)):
            rng = np.random.default_rng(seed)
            total = 0.0
            for _ in range(samples):
                u = lat.sample_voronoi(rng)
                total += float(u @ u)
            assert second_moment(lat, samples, seed) == total / (samples * 2)

    def test_equals_per_sample_loop_n8(self):
        rng = np.random.default_rng(6)
        lat = ConstructionALattice(3, _rand_rows(rng, 3, 8, 3), gamma=1.1, n=8)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            total = 0.0
            for _ in range(300):
                u = lat.sample_voronoi(rng)
                total += float(u @ u)
            assert second_moment(lat, 300, seed) == total / (300 * 8)

    def test_rejection_budget(self):
        # Z^8 accepts 7^-8 of the draws from its box of side 7: the first
        # 200 000 draws of this seed hold none, so sample_voronoi would
        # give up on the first sample.
        lat = ConstructionALattice(7, np.eye(8, dtype=int), n=8)
        with pytest.raises(RejectionBudgetExceeded):
            second_moment(lat, 1, seed=0)

    def test_cubic_cell_exact(self):
        lat = ConstructionALattice(3, np.zeros((0, 2), dtype=int),
                                   gamma=1.0, n=2)
        assert lat.second_moment_exact() == pytest.approx(9 / 12, rel=1e-12)
        assert second_moment(lat, 30_000, seed=7) == pytest.approx(
            9 / 12, rel=0.05)


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
        sd = np.sqrt(small_lattice.second_moment_exact()
                     or second_moment(small_lattice, 5000, 0))
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

    def test_not_nested_raises(self):
        with pytest.raises(NotNested):
            enumerate_codebook(integer_lattice(2), integer_lattice(2, gamma=2.0))
        with pytest.raises(NotNested):
            enumerate_codebook(integer_lattice(2), integer_lattice(2).with_rank(0))
        z2 = ConstructionALattice(3, np.eye(2, dtype=int), n=2)
        with pytest.raises(NotNested):
            NestedListDecoder(z2, z2.with_rank(0), z2.with_rank(0))


class TestCodebookIndex:
    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(41)
        for p, n, gamma in ((3, 2, 1.0), (5, 3, 0.37), (7, 2, 0.99),
                            (2, 4, 1.3)):
            ch = build_chain(p, n, list(range(n + 1)), gamma=gamma, seed=2)
            for i in range(n + 1):
                codebook = enumerate_codebook(ch[i], ch[n])
                oracle = {tuple(np.round(t / gamma).astype(int).tolist()): w
                          for w, t in enumerate(codebook, start=1)}
                # Every row maps to its own index, also off by rounding.
                noisy = codebook * (1 + 1e-13 * rng.standard_normal(
                    codebook.shape))
                for pts in (codebook, noisy):
                    assert codebook_index(codebook, pts, gamma).tolist() == \
                        list(range(1, len(codebook) + 1))
                # Lattice points inside and outside the cell, as the oracle.
                Q = gamma * rng.integers(-p, p + 1, size=(200, n))
                want = [oracle.get(tuple(q), 0) for q in
                        np.round(Q / gamma).astype(int).tolist()]
                assert codebook_index(codebook, Q, gamma).tolist() == want
                assert 0 in want
