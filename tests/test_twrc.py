import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrelay.chain import build_chain
from latrelay.errors import Infeasible, NotNested
from latrelay.lattice import enumerate_codebook, integer_lattice, is_sublattice
from latrelay.rates import TwrcParams
from latrelay.twrc import (
    TwrcSimParams,
    build_twrc_codebooks,
    recover_t1_from_sum,
    recover_t2_from_sum,
    relay_decode_sum,
    sum_codeword,
    twrc_round_trip,
)


def _chain_p3():
    ch = build_chain(3, 2, [0, 1, 2], seed=0)
    return ch.lattices[0], ch.lattices[1], ch.lattices[2]


def _sym_params(**kw):
    base = dict(P1=4.0, P2=4.0, PR=200.0, N1=1e-12, N2=1e-12, NR=1e-12)
    base.update(kw)
    return TwrcParams(**base)


class TestSumCodeword:
    def test_in_coarse_cell(self):
        lam1, lam2, fine = _chain_p3()
        cb1 = enumerate_codebook(lam1, fine)
        cb2 = enumerate_codebook(lam2, fine)
        rng = np.random.default_rng(0)
        t1, t2 = map(np.array, zip(*itertools.product(cb1[:4], cb2)))
        U2 = np.array([lam2.sample_voronoi(rng) for _ in t1])
        T = sum_codeword(t1, t2, U2, lam1, lam2)
        assert np.allclose(lam1.nearest_many(T), 0.0, atol=1e-9)

    def test_trivial_case(self):
        lam1, lam2, fine = _chain_p3()
        t1 = enumerate_codebook(lam1, fine)[2]
        T = sum_codeword(t1[None], np.zeros((1, 2)), np.zeros((1, 2)),
                         lam1, lam2)
        assert np.allclose(T, lam1.mod(t1), atol=1e-9)

    def test_deterministic(self):
        lam1, lam2, fine = _chain_p3()
        t1 = enumerate_codebook(lam1, fine)[1]
        t2 = enumerate_codebook(lam2, fine)[1]
        U2 = np.array([[0.3, -0.2]])
        a = sum_codeword(t1[None], t2[None], U2, lam1, lam2)
        b = sum_codeword(t1[None], t2[None], U2, lam1, lam2)
        assert np.array_equal(a, b)


class TestRecovery:
    def test_exhaustive_p3(self):
        lam1, lam2, fine = _chain_p3()
        cb1 = enumerate_codebook(lam1, fine)
        cb2 = enumerate_codebook(lam2, fine)
        rng = np.random.default_rng(1)
        pairs = [pair for pair in itertools.product(cb1, cb2)
                 for _ in range(5)]
        t1, t2 = map(np.array, zip(*pairs))
        U2 = np.array([lam2.sample_voronoi(rng) for _ in pairs])
        T = sum_codeword(t1, t2, U2, lam1, lam2)
        r1 = recover_t1_from_sum(T, t2, U2, lam1, lam2)
        r2 = recover_t2_from_sum(T, t1, lam1, lam2)
        assert np.allclose(r1, lam1.mod_many(t1), atol=1e-9)
        assert np.allclose(r2, lam2.mod_many(t2), atol=1e-9)

    def test_random_p5(self):
        ch = build_chain(5, 2, [0, 1, 2], seed=3)
        lam1, lam2, fine = ch.lattices
        cb1 = enumerate_codebook(lam1, fine)
        cb2 = enumerate_codebook(lam2, fine)
        rng = np.random.default_rng(2)
        t1, t2, U2 = (np.empty((1000, 2)) for _ in range(3))
        for i in range(1000):
            t1[i] = cb1[int(rng.integers(len(cb1)))]
            t2[i] = cb2[int(rng.integers(len(cb2)))]
            U2[i] = lam2.sample_voronoi(rng)
        T = sum_codeword(t1, t2, U2, lam1, lam2)
        assert np.allclose(recover_t1_from_sum(T, t2, U2, lam1, lam2),
                           lam1.mod_many(t1), atol=1e-9)
        assert np.allclose(recover_t2_from_sum(T, t1, lam1, lam2),
                           lam2.mod_many(t2), atol=1e-9)

    def test_not_nested_raises(self):
        fine = integer_lattice(2)
        coarse = fine.with_rank(0)
        z = np.zeros((1, 2))
        with pytest.raises(NotNested):
            recover_t1_from_sum(z, z, z, fine, coarse)
        with pytest.raises(NotNested):
            recover_t2_from_sum(z, z, fine, coarse)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_distributive_mod_law(self, coords):
        # for Lambda_1 subseteq Lambda_2: (x mod L1) mod L2 = x mod L2
        lam1, lam2, _ = _chain_p3()
        x = np.array(coords)
        lhs = lam2.mod(lam1.mod(x))
        rhs = lam2.mod(x)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestBuildCodebooks:
    def test_symmetric_powers_share_shaping(self):
        params = TwrcSimParams(channel=_sym_params(), R1=0.8, R2=0.8, R=3.0,
                               B=5)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=0,
                                   enforce_broadcast_rate=False)
        assert cbs.lam1.k == cbs.lam2.k
        assert np.array_equal(cbs.lam1.rows, cbs.lam2.rows)

    def test_zero_reverse_rate_degenerates(self):
        params = TwrcSimParams(channel=_sym_params(P2=4.0), R1=0.8, R2=0.0,
                               R=3.0, B=5)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=0,
                                   enforce_broadcast_rate=False)
        assert cbs.lam_c2.k == cbs.lam2.k
        assert len(cbs.entries2) == 1

    def test_rate_below_half_step_is_silent(self):
        # The nearest step is rank 0, and TWRC keeps it: terminal 2 sends
        # one codeword while terminal 1 keeps its rank.
        step = math.log2(3) / 2
        params = TwrcSimParams(channel=_sym_params(), R1=0.8,
                               R2=0.4 * step, R=3.0, B=5)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=0,
                                   enforce_broadcast_rate=False)
        assert cbs.lam_c2.k == cbs.lam2.k
        assert len(cbs.entries2) == 1
        assert cbs.rate2_achieved == 0.0
        assert cbs.lam_c1.k == cbs.lam1.k + 1

    def test_chain_order_sorted_by_volume(self):
        ch = TwrcParams(P1=4.0, P2=1.0, PR=10.0, N1=0.5, N2=0.5, NR=0.5)
        params = TwrcSimParams(channel=ch, R1=0.79, R2=0.79, R=2.5, B=5)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=1,
                                   enforce_broadcast_rate=False)
        # The six lattices, sorted coarse to fine by volume, form a chain.
        lats = sorted([cbs.lam1, cbs.lam2, cbs.lam_s1, cbs.lam_s2,
                       cbs.lam_c1, cbs.lam_c2], key=lambda lat: -lat.volume)
        assert all(is_sublattice(a, b) for a, b in zip(lats, lats[1:]))
        assert cbs.lam2.k >= cbs.lam1.k   # smaller power, finer shaping

    def test_broadcast_rate_enforced(self):
        ch = TwrcParams(P1=2.0, P2=1.0, PR=100.0, N1=0.5, N2=0.5, NR=0.5)
        params = TwrcSimParams(channel=ch, R1=0.79, R2=0.79, R=0.1, B=5)
        with pytest.raises(Infeasible):
            build_twrc_codebooks(params, p=3, n=2, seed=0)

    def test_relay_codebook_power_and_size(self):
        params = TwrcSimParams(channel=_sym_params(), R1=0.8, R2=0.8, R=3.0,
                               B=5)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=0,
                                   enforce_broadcast_rate=False)
        assert cbs.relay_codebook.shape[1] == 2
        assert cbs.num_bins <= len(cbs.sum_entries)
        assert cbs.num_bins >= 1


class TestRelayDecodeSum:
    def test_noiseless_exact(self):
        params = TwrcSimParams(channel=_sym_params(), R1=0.8, R2=0.8, R=3.0,
                               B=5)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=0,
                                   enforce_broadcast_rate=False)
        rng = np.random.default_rng(5)
        t1, t2, U1, U2 = (np.empty((50, 2)) for _ in range(4))
        for i in range(50):
            t1[i] = cbs.entries1[int(rng.integers(len(cbs.entries1)))]
            t2[i] = cbs.entries2[int(rng.integers(len(cbs.entries2)))]
            U1[i] = cbs.lam1.sample_voronoi(rng)
            U2[i] = cbs.lam2.sample_voronoi(rng)
        X1 = cbs.lam1.mod_many(t1 - U1)
        X2 = cbs.lam2.mod_many(t2 + U2)
        T = sum_codeword(t1, t2, U2, cbs.lam1, cbs.lam2)
        T_hat = relay_decode_sum(X1 + X2, U1, U2, cbs, NR=1e-12)
        assert np.allclose(T_hat, T, atol=1e-6)


class TestRoundTrip:
    def test_noiseless_zero_errors(self):
        params = TwrcSimParams(channel=_sym_params(), R1=0.8, R2=0.8, R=3.0,
                               B=10)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=1,
                                   enforce_broadcast_rate=False)
        res = twrc_round_trip(cbs, params, seed=11)
        assert res.errors_dir1 == 0
        assert res.errors_dir2 == 0
        assert res.sum_errors == 0
        assert res.messages == 10

    def test_degenerate_binning_one_bin_per_sum(self):
        # R large enough that every sum owns a bin: resolution is lookup.
        # PR is generous because the terminals' direct signals act as
        # interference on the bin decode even with zero thermal noise.
        params = TwrcSimParams(channel=_sym_params(PR=20000.0), R1=0.8,
                               R2=0.8, R=4.0, B=8)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=2,
                                   enforce_broadcast_rate=False)
        assert cbs.num_bins == len(cbs.sum_entries)
        res = twrc_round_trip(cbs, params, seed=12)
        assert res.errors_dir1 == 0 and res.errors_dir2 == 0

    def test_transcript_columns(self):
        params = TwrcSimParams(channel=_sym_params(), R1=0.8, R2=0.8, R=3.0,
                               B=5)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=1,
                                   enforce_broadcast_rate=False)
        res = twrc_round_trip(cbs, params, seed=3)
        assert len(res.transcript) == 5
        for rec in res.transcript:
            assert len(rec.csv_row().split(",")) == len(rec.CSV_COLUMNS)

    def test_determinism(self):
        ch = TwrcParams(P1=4.0, P2=2.0, PR=60.0, N1=0.5, N2=0.5, NR=0.4)
        params = TwrcSimParams(channel=ch, R1=0.8, R2=0.8, R=3.5, B=15)
        cbs = build_twrc_codebooks(params, p=3, n=2, seed=1,
                                   enforce_broadcast_rate=False)
        a = twrc_round_trip(cbs, params, seed=5)
        b = twrc_round_trip(cbs, params, seed=5)
        assert (a.errors_dir1, a.errors_dir2) == (b.errors_dir1, b.errors_dir2)
        assert [r.csv_row() for r in a.transcript] == \
            [r.csv_row() for r in b.transcript]
