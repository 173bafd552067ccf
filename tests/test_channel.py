import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrelay.chain import build_chain, size_list_lattice
from latrelay.channel import (
    CHUNK,
    AwgnParams,
    NestedListDecoder,
    draw_messages,
    effective_noise,
    encode_dithered,
    receiver_front_end,
    resolve,
    simulate_p2p,
    trial_rng,
    unique_decode,
)
from latrelay.errors import NotACodeword
from latrelay.lattice import enumerate_codebook
from conftest import list_decode_q_form


def _points_equal(a, b):
    if len(a) != len(b):
        return False
    a = np.asarray(sorted(map(tuple, np.round(a, 8))))
    b = np.asarray(sorted(map(tuple, np.round(b, 8))))
    return np.allclose(a, b, atol=1e-6)


class TestEncodeDithered:
    def test_zero_dither(self):
        ch = build_chain(3, 2, [0, 2])
        t = enumerate_codebook(ch[0], ch[1])[4]
        assert np.allclose(encode_dithered(t[None], np.zeros((1, 2)), ch[0]),
                           t)

    def test_zero_codeword_gives_negated_dither(self):
        ch = build_chain(3, 2, [0, 2])
        rng = np.random.default_rng(1)
        U = ch[0].sample_voronoi(rng)
        X = encode_dithered(np.zeros((1, 2)), U[None], ch[0])
        assert np.allclose(X, ch[0].mod(-U), atol=1e-9)

    def test_rejects_non_codeword(self):
        ch = build_chain(3, 2, [0, 2])
        with pytest.raises(NotACodeword):
            encode_dithered(np.array([[10.0, 10.0]]), np.zeros((1, 2)), ch[0])

    def test_output_power_matches_second_moment(self):
        ch = build_chain(3, 2, [0, 2])
        lat = ch[0]
        sigma2 = lat.second_moment_exact()
        rng = np.random.default_rng(5)
        cb = enumerate_codebook(ch[0], ch[1])
        m = 100_000
        # rank-0 shaping cell is a cube, so dithers vectorize cleanly
        h = lat.gamma * lat.p / 2
        U = rng.uniform(-h, h, size=(m, 2))
        t = cb[3]
        X = lat.mod_many(t[None, :] - U)
        emp = float(np.mean(X ** 2))
        # variance of x^2 for x uniform on the cell, per coordinate
        se = math.sqrt((9 / 5 * sigma2 ** 2 - sigma2 ** 2) / (2 * m))
        assert abs(emp - sigma2) < 3 * se

    def test_uniformity_invariant_across_codewords(self):
        # same first-moment and support stats for two distinct codewords
        ch = build_chain(3, 2, [0, 2])
        lat = ch[0]
        cb = enumerate_codebook(ch[0], ch[1])
        rng = np.random.default_rng(8)
        h = lat.gamma * lat.p / 2
        U = rng.uniform(-h, h, size=(20_000, 2))
        Xa = lat.mod_many(cb[1][None, :] - U)
        Xb = lat.mod_many(cb[7][None, :] - U)
        sd = math.sqrt(lat.second_moment_exact())
        tol = 4 * sd * math.sqrt(2 / 20_000)
        assert np.max(np.abs(Xa.mean(axis=0) - Xb.mean(axis=0))) < 2 * tol


class TestFrontEnd:
    def test_noiseless_recovery(self):
        ch = build_chain(3, 2, [0, 2])
        t = enumerate_codebook(ch[0], ch[1])[2]
        rng = np.random.default_rng(3)
        U = ch[0].sample_voronoi(rng)
        X = encode_dithered(t[None], U[None], ch[0])
        y_prime = receiver_front_end(X, U[None], P=1.0, N=1e-15, coarse=ch[0])
        assert np.allclose(y_prime, t, atol=1e-6)

    def test_decomposition_identity(self):
        ch = build_chain(3, 2, [0, 2])
        cb = enumerate_codebook(ch[0], ch[1])
        P, N = 1.3, 0.6
        t, U, Z = (np.empty((200, 2)) for _ in range(3))
        for trial in range(200):
            rng = trial_rng(42, trial)
            t[trial] = cb[int(rng.integers(len(cb)))]
            U[trial] = ch[0].sample_voronoi(rng)
            Z[trial] = rng.normal(0, math.sqrt(N), 2)
        X = encode_dithered(t, U, ch[0])
        y_prime = receiver_front_end(X + Z, U, P, N, ch[0])
        z_eff = effective_noise(X, Z, P, N, ch[0])
        assert np.allclose(y_prime, ch[0].mod_many(t + z_eff), atol=1e-9)

    def test_mmse_variance(self):
        # per-dimension variance of -(1-a)X + aZ matches PN/(P+N)
        rng = np.random.default_rng(12)
        for P, N in [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)]:
            m = 100_000
            gamma_p = math.sqrt(12.0 * P)   # cube cell with power P
            X = rng.uniform(-gamma_p / 2, gamma_p / 2, size=m)
            Z = rng.normal(0, math.sqrt(N), size=m)
            a = P / (P + N)
            v = -(1 - a) * X + a * Z
            target = P * N / (P + N)
            emp = float(np.var(v))
            se = math.sqrt(2.0 / m) * target   # normal-approx se of variance
            assert abs(emp - target) < 3 * se


class TestListDecode:
    def _chain(self, p=3, n=2, ranks=(0, 1, 2), seed=0):
        return build_chain(p, n, list(ranks), seed=seed)

    def test_unique_decoding_when_mid_equals_fine(self):
        ch = self._chain(ranks=(0, 2, 2))
        y = np.array([0.7, -0.2])
        res = NestedListDecoder(ch[0], ch[1], ch[2]).decode(y)
        assert res.size == 1
        assert np.allclose(res.points[0],
                           unique_decode(y[None], ch[0], ch[2])[0], atol=1e-9)

    def test_full_codebook_when_mid_equals_coarse(self):
        ch = self._chain(ranks=(0, 0, 2))
        res = NestedListDecoder(ch[0], ch[1], ch[2]).decode(
            np.array([0.3, 0.1]))
        cb = enumerate_codebook(ch[0], ch[2])
        assert _points_equal(res.points, cb)

    def test_size_three_for_any_input(self):
        ch = self._chain()
        dec = NestedListDecoder(ch[0], ch[1], ch[2])
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = rng.uniform(-3, 3, 2)
            assert dec.decode(y).size == 3

    def test_zero_in_both_lists_at_origin(self):
        ch = self._chain()
        a = NestedListDecoder(ch[0], ch[1], ch[2]).decode(np.zeros(2)).points
        b = list_decode_q_form(np.zeros((1, 2)), ch[0], ch[1], ch[2])[0]
        zero = np.zeros(2)
        assert any(np.allclose(pt, zero, atol=1e-9) for pt in a)
        assert any(np.allclose(pt, zero, atol=1e-9) for pt in b)

    def test_lemma_equivalence_random(self):
        rng = np.random.default_rng(77)
        for p, n in [(3, 2), (5, 2), (3, 3)]:
            ranks = [0, 1, n]
            ch = self._chain(p, n, ranks, seed=2)
            dec = NestedListDecoder(ch[0], ch[1], ch[2])
            Y = rng.uniform(-p, p, (40, n))
            for y, b in zip(Y, list_decode_q_form(Y, ch[0], ch[1], ch[2])):
                a = dec.decode(y).points
                assert _points_equal(a, b), (p, n, y)

    def test_members_reduced_mod_coarse(self):
        ch = self._chain()
        res = NestedListDecoder(ch[0], ch[1], ch[2]).decode(
            np.array([1.9, -1.1]))
        for pt in res.points:
            assert np.allclose(ch[0].nearest(pt), 0.0, atol=1e-9)


class TestAwgnParams:
    @pytest.mark.parametrize("P,N", [(1.0, math.nan), (1.0, math.inf),
                                     (math.nan, 1.0), (math.inf, 1.0)])
    def test_rejects_non_finite(self, P, N):
        with pytest.raises(ValueError, match="finite"):
            AwgnParams(P, N)


class TestSimulateP2p:
    def test_noiseless_zero_error(self):
        ch = build_chain(3, 2, [0, 1, 2])
        stats = simulate_p2p(ch, AwgnParams(P=1.0, N=1e-12), trials=300,
                             seed=0)
        assert stats.pe_hat == 0.0

    def test_full_list_zero_error(self):
        ch = build_chain(3, 2, [0, 0, 2])
        stats = simulate_p2p(ch, AwgnParams(P=1.0, N=5.0), trials=300, seed=1)
        assert stats.pe_hat == 0.0

    def test_list_size_constant(self):
        ch = build_chain(3, 2, [0, 1, 2])
        stats = simulate_p2p(ch, AwgnParams(P=1.0, N=0.8), trials=500, seed=2,
                             keep_log=True)
        assert stats.mean_list_size == stats.list_size == 3
        assert all(rec[2] == 3 for rec in stats.log)

    def test_monotone_in_list_volume(self):
        # bigger V_s (coarser mid) never hurts, within 2 sigma
        P, N = 1.0, 1.2
        gamma = math.sqrt(12.0 * P) / 3
        trials = 10_000
        ch_small = build_chain(3, 2, [0, 2, 2], gamma=gamma)
        ch_big = build_chain(3, 2, [0, 1, 2], gamma=gamma)
        pe_s = simulate_p2p(ch_small, AwgnParams(P, N), trials, seed=3)
        pe_b = simulate_p2p(ch_big, AwgnParams(P, N), trials, seed=3)
        slack = 2 * math.sqrt(pe_s.pe_hat * (1 - pe_s.pe_hat) / trials
                              + pe_b.pe_hat * (1 - pe_b.pe_hat) / trials)
        assert pe_b.pe_hat <= pe_s.pe_hat + slack

    def test_determinism(self):
        ch = build_chain(3, 2, [0, 1, 2])
        a = simulate_p2p(ch, AwgnParams(1.0, 0.7), trials=200, seed=9)
        b = simulate_p2p(ch, AwgnParams(1.0, 0.7), trials=200, seed=9)
        assert a.pe_hat == b.pe_hat

    def test_decoder_built_once_per_chain(self, decoder_builds):
        awgn = AwgnParams(1.0, 0.6)
        ch = build_chain(3, 4, [0, 2, 3], seed=2)
        simulate_p2p(ch, awgn, trials=300, seed=5)
        reused = simulate_p2p(ch, awgn, trials=300, seed=6, keep_log=True)
        assert len(decoder_builds) == 1
        fresh = simulate_p2p(build_chain(3, 4, [0, 2, 3], seed=2), awgn,
                             trials=300, seed=6, keep_log=True)
        assert reused == fresh

    def test_csv_row_order(self):
        ch = build_chain(3, 2, [0, 1, 2])
        stats = simulate_p2p(ch, AwgnParams(1.0, 0.7), trials=50, seed=4)
        row = stats.csv_row().split(",")
        assert len(row) == len(stats.CSV_COLUMNS)
        assert row[0] == "50"
        assert row[3] == "3"


class TestListCoverage:
    def test_sized_list_covers_truth_often(self):
        # empirical check that size_list_lattice's bound is meaningful:
        # at P = N the sized list covers the truth in most trials
        P = N = 1.0
        gamma = math.sqrt(12.0 * P) / 3
        pair = build_chain(3, 2, [0, 2], gamma=gamma)
        ls = size_list_lattice(pair[0], pair[1], P=P, N=N)
        ch = build_chain(3, 2, [0, ls.k, 2], gamma=gamma, rows=pair.rows)
        stats = simulate_p2p(ch, AwgnParams(P, N), trials=2000, seed=5)
        assert stats.pe_hat < 0.5


class TestBatchedEngine:
    @pytest.mark.parametrize("n,ranks", [(2, [1, 1, 2]), (4, [1, 2, 3]),
                                         (8, [1, 4, 6])])
    @pytest.mark.parametrize("seed", range(5))
    def test_non_cubic_shaping_keeps_error_identity(self, n, ranks, seed):
        # The list and the codebook reduce mod the coarse lattice with one
        # tie rule, so a list member congruent to t has t's coordinates.
        ch = build_chain(3, n, ranks, gamma=2 / 3 ** 0.5, seed=seed)
        stats = simulate_p2p(ch, AwgnParams(1.0, 0.01), 200, seed=seed)
        assert stats.trials == 200

    def test_matches_single_vector_path(self):
        # Recompute every trial of two batches (one partial) with the
        # single-vector functions on the engine's draws.
        P, N, seed, trials = 1.0, 0.25, 7, CHUNK + 44
        ch = build_chain(3, 4, [1, 2, 3], gamma=2 / 3 ** 0.5, seed=3)
        coarse, mid, fine = ch[0], ch[1], ch[2]
        stats = simulate_p2p(ch, AwgnParams(P, N), trials, seed=seed,
                             keep_log=True)
        dec = NestedListDecoder(coarse, mid, fine)
        codebook = enumerate_codebook(coarse, fine)
        half = coarse.gamma * coarse.p / 2
        log = []
        for batch in range(2):
            m = min(CHUNK, trials - batch * CHUNK)
            rng = trial_rng(seed, batch)
            w = rng.integers(0, len(codebook), size=CHUNK)
            U_raw = rng.uniform(-half, half, size=(CHUNK, 4))
            Z = rng.normal(0.0, math.sqrt(N), size=(CHUNK, 4))
            y_primes, lists = [], []
            for i in range(m):
                t = codebook[w[i]]
                U = coarse.mod(U_raw[i])[None]
                X = encode_dithered(t[None], U, coarse)
                y_prime = receiver_front_end(X + Z[i], U, P, N, coarse)[0]
                res = dec.decode(y_prime, truth=t)
                z_eff = effective_noise(X, Z[i], P, N, coarse)[0]
                outside = not np.allclose(mid.nearest(z_eff), 0.0, atol=1e-9)
                assert (not res.contains_truth) == outside
                log.append((batch * CHUNK + i, int(w[i]) + 1, res.size,
                            int(not res.contains_truth)))
                y_primes.append(y_prime)
                lists.append(res.points)
            assert np.array_equal(dec.decode_many(np.array(y_primes)),
                                  np.array(lists))
        assert stats.log == log
        assert 0 < stats.pe_hat < 1

    def test_log_is_prefix_across_trial_counts(self):
        ch = build_chain(3, 2, [0, 1, 2], gamma=2 / 3 ** 0.5)
        short = simulate_p2p(ch, AwgnParams(1.0, 0.5), 300, seed=5,
                             keep_log=True)
        long = simulate_p2p(ch, AwgnParams(1.0, 0.5), 600, seed=5,
                            keep_log=True)
        assert CHUNK < 300            # both runs cross a batch boundary
        assert long.log[:300] == short.log
        assert 0 < sum(rec[3] for rec in short.log) < 300


class TestBlockSteps:
    # name: (member indices, member bins, decoded bin, truth,
    #        intersection size, resolved)
    RESOLVE = {
        "empty": ([1, 2, 3], [1, 2, 2], 3, 1, 0, False),
        "ambiguous": ([1, 2, 3], [2, 2, 1], 2, 1, 2, False),
        "unique_wrong": ([1, 2, 3], [1, 2, 3], 2, 1, 1, False),
        "unique_right": ([1, 2, 3], [1, 2, 3], 1, 1, 1, True),
        "index_0_not_counted": ([0, 2, 3], [1, 1, 3], 1, 2, 1, True),
        "index_0_never_matches": ([0, 2, 3], [1, 2, 3], 1, 0, 0, False),
    }

    def test_resolve_table(self):
        # One batched call over all cases, one block per row.
        idx, bins, bin_hat, truth, size, ok = (
            np.array(col) for col in zip(*self.RESOLVE.values()))
        got_size, got_ok = resolve(idx, bins, bin_hat, truth)
        assert dict(zip(self.RESOLVE, got_size.tolist())) == \
            dict(zip(self.RESOLVE, size.tolist()))
        assert dict(zip(self.RESOLVE, got_ok.tolist())) == \
            dict(zip(self.RESOLVE, ok.tolist()))

    def test_draw_messages_matches_scalar_draws(self):
        sizes, blocks = (9, 1, 27), 12
        rng = trial_rng(5, 0)
        want = [[int(rng.integers(1, size + 1)) for _ in range(blocks)] + [1]
                for size in sizes]
        got = draw_messages(5, blocks, sizes)
        assert [w.tolist() for w in got] == want
