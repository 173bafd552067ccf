import math

import numpy as np
import pytest

from latrelay import channel, gf
from latrelay.chain import build_chain, size_list_lattice
from latrelay.channel import (
    CHUNK,
    STREAM_KEYS,
    AwgnParams,
    NestedListDecoder,
    block_draws,
    effective_noise,
    encode_dithered,
    receiver_front_end,
    resolve,
    simulate_p2p,
    trial_rng,
    unique_decode,
)
from latrelay.errors import DimensionMismatch, NotACodeword
from latrelay.lattice import (
    SCAN_ELEMENTS,
    ConstructionALattice,
    _coset_scan,
    enumerate_codebook,
    second_moment,
)
from conftest import (
    _codeword_grid,
    grouped_scan_table,
    list_decode_q_form,
    message_index_oracle,
    repeat_call_peak,
    shift_rescan_decode,
)


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
        # One bad row rejects the batch; NaN and inf rows are bad rows.
        ch = build_chain(3, 2, [0, 2])
        t = enumerate_codebook(ch[0], ch[1])[4]
        for row in ([10.0, 10.0], [np.nan, 0.0], [0.0, np.inf],
                    [-np.inf, 0.0]):
            with np.errstate(invalid="ignore"), pytest.raises(NotACodeword):
                encode_dithered(np.array([t, row]), np.zeros((2, 2)), ch[0])

    def test_output_power_matches_second_moment(self):
        ch = build_chain(3, 2, [0, 2])
        lat = ch[0]
        sigma2 = second_moment(lat)
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
        sd = math.sqrt(second_moment(lat))
        tol = 4 * sd * math.sqrt(2 / 20_000)
        assert np.max(np.abs(Xa.mean(axis=0) - Xb.mean(axis=0))) < 2 * tol


class TestZeroAtAnyScale:
    """Nearest points are gamma times integers, so "the nearest point is
    0" is an exact test at every gamma, with no absolute tolerance."""

    @pytest.mark.parametrize("gamma", [1e-12, 1.0, 1e12])
    def test_encode_checks_the_cell(self, gamma):
        lat = ConstructionALattice(3, [[1, 1]], gamma=gamma)
        U = np.zeros((1, 2))
        # (1.4, 1.4) is nearest to (1, 1), a lattice point other than 0.
        with pytest.raises(NotACodeword):
            encode_dithered(gamma * np.array([[1.4, 1.4]]), U, lat)
        t = gamma * np.array([[0.4, -0.4]])
        assert np.array_equal(encode_dithered(t, U, lat), t)

    @pytest.mark.parametrize("gamma", [1e-12, 1e12])
    def test_p2p_error_events_at_any_scale(self, gamma):
        # gamma, P and N scaled together scale every draw, so the error
        # rate is the unit-scale run's, and each trial's membership event
        # agrees with its effective-noise event (simulate_p2p raises if
        # not).
        def pe(scale):
            ch = build_chain(3, 2, [0, 1, 2], gamma=scale * 2 / 3 ** 0.5,
                             seed=0)
            return simulate_p2p(ch, AwgnParams(P=scale ** 2,
                                               N=0.8 * scale ** 2),
                                trials=400, seed=4).pe_hat
        unit = pe(1.0)
        assert unit > 0.05
        assert pe(gamma) == pytest.approx(unit, abs=2 / 400)


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


class TestGroupedDecode:
    """The grouped coset scan and its class table against the
    shift-and-rescan decode, at batch sizes around one chunk: the message
    indices equal those the codebook's binary search gives the
    reference's members, which it reduces mod the coarse lattice by its
    own direct scan."""

    # p in {2, 3, 5, 7}; coarse rank >= 1 (the TWRC dec2 shape (1, 1, 2)),
    # fine rank n (the DF and p2p_n2 shape) and a list of one.
    SHAPES = [(2, 4, (1, 2, 4)), (3, 2, (1, 1, 2)), (3, 4, (0, 2, 4)),
              (3, 6, (1, 3, 5)), (5, 3, (1, 2, 3)), (7, 3, (0, 1, 3)),
              (3, 3, (1, 3, 3))]

    @pytest.mark.parametrize("p, n, ranks", SHAPES)
    def test_matches_shift_rescan(self, p, n, ranks):
        ch = build_chain(p, n, list(ranks), gamma=2 / 3 ** 0.5, seed=1)
        chunk = max(1, SCAN_ELEMENTS // max(p ** ranks[2], n * p))
        self._check(ch, (chunk - 1, chunk, chunk + 1), 10 * p + n)

    @staticmethod
    def _p2p_n8_chain():
        # The p2p_n8 shape: 3^6 fine cosets in 9 groups, 44 rows a step.
        return build_chain(3, 8, [0, 4, 6], gamma=2 / 3 ** 0.5, seed=1)

    def test_kept_arrays_grow(self):
        # Batches of 3 and 4 rows, then one of two steps, through the same
        # table.
        ch = self._p2p_n8_chain()
        chunk = max(1, SCAN_ELEMENTS // 3 ** 6)
        self._check(ch, (3, 4, chunk + 1), 7)

    def test_repeat_decode_allocates_no_distance_table(self):
        dec = self._p2p_n8_chain().list_decoder
        Y = np.random.default_rng(0).uniform(-2, 2, size=(40, 8))
        assert 40 <= SCAN_ELEMENTS // 3 ** 6     # one step
        assert repeat_call_peak(dec.decode_many, Y) < 40 * 3 ** 6 * 8

    def test_repeat_one_row_decode_allocates_no_work_array(self):
        # 3^8 fine cosets in 9 groups at n = 8: a one-row step's lift table
        # (n p doubles) and far marks (one byte per coset) together are
        # 6,753 bytes, which a repeated decode must stay well below.
        ch = build_chain(3, 8, [0, 6, 8], gamma=2 / 3 ** 0.5, seed=1)
        dec = ch.list_decoder
        y = np.random.default_rng(0).uniform(-2, 2, size=8)
        assert repeat_call_peak(dec.decode, y) < (8 * 3 * 8 + 3 ** 8) / 2

    def test_results_do_not_alias_work_arrays(self):
        dec = self._p2p_n8_chain().list_decoder
        rng = np.random.default_rng(1)
        Y, y = rng.uniform(-2, 2, size=(40, 8)), rng.uniform(-2, 2, size=8)
        many, one = dec.decode_many(Y), dec.decode(y).indices
        kept_many, kept_one = many.copy(), one.copy()
        dec.decode_many(rng.uniform(-2, 2, size=(40, 8)))
        dec.decode(rng.uniform(-2, 2, size=8))
        assert np.array_equal(many, kept_many)
        assert np.array_equal(one, kept_one)

    @pytest.mark.parametrize("p", [3, 5])
    def test_list_of_one_reads_pivot_residues(self, p):
        # Echelon pivots on coordinates 1 and 2, not 0 and 1: a list of one
        # finds its codeword at the pivots of gf.rref(fine.rows).
        ch = build_chain(p, 3, [1, 2, 2], gamma=2 / 3 ** 0.5,
                         rows=[[0, 1, 2], [0, 0, 1]])
        assert ch.list_decoder.list_size == 1
        assert gf.rref(ch[2].rows, p)[1] == [1, 2]
        self._check(ch, (200,), p)

    @pytest.mark.parametrize("p, n, ranks, scale", [
        (3, 2, (0, 2, 2), 1e20), (3, 2, (0, 2, 2), 1e100),
        (3, 2, (0, 2, 2), 1e300), (3, 3, (1, 2, 2), 1e20),
        (3, 3, (1, 2, 2), 1e100)])
    def test_list_of_one_far_rows(self, p, n, ranks, scale):
        # |y| / gamma far beyond 2^63: the codeword's residues are taken
        # before its coordinates become integers, so no cast is invalid
        # (the suite turns a RuntimeWarning into an error). They match
        # residues of the fine lattice's nearest point taken in Python
        # ints. Ranks (1, 2, 2) at n = 3 reach the nearest point by a
        # scan, whose squared distances overflow at 1e300 (see
        # test_lattice's huge rows), so it stops at 1e100.
        ch = build_chain(p, n, list(ranks), gamma=2 / 3 ** 0.5, seed=1)
        dec = ch.list_decoder
        assert dec.list_size == 1
        rng = np.random.default_rng(5)
        Y = np.vstack([np.eye(n)[::-1] * scale + 1.0,
                       -scale * rng.uniform(0.5, 1.0, size=(4, n))])
        Q = ch[2].nearest_many(Y) / ch.gamma
        got = dec.decode_many(Y)
        one = [dec.decode(y).indices.tolist() for y in Y]
        residues = np.array([[int(round(q)) % p for q in row]
                             for row in Q.tolist()])
        want = dec.codebook.classes(residues)
        assert np.array_equal(got, want[:, None])
        assert one == [[w] for w in want.tolist()]

    @staticmethod
    def _check(ch, batch_sizes, seed):
        """decode_many and decode against the shift-and-rescan members,
        on the half-integer tie grid and on uniform draws."""
        dec, gamma, p, n = ch.list_decoder, ch.gamma, ch.p, ch.n
        codebook = enumerate_codebook(ch[0], ch[2])
        assert np.array_equal(dec.codebook.points, codebook)
        rng = np.random.default_rng(seed)
        sub = {tuple(c) for c in _codeword_grid(ch[1])}
        rep_words = np.rint(dec.reps / gamma).astype(int)
        for m in batch_sizes:
            ties = rng.integers(-2 * p, 2 * p + 1, size=(m, n)) / 2.0
            draws = rng.uniform(-p, p, size=(m, n))
            for Y in (gamma * ties, gamma * draws):
                got = dec.decode_many(Y)
                members = shift_rescan_decode(Y, ch[0], ch[1], ch[2])
                want = message_index_oracle(
                    codebook, members.reshape(-1, n), gamma
                ).reshape(m, dec.list_size)
                assert got.shape == (m, dec.list_size)
                assert np.all(want > 0)
                assert np.array_equal(got, want)
                # Member g's class lies in reps[g] + Lambda_s.
                words = (np.rint(codebook[got - 1] / gamma).astype(int)
                         - rep_words) % p
                assert all(tuple(w) in sub for w in words.reshape(-1, n))
                for i in range(0, m, max(1, m // 10)):
                    res = dec.decode(Y[i])
                    assert np.array_equal(res.indices, got[i])
                    assert np.array_equal(res.points, codebook[got[i] - 1])

    def test_truth_matched_by_index(self):
        ch = build_chain(3, 2, [0, 1, 2], gamma=2 / 3 ** 0.5, seed=1)
        dec = ch.list_decoder
        y = np.array([0.3, -0.2])
        points = dec.codebook.points
        res = dec.decode(y, truth=points[dec.decode_many(y[None])[0, 0] - 1])
        assert res.contains_truth
        outside = set(range(1, len(points) + 1)) - set(res.indices)
        t = points[min(outside) - 1]
        assert dec.decode(y, truth=t).contains_truth is False
        # A point of no codebook row is in no list.
        assert dec.decode(y, truth=t + 0.5 * ch.gamma).contains_truth is False

    def test_rejects_wrong_shape(self):
        dec = build_chain(3, 2, [0, 1, 2]).list_decoder
        for Y in (np.zeros(2), np.zeros((3, 3))):
            with pytest.raises(DimensionMismatch):
                dec.decode_many(Y)


class TestWholeCodebookDecode:
    """Lambda_s = Lambda: the list is the whole codebook for every
    observation, read in closed form, against the shift-and-rescan decode
    and the grouped scan it replaces."""

    # p in {2, 3, 5}, coarse rank 0 and coarse rank >= 1.
    SHAPES = [(2, 3, (0, 0, 2)), (2, 4, (1, 1, 3)), (3, 2, (0, 0, 2)),
              (3, 2, (1, 1, 2)), (5, 2, (0, 0, 1)), (5, 3, (1, 1, 3))]

    @staticmethod
    def _chain(p, n, ranks):
        return build_chain(p, n, list(ranks), gamma=2 / 3 ** 0.5, seed=1)

    @pytest.mark.parametrize("p, n, ranks", SHAPES)
    def test_matches_shift_rescan(self, p, n, ranks):
        # The tie grid and uniform draws, with decode on every tenth row.
        TestGroupedDecode._check(self._chain(p, n, ranks), (1, 7, 60),
                                 10 * p + n)

    @pytest.mark.parametrize("p, n, ranks", SHAPES)
    def test_non_finite_rows_read_the_grouped_scan(self, p, n, ranks):
        # The rescan's members are NaN there; the grouped scan takes each
        # group's first coset, whose class is the group's.
        dec = self._chain(p, n, ranks).list_decoder
        Y = np.zeros((4, n))
        Y[0], Y[1, 0], Y[2, -1], Y[3, 0] = np.nan, np.nan, np.nan, np.inf
        got = dec.decode_many(Y)
        with np.errstate(invalid="ignore"):   # the scan's inf - inf
            want = _coset_scan(Y / dec.fine.gamma, grouped_scan_table(dec))
        assert np.array_equal(got, want.reshape(got.shape))
        assert np.array_equal(got, np.tile(np.arange(1, dec.list_size + 1),
                                           (len(Y), 1)))
        for y, row in zip(Y, got):
            assert np.array_equal(dec.decode(y).indices, row)

    @pytest.mark.parametrize("p, n, ranks", SHAPES)
    def test_builds_no_scan_table(self, p, n, ranks, monkeypatch):
        ch = self._chain(p, n, ranks)

        def refuse(*args):
            raise AssertionError("the decoder built a scan table")

        monkeypatch.setattr(channel, "_ScanTable", refuse)
        dec = NestedListDecoder(ch[0], ch[1], ch[2])
        assert dec._scan is None
        assert dec.reps is dec.codebook.points
        assert dec.list_size == len(dec.codebook) == p ** (ranks[2] - ranks[0])
        assert np.array_equal(dec.reps, enumerate_codebook(ch[1], ch[2]))

    @pytest.mark.parametrize("p, n, ranks", SHAPES)
    def test_one_row_is_the_batch_row(self, p, n, ranks):
        dec = self._chain(p, n, ranks).list_decoder
        for y in np.random.default_rng(p + n).uniform(-p, p, size=(20, n)):
            assert np.array_equal(dec.decode(y).indices,
                                  dec.decode_many(y[None])[0])

    @pytest.mark.parametrize("p, n, ranks", SHAPES)
    def test_rejects_wrong_shape(self, p, n, ranks):
        dec = self._chain(p, n, ranks).list_decoder
        for Y in (np.zeros(n), np.zeros((3, n + 1)), np.zeros((2, 1, n))):
            with pytest.raises(DimensionMismatch):
                dec.decode_many(Y)
        for y in (np.zeros((1, n)), np.zeros(n + 1)):
            with pytest.raises(DimensionMismatch):
                dec.decode(y)

    @pytest.mark.parametrize("p, n, ranks", SHAPES)
    def test_results_are_fresh(self, p, n, ranks):
        dec = self._chain(p, n, ranks).list_decoder
        rng = np.random.default_rng(2)
        many = dec.decode_many(rng.uniform(-2, 2, size=(5, n)))
        one = dec.decode(rng.uniform(-2, 2, size=n)).indices
        again = dec.decode_many(rng.uniform(-2, 2, size=(5, n)))
        assert not np.shares_memory(many, again)
        many[...] = 0
        one[...] = 0
        assert np.array_equal(again, np.tile(np.arange(1, dec.list_size + 1),
                                             (5, 1)))
        assert np.array_equal(dec.decode(np.zeros(n)).indices,
                              np.arange(1, dec.list_size + 1))


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
        assert stats.list_size == 3
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
                lists.append(res.indices)
            assert np.array_equal(dec.decode_many(np.array(y_primes)),
                                  np.array(lists))
        assert stats.log == log
        assert 0 < stats.pe_hat < 1

    def test_log_is_prefix_across_trial_counts(self):
        ch = build_chain(3, 2, [0, 1, 2], gamma=2 / 3 ** 0.5)
        long = simulate_p2p(ch, AwgnParams(1.0, 0.5), 600, seed=5,
                            keep_log=True)
        assert CHUNK < 300            # 300 and 600 cross a batch boundary
        for trials in (1, 40, CHUNK - 1, CHUNK, 300):
            short = simulate_p2p(ch, AwgnParams(1.0, 0.5), trials, seed=5,
                                 keep_log=True)
            assert long.log[:trials] == short.log
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
        # Each codebook's messages are one integers call on its own stream:
        # the same numbers as scalar draws, then the flush message 1.
        sizes, blocks = (9, 1), 12
        want = []
        for size, key in zip(sizes, STREAM_KEYS["messages"]):
            rng = trial_rng(5, key)
            want.append([int(rng.integers(1, size + 1))
                         for _ in range(blocks)] + [1])
        got, _, _ = block_draws(5, blocks, sizes,
                                (ConstructionALattice(3, [], n=2),), ())
        assert [w.tolist() for w in got] == want
