import math

import numpy as np
import pytest

import latrelay.relay as relay
from latrelay.errors import Infeasible
from latrelay.lattice import second_moment
from latrelay.relay import (
    BinningMap,
    DegradedRelayParams,
    build_df_codebooks,
    df_capacity,
    df_round_trip,
)


def _params(**kw):
    base = dict(P=2.0, PR=4.0, NR=0.2, N=0.2, alpha=0.5, B=6, R=0.7, RR=0.7)
    base.update(kw)
    return DegradedRelayParams(**base)


class TestParams:
    def test_alpha_boundary_rejected(self):
        with pytest.raises(ValueError):
            _params(alpha=1.0)
        with pytest.raises(ValueError):
            _params(alpha=0.0)

    def test_kappa_formula(self):
        p = _params(P=2.0, PR=4.0, alpha=0.5)
        # coherent-combining constant 1 + sqrt(PR / (abar * P))
        assert p.kappa == pytest.approx(1 + math.sqrt(4.0 / 1.0), rel=1e-12)

    def test_destination_noise_is_sum(self):
        p = _params(NR=0.3, N=0.5)
        assert p.NR + p.N == pytest.approx(0.8)


class TestBinning:
    def test_deterministic_and_uniform_range(self):
        bm = BinningMap(num_messages=27, num_bins=5, seed=3)
        bm2 = BinningMap(num_messages=27, num_bins=5, seed=3)
        assert np.array_equal(bm.table, bm2.table)
        assert set(np.unique(bm.table)) <= set(range(1, 6))
        assert all(bm.bin_of(w) == bm.table[w - 1] for w in range(1, 28))


class TestBuildCodebooks:
    def test_shaping_powers_hit_targets(self):
        p = _params(P=2.0, alpha=0.5)
        cbs = build_df_codebooks(p, p=5, n=2, seed=0)
        assert cbs.power1 == pytest.approx(1.0, rel=0.05)
        assert cbs.power2 == pytest.approx(1.0, rel=0.05)
        mc1 = second_moment(cbs.message_chain[0], 20_000, seed=1)
        assert mc1 == pytest.approx(p.alpha * p.P, rel=0.05)

    def test_list_lattice_volume_target(self):
        p = _params()
        cbs = build_df_codebooks(p, p=5, n=2, seed=0)
        lam1, ls1 = cbs.message_chain[0], cbs.message_chain[1]
        aP, Neff = p.alpha * p.P, p.N + p.NR
        target = (Neff / (aP + Neff)) ** (lam1.n / 2) * lam1.volume
        assert ls1.volume >= target - 1e-9
        if ls1.k < cbs.message_chain[2].k:
            finer = cbs.message_chain[2].with_rank(ls1.k + 1)
            assert finer.volume < target

    def test_rates_quantized(self):
        p = _params(R=0.7, RR=0.7)
        cbs = build_df_codebooks(p, p=5, n=2, seed=0)
        step = math.log2(5) / 2
        assert cbs.rate_achieved % step == pytest.approx(0.0, abs=1e-9)
        assert cbs.num_messages == 5 ** round(cbs.rate_achieved / step)


class TestRoundTrip:
    def test_noiseless_all_messages_delivered(self):
        p = _params(NR=1e-12, N=1e-12, P=2.0, PR=50.0, alpha=0.3, B=10)
        cbs = build_df_codebooks(p, p=5, n=2, seed=1)
        res = df_round_trip(cbs, p, seed=7)
        assert res.message_errors == 0
        assert res.relay_errors == 0
        assert res.bin_errors == 0
        assert res.messages == 10

    def test_transcript_shape(self):
        p = _params(NR=1e-12, N=1e-12, PR=50.0, alpha=0.3, B=5)
        cbs = build_df_codebooks(p, p=5, n=2, seed=1)
        res = df_round_trip(cbs, p, seed=2)
        assert len(res.transcript) == 5
        for rec in res.transcript:
            row = rec.csv_row().split(",")
            assert len(row) == len(rec.CSV_COLUMNS)

    def test_unique_list_with_bins_succeeds_noiseless(self):
        # unique-decoding regime: list size 1, bins redundant
        p = _params(NR=1e-12, N=1e-12, P=4.0, PR=50.0, alpha=0.5, B=6,
                    R=0.7, RR=1.2)
        cbs = build_df_codebooks(p, p=5, n=2, seed=3)
        res = df_round_trip(cbs, p, seed=3)
        assert res.message_errors == 0

    def test_relay_miss_credited_to_its_block(self, monkeypatch):
        # Noiseless run in which the relay decodes block 3 as another
        # message of the same bin: only that block's relay decode is wrong,
        # and the destination still resolves every message.
        p = _params(NR=1e-12, N=1e-12, PR=50.0, alpha=0.3, B=6, R=2.0)
        cbs = build_df_codebooks(p, p=5, n=2, seed=1)
        seed, miss_block = 2, 3
        binning = BinningMap(cbs.num_messages, cbs.num_bins, seed)
        lam1 = cbs.message_chain[0]
        real = relay.unique_decode
        relay_calls = []

        def decode(y, coarse, fine):
            t = real(y, coarse, fine)
            if coarse is not lam1:
                return t
            relay_calls.append(t)
            if len(relay_calls) != miss_block:
                return t
            w = next(e.w for e in cbs.message_entries
                     if np.allclose(e.t, t))
            alt = next(e for e in cbs.message_entries if e.w != w
                       and binning.bin_of(e.w) == binning.bin_of(w))
            return alt.t

        monkeypatch.setattr(relay, "unique_decode", decode)
        res = df_round_trip(cbs, p, seed=seed)
        assert len(relay_calls) == p.B + 1
        assert res.relay_errors == 1
        assert res.message_errors == 0 and res.bin_errors == 0
        assert [rec.b for rec in res.transcript] == list(range(1, p.B + 1))
        assert [rec.relay_ok for rec in res.transcript] == \
            [b != miss_block for b in range(1, p.B + 1)]

    def test_determinism(self):
        p = _params(B=8)
        cbs = build_df_codebooks(p, p=5, n=2, seed=4)
        a = df_round_trip(cbs, p, seed=11)
        b = df_round_trip(cbs, p, seed=11)
        assert a.message_errors == b.message_errors
        assert [r.csv_row() for r in a.transcript] == \
            [r.csv_row() for r in b.transcript]

    def test_noisy_runs_and_counts_consistent(self):
        p = _params(B=20)
        cbs = build_df_codebooks(p, p=5, n=2, seed=4)
        res = df_round_trip(cbs, p, seed=5)
        assert 0 <= res.message_errors <= res.messages
        assert res.error_rate == res.message_errors / 20


class TestDfCapacity:
    def test_zero_relay_power_limit(self):
        rate, alpha = df_capacity(2.0, 1e-12, 0.5, 0.5)
        want = 0.5 * math.log2(1 + 2.0 / 1.0)
        assert rate == pytest.approx(want, abs=1e-5)
        # objective is flat past the crossing; any alpha there is a max
        assert 0.5 * math.log2(1 + alpha * 2.0 / 0.5) >= want - 1e-5

    def test_huge_destination_noise(self):
        rate, _ = df_capacity(1.0, 1.0, 1.0, 1e9)
        assert rate < 1e-6

    def test_unit_case_dense_grid(self):
        alphas = np.linspace(0, 1, 1_000_001)
        first = 0.5 * np.log2(1 + alphas)
        second = 0.5 * np.log2(1 + (2 + 2 * np.sqrt(1 - alphas)) / 2)
        want = float(np.max(np.minimum(first, second)))
        rate, _ = df_capacity(1.0, 1.0, 1.0, 1.0)
        assert rate == pytest.approx(want, abs=1e-6)
