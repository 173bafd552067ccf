import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrelay import gf
from latrelay.chain import (
    _greedy_search,
    build_chain,
    pick_generator_rows,
    size_list_lattice,
)
from latrelay.errors import (
    EnumerationBudgetExceeded,
    InvalidRanks,
    NotNested,
    NotPrime,
)
from latrelay.lattice import (
    DEFAULT_ENUM_BUDGET,
    ConstructionALattice,
    enumerate_codebook,
    is_sublattice,
)
from chain_reference import pick_generator_rows_reference
from conftest import repeat_call_peak


class TestBuildChain:
    def test_full_pair_rate(self):
        ch = build_chain(3, 2, [0, 2])
        assert ch.rate(0, 1) == pytest.approx(np.log2(3), rel=1e-12)

    def test_p3_n2_consecutive_rates(self):
        ch = build_chain(3, 2, [0, 1, 2])
        assert ch.rate(0, 1) == pytest.approx(0.5 * np.log2(3), rel=1e-12)
        assert ch.rate(1, 2) == pytest.approx(0.5 * np.log2(3), rel=1e-12)
        # counts confirm the rates
        assert len(enumerate_codebook(ch[0], ch[1])) == 3
        assert len(enumerate_codebook(ch[1], ch[2])) == 3

    def test_equal_ranks_zero_rate(self):
        ch = build_chain(5, 2, [1, 1])
        assert ch.rate(0, 1) == 0.0
        assert np.array_equal(ch[0].rows, ch[1].rows)

    def test_nesting_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = int(rng.choice([3, 5]))
            n = int(rng.choice([2, 3, 4]))
            ranks = sorted(int(rng.integers(0, n + 1)) for _ in range(3))
            ch = build_chain(p, n, ranks, seed=int(rng.integers(1000)))
            for i, j in itertools.combinations(range(len(ranks)), 2):
                assert is_sublattice(ch[i], ch[j])

    def test_rate_additivity_exact(self):
        ch = build_chain(5, 4, [0, 1, 3, 4])
        for i, l, j in itertools.combinations(range(4), 3):
            assert ch.rate(i, j) == pytest.approx(
                ch.rate(i, l) + ch.rate(l, j), abs=1e-12)

    def test_volumes(self):
        ch = build_chain(3, 2, [0, 1, 2], gamma=2.0)
        assert [lat.volume for lat in ch.lattices] == \
            pytest.approx([36.0, 12.0, 4.0], rel=1e-12)

    def test_invalid_ranks(self):
        with pytest.raises(InvalidRanks):
            build_chain(3, 2, [2, 1])
        with pytest.raises(InvalidRanks):
            build_chain(3, 2, [0, 3])

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            build_chain(4, 2, [0, 1])

    def test_record_text(self):
        # The record `chain-info` prints names every field of the chain.
        ch = build_chain(5, 3, [0, 2, 3], gamma=0.75, seed=9)
        rows = ";".join(",".join(str(v) for v in r) for r in ch.rows)
        assert ch.to_record() == f"p=5 n=3 ranks=0,2,3 rows={rows} gamma=0.75"
        assert build_chain(3, 2, [0, 0]).to_record() == \
            "p=3 n=2 ranks=0,0 gamma=1.0"

    def test_identity_equality_and_hash(self):
        a, b = build_chain(3, 2, [0, 1, 2]), build_chain(3, 2, [0, 1, 2])
        assert a == a and a != b and {a: 1, b: 2}[a] == 1
        assert hash(a) == hash(a)
        assert a.to_record() == b.to_record()
        assert a.list_decoder is a.list_decoder


class TestPickGeneratorRows:
    def test_deterministic(self):
        a = pick_generator_rows(5, 4, 3, seed=7)
        b = pick_generator_rows(5, 4, 3, seed=7)
        assert np.array_equal(a, b)

    def test_full_rank_prefixes(self):
        rows = pick_generator_rows(3, 4, 4, seed=1)
        for k in range(1, 5):
            ch = build_chain(3, 4, [0, k], rows=rows)
            assert len(enumerate_codebook(ch[0], ch[1])) == 3 ** k

    @pytest.mark.parametrize("p, n, kmax", [
        pytest.param(p, n, min(n, 5), id=f"{p}-{n}")
        for p, n in itertools.product((2, 3, 5), (2, 4, 8))
    ] + [pytest.param(7, 5, 3, id="7-5")])
    def test_matches_candidate_by_candidate_reference(self, p, n, kmax):
        # Rank 5 at n = 8, and rank 3 at p = 7, keep the reference's full
        # enumeration quick.
        for seed in range(6):
            want = pick_generator_rows_reference(p, n, kmax, seed=seed)
            got = pick_generator_rows(p, n, kmax, seed=seed)
            assert np.array_equal(got, want), (p, n, seed)

    @pytest.mark.parametrize("p, n, kmax", [(3, 14, 14), (3, 40, 20),
                                            (2, 80, 64)])
    def test_budget_raises_before_any_draw(self, p, n, kmax, monkeypatch):
        # Over the budget, and for n = 40 and 80 p^n is past int64.
        def no_draw(*args, **kwargs):
            raise AssertionError("drew candidates")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        assert p ** kmax > DEFAULT_ENUM_BUDGET
        with pytest.raises(EnumerationBudgetExceeded):
            pick_generator_rows(p, n, kmax)
        with pytest.raises(EnumerationBudgetExceeded):
            build_chain(p, n, [0, kmax])

    @pytest.mark.parametrize("candidates", [0, -1])
    def test_bad_candidates_raise_before_any_draw(self, candidates,
                                                  monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew candidates")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="candidates must be >= 1"):
            pick_generator_rows(3, 4, 2, candidates=candidates)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_one_draw_per_rank_equals_row_draws(self, p):
        # The search draws a rank's candidates as one (candidates, n)
        # array; it must give the rows, and leave the generator where,
        # one draw per candidate does.
        for n, candidates, seed in itertools.product((1, 2, 5, 8),
                                                     (1, 2, 200), range(3)):
            whole = np.random.default_rng(seed)
            each = np.random.default_rng(seed)
            block = whole.integers(0, p, size=(candidates, n), dtype=np.int64)
            rows = [each.integers(0, p, size=n, dtype=np.int64)
                    for _ in range(candidates)]
            assert np.array_equal(block, np.array(rows)), (n, candidates)
            assert whole.bit_generator.state == each.bit_generator.state

    @pytest.mark.parametrize("p, n, kmax, candidates, seeds", [
        pytest.param(p, n, kmax, 200, range(3), id=f"{p}-{n}-{kmax}")
        for p, n, kmax in ((2, 8, 5), (3, 4, 4), (5, 4, 3), (7, 5, 3))
    ] + [
        # One candidate: seeds 4 and 7 draw the all-ones row, of norm
        # sqrt 5 > p, where the key counts the 2n vectors of p Z^n.
        pytest.param(2, 5, 1, 1, (4, 7), id="2-5-1-one-candidate")])
    def test_carried_shortest_norm_matches_enumeration(self, p, n, kmax,
                                                       candidates, seeds):
        # The search carries the code's shortest squared norm and its
        # count, unclipped, from rank to rank: those of its rows' code.
        for seed in seeds:
            rows, short, mult = _greedy_search(p, n, kmax, seed, candidates)
            cw = gf.all_codewords(rows, p)[1:]
            norms = (np.minimum(cw, p - cw) ** 2).sum(axis=1)
            assert (short, mult) == (norms.min(),
                                     np.count_nonzero(norms == norms.min()))

    def test_one_hot_tables_stay_small_at_large_p(self):
        # At p = 211 one one-hot table over all 105 x 200 (c, candidate)
        # columns would hold 8.9 M entries (71 MB); a table takes at most
        # BLOCK_ELEMENTS // (n p) columns.
        peak = repeat_call_peak(lambda k: pick_generator_rows(211, 2, k), 1)
        assert peak < 4 * 2 ** 20

    def test_few_candidates_match_reference(self):
        # With one or two candidates per rank some draws are dependent,
        # and the search may skip every candidate of a rank.
        for p, n, seed in itertools.product((2, 3), (2, 3), range(6)):
            for candidates in (1, 2):
                try:
                    want = pick_generator_rows_reference(
                        p, n, n, seed=seed, candidates=candidates)
                except ValueError:
                    with pytest.raises(InvalidRanks):
                        pick_generator_rows(p, n, n, seed=seed,
                                            candidates=candidates)
                    continue
                got = pick_generator_rows(p, n, n, seed=seed,
                                          candidates=candidates)
                assert np.array_equal(got, want), (p, n, seed, candidates)


class TestSizeListLattice:
    def test_p_equals_n_example(self):
        # P = N: target V_s >= V / 2; p=3, n=2, V=9, V_c=1
        ch = build_chain(3, 2, [0, 2])
        ls = size_list_lattice(ch[0], ch[1], P=1.0, N=1.0)
        assert ls.volume == pytest.approx(9.0, rel=1e-12)
        assert ch[1].volume == pytest.approx(1.0, rel=1e-12)
        assert round(ls.volume / ch[1].volume) == 9

    @pytest.mark.parametrize("gamma", [1.0, 1.0 + 1e-10])
    def test_family_rule_is_is_sublattice(self, gamma):
        # 3Z^2 inside Z^2: gamma within is_sublattice's tolerance is one
        # family, so the pair is sized like any other.
        coarse = ConstructionALattice(3, np.zeros((0, 2)), n=2)
        fine = ConstructionALattice(3, np.eye(2), gamma=gamma, n=2)
        assert is_sublattice(coarse, fine)
        ls = size_list_lattice(coarse, fine, P=100.0, N=1.0)
        assert ls.k == 2 and ls.gamma == gamma
        with pytest.raises(NotNested, match="share p and gamma"):
            size_list_lattice(coarse, fine.scaled(2.0), P=1.0, N=1.0)

    def test_p7_example(self):
        ch = build_chain(7, 2, [0, 2])
        ls = size_list_lattice(ch[0], ch[1], P=1.0, N=1.0)
        assert ls.volume == pytest.approx(49.0, rel=1e-12)

    def test_unique_decoding_regime(self):
        # C(P/N) >= R allows V_s = V_c, list size 1
        ch = build_chain(3, 2, [0, 1])   # R = 0.5 log2 3 ~ 0.79
        ls = size_list_lattice(ch[0], ch[1], P=100.0, N=1.0)
        assert ls.k == ch[1].k

    def test_huge_noise_gives_whole_codebook(self):
        ch = build_chain(3, 2, [0, 2])
        ls = size_list_lattice(ch[0], ch[1], P=1.0, N=1e9)
        assert ls.k == ch[0].k

    def test_bound_satisfied_and_tight(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = int(rng.choice([3, 5]))
            n = int(rng.choice([2, 4]))
            ch = build_chain(p, n, [0, n], seed=int(rng.integers(100)))
            P, N = float(rng.uniform(0.2, 5)), float(rng.uniform(0.2, 5))
            ls = size_list_lattice(ch[0], ch[1], P=P, N=N)
            target = (N / (P + N)) ** (n / 2) * ch[0].volume
            assert ls.volume >= target - 1e-12
            if ls.k < ch[1].k:
                # the next finer rank would violate the bound
                finer = ch[1].with_rank(ls.k + 1)
                assert finer.volume < target

    def test_monotone_in_noise(self):
        ch = build_chain(5, 4, [0, 4])
        vols = [size_list_lattice(ch[0], ch[1], P=1.0, N=N).volume
                for N in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert vols == sorted(vols)

    @given(st.floats(0.05, 20), st.floats(0.05, 20))
    @settings(max_examples=40, deadline=None)
    def test_list_size_at_least_theoretical(self, P, N):
        ch = build_chain(3, 2, [0, 2])
        ls = size_list_lattice(ch[0], ch[1], P=P, N=N)
        R = ch.rate(0, 1)
        C = 0.5 * np.log2(1 + P / N)
        expected = 2.0 ** (2 * (R - C))
        assert ls.volume / ch[1].volume >= expected - 1e-9

    @pytest.mark.parametrize("P, N", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (0.0, 1.0), (1.0, -1.0)])
    def test_non_finite_or_non_positive_powers_rejected(self, P, N):
        # The volume bound is defined for finite positive P and N only: a
        # NaN or inf must raise, not pick a rank.
        ch = build_chain(3, 2, [1, 2])
        with pytest.raises(ValueError, match="finite and positive"):
            size_list_lattice(ch[0], ch[1], P=P, N=N)

    @pytest.mark.parametrize("P, N", [(1e-200, 0.1), (1.0, 1.0),
                                      (4.0, 0.1), (1e6, 1e-6)])
    def test_rank_does_not_depend_on_gamma(self, P, N):
        # V_s / V = p^(k - k_s): gamma^n cancels, so a gamma whose volumes
        # underflow (gamma^8 = 0 at gamma = 1e-100) sizes the list as
        # gamma = 1 does, and tiny P gives the whole codebook.
        ranks = [size_list_lattice(ch[0], ch[1], P=P, N=N).k
                 for ch in (build_chain(3, 8, [1, 6], gamma=g, seed=1)
                            for g in (1e-100, 1.0, 1e30))]
        assert ranks[0] == ranks[1] == ranks[2]
        if P < N:
            assert ranks[0] == 1

    def test_coarse_rank_when_noise_swamps_signal(self):
        # The bound (N/(P+N))^(n/2) V never exceeds V, so the coarse rank
        # is the floor of the search.
        ch = build_chain(3, 2, [1, 2])
        assert size_list_lattice(ch[0], ch[1], P=1e-300, N=1e300).k == 1
