import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from latrelay.channel import AwgnParams
from latrelay.cli import main
from latrelay.errors import NegativeArgument, ScenarioViolation
from latrelay.rates import (
    GapReport,
    RatePoint,
    TwrcParams,
    capacity_c,
    cutset_degraded,
    cutset_general,
    gap_report,
    maximize_unimodal,
    positive_part,
    sample_twrc_params,
    two_way_no_relay,
    twrc_region,
)
from latrelay.relay import DegradedRelayParams, df_capacity
from latrelay.twrc import TwrcSimParams


def crossing(f_dec, g_inc, lo=0.0, hi=1.0):
    """brentq root of f_dec - g_inc on [lo, hi], to brentq's relative
    tolerance (the absolute one is set negligible, since optimal power
    splits can be far smaller than 1e-14)."""
    return brentq(lambda x: f_dec(x) - g_inc(x), lo, hi, xtol=1e-300)


def max_min_crossing(f_dec, g_inc, lo=0.0, hi=1.0):
    """Oracle for max over x of min(f_dec(x), g_inc(x)) with f decreasing
    and g increasing: the optimum sits at an endpoint or at the crossing,
    which brentq finds to near machine precision. At the crossing it
    returns the rising term, which in these objectives has no 1 - x^2
    cancellation as x -> 1 (the falling broadcast cut of the general
    cut-set bound loses up to 5e-12 bits there at ratios of 1e4)."""
    if f_dec(lo) <= g_inc(lo):
        return f_dec(lo)
    if f_dec(hi) >= g_inc(hi):
        return g_inc(hi)
    return g_inc(crossing(f_dec, g_inc, lo, hi))


def cutset_degraded_oracle(p: TwrcParams) -> RatePoint:
    def one(Pi, Nop):
        g = lambda a: 0.5 * math.log2(1 + a * Pi / p.NR)
        f = lambda a: 0.5 * math.log2(
            1 + (Pi + p.PR + 2 * math.sqrt((1 - a) * Pi * p.PR))
            / (Nop + p.NR))
        return max_min_crossing(f, g)
    return RatePoint(one(p.P1, p.N2p), one(p.P2, p.N1p))


def cutset_general_oracle(p: TwrcParams) -> RatePoint:
    def one(Pi, No):
        f = lambda r: 0.5 * math.log2(
            1 + Pi * (1 - r * r) * (1 / p.NR + 1 / No))
        g = lambda r: 0.5 * math.log2(
            1 + (Pi + p.PR + 2 * r * math.sqrt(Pi * p.PR)) / No)
        return max_min_crossing(f, g)
    return RatePoint(one(p.P1, p.N2), one(p.P2, p.N1))


def df_terms(P, PR, NR, N):
    """(falling, rising) terms of the DF max-min over the power split.
    log1p keeps small rates accurate to their last bits, which the
    crossing's position depends on when both terms are flat."""
    C = lambda x: 0.5 * math.log1p(x) / math.log(2)
    g = lambda a: C(a * P / NR)
    f = lambda a: C((P + PR + 2 * math.sqrt((1 - a) * P * PR)) / (N + NR))
    return f, g


def df_capacity_oracle(P, PR, NR, N):
    return max_min_crossing(*df_terms(P, PR, NR, N))


def _draw(rng, scenario=1):
    return sample_twrc_params(scenario, rng)


class TestCapacityC:
    def test_values(self):
        assert capacity_c(0.0) == 0.0
        assert capacity_c(1.0) == pytest.approx(0.5, rel=1e-15)
        assert capacity_c(3.0) == pytest.approx(1.0, rel=1e-15)

    def test_negative_raises(self):
        with pytest.raises(NegativeArgument):
            capacity_c(-0.1)

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert capacity_c(lo) <= capacity_c(hi) + 1e-12


class TestTwrcParams:
    @pytest.mark.parametrize("mode", ["stochastc", "Physical", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode"):
            TwrcParams(P1=4.0, P2=2.0, PR=8.0, N1=0.5, N2=0.5, NR=1.0,
                       mode=mode)

    @pytest.mark.parametrize("mode", ["none", "stochastic"])
    def test_known_modes_accepted(self, mode):
        assert TwrcParams(P1=4.0, P2=2.0, PR=8.0, N1=1.5, N2=1.5, NR=1.0,
                          mode=mode).mode == mode


class TestTwoWayNoRelay:
    def test_examples(self):
        p = TwrcParams(P1=3.0, P2=3.0, PR=1.0, N1=1.0, N2=3.0, NR=1.0)
        assert two_way_no_relay(p).R1 == pytest.approx(0.5, rel=1e-12)
        assert two_way_no_relay(p).R2 == pytest.approx(1.0, rel=1e-12)

    def test_symmetry(self):
        p = TwrcParams(P1=2.0, P2=2.0, PR=1.0, N1=0.7, N2=0.7, NR=0.5)
        rp = two_way_no_relay(p)
        assert rp.R1 == rp.R2


class TestTwrcRegion:
    def test_symmetry(self):
        p = TwrcParams(P1=2.0, P2=2.0, PR=3.0, N1=0.7, N2=0.7, NR=0.5)
        rp = twrc_region(p)
        assert rp.R1 == rp.R2

    def test_direct_substitution(self):
        p = TwrcParams(P1=4.0, P2=1.0, PR=2.0, N1=0.5, N2=0.25, NR=0.8)
        rp = twrc_region(p)
        want1 = min(positive_part(0.5 * math.log2(4 / 5 + 4 / 0.8)),
                    0.5 * math.log2(1 + 6 / 0.25))
        want2 = min(positive_part(0.5 * math.log2(1 / 5 + 1 / 0.8)),
                    0.5 * math.log2(1 + 3 / 0.5))
        assert rp.R1 == pytest.approx(want1, abs=1e-12)
        assert rp.R2 == pytest.approx(want2, abs=1e-12)

    def test_positive_part_clamps(self):
        # sum-rate term negative when NR is huge and P2 small
        p = TwrcParams(P1=10.0, P2=0.01, PR=1.0, N1=1.0, N2=1.0, NR=1e6)
        assert twrc_region(p).R2 == 0.0


class TestCutsetBounds:
    def test_degraded_matches_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            p = _draw(rng, scenario=1)
            got = cutset_degraded(p)
            want = cutset_degraded_oracle(p)
            assert got.R1 == pytest.approx(want.R1, abs=1e-6)
            assert got.R2 == pytest.approx(want.R2, abs=1e-6)

    def test_general_matches_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = _draw(rng, scenario=2)
            got = cutset_general(p)
            want = cutset_general_oracle(p)
            assert got.R1 == pytest.approx(want.R1, abs=1e-6)
            assert got.R2 == pytest.approx(want.R2, abs=1e-6)

    def test_degraded_zero_relay_power(self):
        p = TwrcParams.physically_degraded(P1=2.0, P2=1.0, PR=1e-12, NR=0.5,
                                           N1p=0.3, N2p=0.4)
        got = cutset_degraded(p)
        assert got.R1 == pytest.approx(capacity_c(2.0 / 0.9), abs=1e-5)
        assert got.R2 == pytest.approx(capacity_c(1.0 / 0.8), abs=1e-5)

    def test_degraded_tiny_relay_noise_picks_coherent_limit(self):
        p = TwrcParams.physically_degraded(P1=2.0, P2=1.0, PR=3.0, NR=1e-9,
                                           N1p=0.5, N2p=0.5)
        got = cutset_degraded(p)
        want = 0.5 * math.log2(1 + (2 + 3 + 2 * math.sqrt(6)) / 0.5)
        assert got.R1 == pytest.approx(want, abs=1e-4)

    def test_general_symmetry(self):
        p = TwrcParams(P1=2.0, P2=2.0, PR=3.0, N1=0.7, N2=0.7, NR=0.5)
        got = cutset_general(p)
        assert got.R1 == pytest.approx(got.R2, abs=1e-12)

    def test_general_dominates_degraded_form(self):
        # the general broadcast cut keeps the direct observation, so it
        # never undercuts the degraded evaluation on shared parameters
        rng = np.random.default_rng(103)
        for _ in range(50):
            p = _draw(rng, scenario=1)
            gen = cutset_general(p)
            deg = cutset_degraded(p)
            assert gen.R1 >= deg.R1 - 1e-6
            assert gen.R2 >= deg.R2 - 1e-6

    def test_monotone_in_power_and_noise(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            p = _draw(rng, scenario=2)
            up = TwrcParams(P1=p.P1 * 1.2, P2=p.P2, PR=p.PR, N1=p.N1,
                            N2=p.N2, NR=p.NR, mode="stochastic")
            assert cutset_general(up).R1 >= cutset_general(p).R1 - 1e-9
            noisy = TwrcParams(P1=p.P1, P2=p.P2, PR=p.PR, N1=p.N1,
                               N2=p.N2 * 1.3, NR=p.NR, mode="stochastic")
            assert cutset_general(noisy).R1 <= cutset_general(p).R1 + 1e-9


class TestDfCapacity:
    def test_matches_oracle(self):
        rng = np.random.default_rng(105)
        for _ in range(100):
            P, PR, NR, N = (float(np.exp(rng.uniform(math.log(0.01),
                                                     math.log(100))))
                            for _ in range(4))
            got = df_capacity(P, PR, NR, N)[0]
            want = df_capacity_oracle(P, PR, NR, N)
            assert got == pytest.approx(want, abs=1e-6)

    def test_symmetric_unit_case(self):
        rate, alpha = df_capacity(1.0, 1.0, 1.0, 1.0)
        assert rate == pytest.approx(0.5, abs=1e-6)


class TestClosedForms:
    """The closed-form optimisers against the brentq oracles within 1e-12
    bits, on a grid of PR, NR and N' relative to the user's power: ratios
    1e-4 to 1e4, PR = 0, and both branches (the endpoint optimum and the
    interior crossing) of each optimiser."""

    RATIOS = (1e-4, 1e-2, 1.0, 1e2, 1e4)
    TOL = 1e-12

    def grid(self):
        for Pi in (0.01, 1.0, 100.0):
            for pr, nr, nop in itertools.product((0.0,) + self.RATIOS,
                                                 self.RATIOS, self.RATIOS):
                yield Pi, pr * Pi, nr * Pi, nop * Pi

    def test_degraded(self):
        branches = set()
        for Pi, PR, NR, Nop in self.grid():
            p = TwrcParams.physically_degraded(Pi, Pi, PR, NR, Nop, Nop)
            got, want = cutset_degraded(p), cutset_degraded_oracle(p)
            assert abs(got.R1 - want.R1) <= self.TOL, (Pi, PR, NR, Nop)
            assert got.R2 == got.R1
            branches.add(Pi / NR <= (Pi + PR) / (Nop + NR))
        assert branches == {True, False}

    def test_general(self):
        branches = set()
        for Pi, PR, NR, Nop in self.grid():
            p = TwrcParams(Pi, Pi, PR, NR + Nop, NR + Nop, NR,
                           mode="stochastic")
            got, want = cutset_general(p), cutset_general_oracle(p)
            assert abs(got.R1 - want.R1) <= self.TOL, (Pi, PR, NR, Nop)
            assert got.R2 == got.R1
            branches.add((Pi + PR) / p.N1 >= Pi * (1 / NR + 1 / p.N1))
        assert branches == {True, False}

    def test_df_rate_and_alpha(self):
        branches = set()
        for P, PR, NR, N in self.grid():
            rate, alpha = df_capacity(P, PR, NR, N)
            assert abs(rate - df_capacity_oracle(P, PR, NR, N)) <= self.TOL
            f, g = df_terms(P, PR, NR, N)
            endpoint = f(1.0) >= g(1.0)
            branches.add(endpoint)
            if endpoint:
                assert alpha == 1.0, (P, PR, NR, N)
            else:
                assert alpha == pytest.approx(crossing(f, g), rel=1e-12,
                                              abs=0), (P, PR, NR, N)
        assert branches == {True, False}

    def test_branch_boundary(self):
        # Exactly on the boundary both branches give the endpoint value.
        p = TwrcParams.physically_degraded(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert cutset_degraded(p).R1 == capacity_c(1.0)
        assert df_capacity(1.0, 1.0, 1.0, 1.0) == (capacity_c(1.0), 1.0)
        q = TwrcParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert cutset_general(q).R1 == capacity_c(2.0)


def _sample_reference(scenario, rng, lo=0.01, hi=100.0):
    """Parameter draw with one scalar rng.uniform call per value."""
    def lu():
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    Pa, Pb = lu(), lu()
    P1, P2 = max(Pa, Pb), min(Pa, Pb)
    PR = lu()
    NR = lu()
    if scenario == 1:
        return TwrcParams.physically_degraded(P1=P1, P2=P2, PR=PR, NR=NR,
                                              N1p=lu(), N2p=lu())
    return TwrcParams(P1=P1, P2=P2, PR=PR, N1=NR + lu(), N2=NR + lu(),
                      NR=NR, mode="stochastic")


class TestSampleTwrcParams:
    @pytest.mark.parametrize("scenario", [1, 2])
    @pytest.mark.parametrize("lo,hi", [(0.01, 100.0), (1e-3, 5.0)])
    def test_stream_matches_scalar_draws(self, scenario, lo, hi):
        rng = np.random.default_rng(31 + scenario)
        ref = np.random.default_rng(31 + scenario)
        for _ in range(1000):
            assert sample_twrc_params(scenario, rng, lo, hi) == \
                _sample_reference(scenario, ref, lo, hi)

    @pytest.mark.parametrize("field", ["P1", "P2", "PR", "N1", "N2", "NR"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, field, bad):
        values = dict(P1=2.0, P2=1.0, PR=1.0, N1=1.0, N2=1.0, NR=0.5)
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            TwrcParams(**values)


class TestGapReport:
    def test_scenario_1_bound(self):
        rng = np.random.default_rng(106)
        for _ in range(300):
            p = _draw(rng, scenario=1)
            rep = gap_report(p, 1)
            assert max(rep.gap1, rep.gap2) <= 0.5 + 1e-9
            assert min(rep.gap1, rep.gap2) >= -1e-9

    def test_scenario_2_bound(self):
        rng = np.random.default_rng(107)
        cap = 0.5 * math.log2(3)
        for _ in range(300):
            p = _draw(rng, scenario=2)
            rep = gap_report(p, 2)
            assert max(rep.gap1, rep.gap2) <= cap + 1e-9
            assert min(rep.gap1, rep.gap2) >= -1e-9

    def test_symmetric_draw_equal_gaps(self):
        p = TwrcParams.physically_degraded(P1=2.0, P2=2.0, PR=1.5, NR=0.6,
                                           N1p=0.9, N2p=0.9)
        rep = gap_report(p, 1)
        assert rep.gap1 == pytest.approx(rep.gap2, abs=1e-9)

    def test_scenario_violation(self):
        p = TwrcParams(P1=2.0, P2=1.0, PR=1.0, N1=0.5, N2=0.5, NR=0.6)
        with pytest.raises(ScenarioViolation):
            gap_report(p, 1)
        with pytest.raises(ScenarioViolation):
            gap_report(p, 2)
        with pytest.raises(ScenarioViolation):
            gap_report(p, 3)

    def test_algebraic_chain_step(self):
        # max(1/2 log2(2P1/(P1+P2) + 2P1/NR), 1/2) >= C(P1/NR)
        rng = np.random.default_rng(108)
        for _ in range(200):
            p = _draw(rng, scenario=1)
            lhs = max(0.5 * math.log2(2 * p.P1 / (p.P1 + p.P2)
                                      + 2 * p.P1 / p.NR), 0.5)
            assert lhs >= capacity_c(p.P1 / p.NR) - 1e-12


class TestGapSupremum:
    """The gap caps are suprema that gap_report approaches: as P1 / P2
    grows with P2 = NR and the other terminal's noise at its floor, user
    2's achievable rate [1/2 log2(P2 / (P1 + P2) + P2 / NR)]^+ falls to 0
    while its cut-set bound tends to C(k), k = 1 in scenario 1 and 2 in
    scenario 2. So gap2 tends to sup_x C(k x) - [1/2 log2 x]^+ =
    1/2 log2(1 + k), from below, by about P2 / (2 ln 2 P1)."""

    NR = P2 = 1e-3
    PR = 1e9
    CAPS = {1: 0.5, 2: 0.5 * math.log2(3)}

    def _gap2(self, scenario, ratio):
        P1, NR = self.P2 * ratio, self.NR
        if scenario == 1:
            params = TwrcParams.physically_degraded(
                P1=P1, P2=self.P2, PR=self.PR, NR=NR, N1p=0.0, N2p=1.0)
        else:
            params = TwrcParams(P1=P1, P2=self.P2, PR=self.PR, N1=NR,
                                N2=NR + 1.0, NR=NR, mode="stochastic")
        return gap_report(params, scenario).gap2

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_gap_within_1e9_of_cap(self, scenario):
        cap = self.CAPS[scenario]
        assert cap - 1e-9 <= self._gap2(scenario, 1e9) <= cap

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_shortfall_falls_as_p2_over_p1(self, scenario):
        cap = self.CAPS[scenario]
        for ratio in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
            shortfall = cap - self._gap2(scenario, ratio)
            assert shortfall > 0.0
            assert shortfall * 2 * math.log(2) * ratio == pytest.approx(
                1.0, rel=2e-3)


class TestMaximizeUnimodal:
    def test_quadratic(self):
        x, v = maximize_unimodal(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_endpoint(self):
        x, v = maximize_unimodal(lambda x: x, 0.0, 1.0)
        assert v == pytest.approx(1.0, abs=1e-6)


class TestRecordContract:
    """Parameter records are frozen and hashable; result records are plain
    dataclasses that still validate, compare by value and work with the
    dataclasses module's helpers."""

    CHANNEL = TwrcParams.physically_degraded(P1=4.0, P2=2.0, PR=8.0, NR=1.0,
                                             N1p=1.0, N2p=0.5)
    PARAMS = {
        "TwrcParams": (CHANNEL, "P1"),
        "AwgnParams": (AwgnParams(P=1.0, N=0.1), "N"),
        "DegradedRelayParams": (DegradedRelayParams(
            P=2.0, PR=4.0, NR=0.02, N=0.02, alpha=0.5, B=25, R=1.16,
            RR=1.16), "alpha"),
        "TwrcSimParams": (TwrcSimParams(channel=CHANNEL, R1=0.8, R2=0.8,
                                        R=3.0, B=10), "R"),
    }

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_parameter_records_frozen_and_hashable(self, name):
        record, field = self.PARAMS[name]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 1.0)
        twin = dataclasses.replace(record)
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0,
                                     -1e-300])
    @pytest.mark.parametrize("user", ["R1", "R2"])
    def test_rate_point_rejects_bad_rates(self, bad, user):
        values = {"R1": 0.5, "R2": 0.25, user: bad}
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RatePoint(**values)

    def test_rate_point_value_semantics(self):
        rp = RatePoint(R1=0.5, R2=0.25)
        assert rp == RatePoint(0.5, 0.25) and rp != RatePoint(0.5, 0.5)
        assert [f.name for f in dataclasses.fields(rp)] == ["R1", "R2"]
        assert dataclasses.replace(rp, R2=1.0) == RatePoint(0.5, 1.0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dataclasses.replace(rp, R1=math.nan)

    def test_gap_report_value_semantics(self):
        rep = gap_report(self.CHANNEL, 1)
        twin = gap_report(self.CHANNEL, 1)
        assert rep == twin and rep is not twin
        assert [f.name for f in dataclasses.fields(GapReport)] == [
            "achievable", "outer", "gap1", "gap2", "scenario", "params"]
        assert dataclasses.replace(rep) == rep
        assert dataclasses.replace(rep, gap1=rep.gap1 + 1.0) != rep
        assert dataclasses.astuple(rep)[2:5] == (rep.gap1, rep.gap2, 1)


# sha256 of `gaps` outputs (1,000 draws on [0.01, 100]) per scenario and
# seed, and of `regions` outputs per degradation mode, taken before the
# rate records became plain dataclasses: record and helper changes must
# leave every output byte as it was.
GAPS_PINNED = {
    (1, 0): {"gaps.csv": "2e509d93a91a250d7d01a2292f96903b"
                         "faafa9504cb75613cf33afa3d32e50ee",
             "gaps.svg": "c9d27b594319475a9b2cb8057f1f72b6"
                         "81f137c6c229ed009ba9e5b3771b2bd6"},
    (1, 3): {"gaps.csv": "3d9098c70aaed402d4f84e1d27247791"
                         "ef4f26c102e8f0a78b62d59f3ce4edf0",
             "gaps.svg": "83d88ebce0b6789734a49b1cf8953f0a"
                         "8270a098e72aaae206a84775b14d3056"},
    (2, 0): {"gaps.csv": "4bd52e122952c94cab85a2f40b4a479c"
                         "2389b353da3d38445f4739722bd7feb0",
             "gaps.svg": "1acd17191906773e4baaf0a61e7d9ec4"
                         "9fbf88d520a98d449b765eb802fd51f3"},
    (2, 3): {"gaps.csv": "f5e9eb50e46eb6b3c2cbe4703e64e8c7"
                         "1407a1e4719c863838dfe1bfe11b793b",
             "gaps.svg": "6adf8c8a39fa46c183e3fb071583f88d"
                         "ab1acda27977adda6fd6c8e528913e09"},
}
REGIONS_PINNED = {
    "physical": ("N1p = 1.0\nN2p = 0.5\n",
                 {"regions.csv": "35a2caaebc0a48347daf2b6c72b3d249"
                                 "d617172e1507c6365066f1b04241c65c",
                  "regions.svg": "9c29996036de0d59ec06261a18d9c63b"
                                 "2c04c01627119de3cc7a77bc1dae8bfd"}),
    "stochastic": ("N1 = 2.0\nN2 = 1.5\n",
                   {"regions.csv": "107b2cc67abe75fcb5efe81e35291c02"
                                   "ebecc4f121bb015c66d796451b7ef7cd",
                    "regions.svg": "5518314040a0da98345fa054fbf09c36"
                                   "e917ef6773c2249ad0d9bef2589f9674"}),
}


def _assert_pinned(tmp_path, command, body, seed, digests):
    config = tmp_path / "pinned.ini"
    config.write_text(body)
    assert main([command, "--config", str(config), "--seed", str(seed),
                 "--out", str(tmp_path), "--quiet"]) == 0
    for name, digest in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


@pytest.mark.parametrize("scenario,seed", sorted(GAPS_PINNED))
def test_gaps_outputs_pinned(tmp_path, scenario, seed):
    _assert_pinned(tmp_path, "gaps",
                   f"[gaps]\nscenario = {scenario}\ndraws = 1000\n"
                   "lo = 0.01\nhi = 100.0\n", seed,
                   GAPS_PINNED[scenario, seed])


@pytest.mark.parametrize("mode", sorted(REGIONS_PINNED))
def test_regions_outputs_pinned(tmp_path, mode):
    noises, digests = REGIONS_PINNED[mode]
    _assert_pinned(tmp_path, "regions",
                   f"[regions]\nmode = {mode}\nP1 = 4.0\nP2 = 2.0\n"
                   "PR = 8.0\nNR = 1.0\n" + noises, 0, digests)
