"""Acceptance gate: one test per criterion, one pass/fail line each.

The asymptotic statements (capacity achievement, vanishing error as the
dimension grows) are replaced by exact algebraic checks, independent
oracle comparisons, and finite-n trend tests at the stated tolerances.
"""

import itertools
import math
import time

import numpy as np
from scipy.optimize import brentq

import conftest
from latrelay.chain import build_chain
from latrelay.channel import (
    AwgnParams,
    NestedListDecoder,
    simulate_p2p,
)
from latrelay.lattice import enumerate_codebook
from latrelay.rates import (
    TwrcParams,
    capacity_c,
    cutset_degraded,
    gap_report,
    positive_part,
    sample_twrc_params,
    two_way_no_relay,
    twrc_region,
)
from latrelay.relay import (
    DegradedRelayParams,
    build_df_codebooks,
    df_capacity,
    df_round_trip,
)
from latrelay.twrc import (
    TwrcSimParams,
    build_twrc_codebooks,
    sum_codeword,
    twrc_round_trip,
)
from conftest import recover_t1_from_sum, recover_t2_from_sum


def _verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def _same_point_sets(a, b):
    if len(a) != len(b):
        return False
    a = sorted(map(tuple, np.round(a, 8)))
    b = sorted(map(tuple, np.round(b, 8)))
    return np.allclose(np.asarray(a), np.asarray(b), atol=1e-6)


def test_criterion_01_list_decoder_equivalence():
    """Both decoder forms return identical sets on >= 1000 random inputs,
    p in {3,5}, n in {2,4}, under one minute."""
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    mismatches = 0
    inputs = 0
    for p, n in itertools.product((3, 5), (2, 4)):
        ch = build_chain(p, n, [0, n // 2, n], seed=1)
        dec = NestedListDecoder(ch[0], ch[1], ch[2])
        # One draw of 250 rows: the same numbers as 250 draws of one row.
        Y = rng.uniform(-1.5 * p, 1.5 * p, size=(250, n))
        lists = conftest.list_decode_q_form(Y, ch[0], ch[1], ch[2])
        for y, b in zip(Y, lists):
            a = dec.decode(y).points
            inputs += 1
            mismatches += not _same_point_sets(a, b)
    elapsed = time.time() - t0
    ok = mismatches == 0 and inputs >= 1000 and elapsed < 60
    _verdict(1, ok, f"{mismatches} mismatches on {inputs} inputs, "
                    f"{elapsed:.1f}s")


def test_criterion_02_list_size_law():
    """Decoded list cardinality equals V_s/V_c exactly on every trial."""
    deviations = 0
    trials = 0
    for p, n, ranks in [(3, 2, [0, 1, 2]), (5, 2, [0, 1, 2]),
                        (3, 4, [0, 2, 3])]:
        ch = build_chain(p, n, ranks, seed=2)
        expected = round(ch[1].volume / ch[2].volume)
        stats = simulate_p2p(ch, AwgnParams(P=1.0, N=0.8), trials=4000,
                             seed=11, keep_log=True)
        trials += stats.trials
        deviations += sum(rec[2] != expected for rec in stats.log)
    ok = deviations == 0 and trials >= 10_000
    _verdict(2, ok, f"{deviations} deviations over {trials} trials")


def test_criterion_03_error_event_identity():
    """(t not in L) coincides with (Z' outside V_s) on every trial; the
    harness raises on any mismatch."""
    trials = 0
    try:
        for N in (0.4, 0.9, 2.0):
            ch = build_chain(3, 2, [0, 1, 2], gamma=math.sqrt(12.0) / 3)
            stats = simulate_p2p(ch, AwgnParams(P=1.0, N=N), trials=4000,
                                 seed=21)
            trials += stats.trials
        ok = trials >= 10_000
        detail = f"identity held on all {trials} trials"
    except AssertionError as exc:
        ok, detail = False, str(exc)
    _verdict(3, ok, detail)


def test_criterion_04_mmse_effective_noise_variance():
    """Empirical variance of -(1-a)X + aZ within 3 SE of PN/(P+N) at
    1e5 trials for 5 settings."""
    rng = np.random.default_rng(31)
    m = 100_000
    worst = 0.0
    ok = True
    for P, N in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (4.0, 1.0),
                 (1.0, 0.25)]:
        # rank-0 shaping: the cell is a cube, X uniform on it
        half = math.sqrt(12.0 * P) / 2
        X = rng.uniform(-half, half, size=m)
        Z = rng.normal(0.0, math.sqrt(N), size=m)
        a = P / (P + N)
        v = -(1 - a) * X + a * Z
        target = P * N / (P + N)
        emp = float(np.var(v))
        # standard error of the sample variance from the sample's own
        # fourth moment (the mixture is not Gaussian)
        mu4 = float(np.mean((v - v.mean()) ** 4))
        se = math.sqrt(max(mu4 - emp ** 2, 0.0) / m)
        dev = abs(emp - target) / se
        worst = max(worst, dev)
        ok = ok and dev < 3.0
    _verdict(4, ok, f"worst deviation {worst:.2f} SE over 5 settings "
                    f"at {m} trials")


def test_criterion_05_sum_recovery():
    """Exhaustive exactness at p=3, n=2 over all pairs and 100 dithers;
    randomized exactness at p=5, n=4."""
    def misses(t1, t2, U2, lam1, lam2):
        """Rows whose sum does not give back both codewords."""
        T = sum_codeword(t1, t2, U2, lam1, lam2)
        r1 = recover_t1_from_sum(T, t2, U2, lam1, lam2)
        r2 = recover_t2_from_sum(T, t1, lam1, lam2)
        return int(np.count_nonzero(
            ~(np.isclose(r1, lam1.mod_many(t1), atol=1e-9).all(axis=1)
              & np.isclose(r2, lam2.mod_many(t2), atol=1e-9).all(axis=1))))

    ch = build_chain(3, 2, [0, 1, 2], seed=0)
    lam1, lam2, fine = ch.lattices
    cb1 = enumerate_codebook(lam1, fine)
    cb2 = enumerate_codebook(lam2, fine)
    rng = np.random.default_rng(41)
    dithers = np.array([lam2.sample_voronoi(rng) for _ in range(100)])
    i1, i2, iu = (i.ravel() for i in np.meshgrid(
        range(len(cb1)), range(len(cb2)), range(len(dithers)), indexing="ij"))
    t1, t2, U2 = cb1[i1], cb2[i2], dithers[iu]
    bad = misses(t1, t2, U2, lam1, lam2)
    checked = len(t1)
    ch5 = build_chain(5, 4, [0, 1, 2], seed=3)
    m1, m2, f5 = ch5.lattices
    cb1r = enumerate_codebook(m1, f5)
    cb2r = enumerate_codebook(m2, f5)
    t1, t2, U2 = (np.empty((1000, 4)) for _ in range(3))
    for i in range(1000):
        t1[i] = cb1r[int(rng.integers(len(cb1r)))]
        t2[i] = cb2r[int(rng.integers(len(cb2r)))]
        U2[i] = m2.sample_voronoi(rng)
    bad += misses(t1, t2, U2, m1, m2)
    checked += len(t1)
    _verdict(5, bad == 0, f"{bad} failures over {checked} recoveries")


def test_criterion_06_distributive_mod_law():
    """(x mod L1) mod L2 = x mod L2 for L1 subseteq L2 on 1e4 instances."""
    rng = np.random.default_rng(51)
    bad = 0
    instances = 0
    for _ in range(100):
        p = int(rng.choice([3, 5]))
        n = int(rng.choice([2, 3]))
        ch = build_chain(p, n, sorted(rng.choice(n + 1, size=2).tolist()),
                         gamma=float(rng.uniform(0.5, 2.0)),
                         seed=int(rng.integers(1000)))
        lam1, lam2 = ch[0], ch[1]
        xs = rng.uniform(-3 * p, 3 * p, size=(100, n))
        lhs = lam2.mod_many(lam1.mod_many(xs))
        rhs = lam2.mod_many(xs)
        bad += int(np.sum(np.any(np.abs(lhs - rhs) > 1e-9, axis=1)))
        instances += len(xs)
    ok = bad == 0 and instances >= 10_000
    _verdict(6, ok, f"{bad} violations over {instances} instances")


def test_criterion_07_noiseless_protocols():
    """Both protocols deliver 100% of messages over B=10 blocks at noise
    variance 1e-12."""
    dfp = DegradedRelayParams(P=2.0, PR=50.0, NR=1e-12, N=1e-12, alpha=0.3,
                              B=10, R=0.7, RR=0.7)
    df_res = df_round_trip(build_df_codebooks(dfp, p=5, n=2, seed=1), dfp,
                           seed=7)
    twp = TwrcSimParams(
        channel=TwrcParams(P1=4.0, P2=4.0, PR=200.0, N1=1e-12, N2=1e-12,
                           NR=1e-12),
        R1=0.8, R2=0.8, R=3.0, B=10)
    tw_cbs = build_twrc_codebooks(twp, p=3, n=2, seed=1,
                                  enforce_broadcast_rate=False)
    tw_res = twrc_round_trip(tw_cbs, twp, seed=11)
    ok = (df_res.message_errors == 0 and tw_res.errors_dir1 == 0
          and tw_res.errors_dir2 == 0)
    _verdict(7, ok, f"relay errors {df_res.message_errors}/10, two-way "
                    f"errors {tw_res.errors_dir1}+{tw_res.errors_dir2}/10")


# best-found ternary codes at rate (1/2) log2(3): minimum centered-lift
# norms 2, 3 (tetracode), 4; the greedy seeded search does not reach these
# at n >= 4, and a fair cross-dimension trend needs comparable codes
_TREND_ROWS = {
    2: np.array([[1, 1], [1, 0]]),
    4: np.array([[1, 0, 1, 1], [0, 1, 1, 2], [0, 0, 1, 0]]),
    8: np.array([[1, 2, 1, 0, 2, 0, 1, 1], [2, 0, 0, 0, 0, 2, 1, 1],
                 [0, 2, 1, 2, 1, 0, 0, 0], [0, 0, 1, 1, 2, 1, 0, 2],
                 [0, 0, 0, 0, 1, 0, 0, 0]]),
}


def test_criterion_08_error_rate_trend():
    """Block error rate of the list decoder is non-increasing over
    n in {2,4,8} at a fixed per-dimension list rate with the effective
    noise well inside the cell-volume constraint, 1e4 trials per point,
    under 30 minutes."""
    t0 = time.time()
    P = 1.0
    gamma = math.sqrt(12.0 * P) / 3
    # effective noise at 40% of the normalized cell volume threshold:
    # sigma^2 = 0.4 * V_s^{2/n} / (2 pi e), comfortably (>10%) inside
    vs_per_dim = (gamma * math.sqrt(3.0)) ** 2
    s2 = 0.4 * vs_per_dim / (2 * math.pi * math.e)
    N = s2 * P / (P - s2)
    trials = 10_000
    rates = []
    for n in (2, 4, 8):
        ch = build_chain(3, n, [0, n // 2, n // 2 + 1], gamma=gamma,
                         rows=_TREND_ROWS[n])
        stats = simulate_p2p(ch, AwgnParams(P, N), trials=trials, seed=61)
        rates.append(stats.pe_hat)
    elapsed = time.time() - t0
    ok = elapsed < 1800
    for lo, hi in zip(rates[1:], rates[:-1]):
        slack = 2 * math.sqrt(lo * (1 - lo) / trials
                              + hi * (1 - hi) / trials)
        ok = ok and lo <= hi + slack
    _verdict(8, ok, "pe(n=2,4,8) = "
                    + ", ".join(f"{r:.4f}" for r in rates)
                    + f", {elapsed:.0f}s")


def test_criterion_09_gap_claims():
    """Scenario 1 per-user gap <= 0.5 bits and scenario 2 per-user gap
    <= (1/2) log2 3 over 1e4 random draws each."""
    caps = {1: 0.5, 2: 0.5 * math.log2(3)}
    worst = {}
    ok = True
    for scenario in (1, 2):
        rng = np.random.default_rng(71 + scenario)
        w = -math.inf
        for _ in range(10_000):
            params = sample_twrc_params(scenario, rng)
            rep = gap_report(params, scenario)
            w = max(w, rep.gap1, rep.gap2)
        worst[scenario] = w
        ok = ok and w <= caps[scenario] + 1e-9
    _verdict(9, ok, f"worst gaps {worst[1]:.4f} (cap 0.5) and "
                    f"{worst[2]:.4f} (cap {caps[2]:.4f}) over 1e4 draws each")


def _max_min_crossing(f_dec, g_inc, lo=0.0, hi=1.0):
    if f_dec(lo) <= g_inc(lo):
        return f_dec(lo)
    if f_dec(hi) >= g_inc(hi):
        return g_inc(hi)
    x = brentq(lambda x: f_dec(x) - g_inc(x), lo, hi, xtol=1e-14)
    return f_dec(x)


def test_criterion_10_closed_form_spot_checks():
    """capacity_c, two_way_no_relay, twrc_region, df_capacity and
    cutset_degraded match independent oracles within 1e-6 bits on 100
    random parameter sets each."""
    rng = np.random.default_rng(81)

    def lu():
        return float(np.exp(rng.uniform(math.log(0.01), math.log(100))))

    worst = 0.0
    for _ in range(100):
        x = lu()
        worst = max(worst, abs(capacity_c(x) - 0.5 * math.log2(1 + x)))

        params = sample_twrc_params(1, rng)
        got = two_way_no_relay(params)
        worst = max(worst,
                    abs(got.R1 - 0.5 * math.log2(1 + params.P1 / params.N2)),
                    abs(got.R2 - 0.5 * math.log2(1 + params.P2 / params.N1)))

        reg = twrc_region(params)
        w1 = min(positive_part(0.5 * math.log2(
                 params.P1 / (params.P1 + params.P2) + params.P1 / params.NR)),
                 0.5 * math.log2(1 + (params.P1 + params.PR) / params.N2))
        w2 = min(positive_part(0.5 * math.log2(
                 params.P2 / (params.P1 + params.P2) + params.P2 / params.NR)),
                 0.5 * math.log2(1 + (params.P2 + params.PR) / params.N1))
        worst = max(worst, abs(reg.R1 - w1), abs(reg.R2 - w2))

        P, PR, NR, N = lu(), lu(), lu(), lu()
        got_df = df_capacity(P, PR, NR, N)[0]
        want_df = _max_min_crossing(
            lambda a: 0.5 * math.log2(
                1 + (P + PR + 2 * math.sqrt((1 - a) * P * PR)) / (N + NR)),
            lambda a: 0.5 * math.log2(1 + a * P / NR))
        worst = max(worst, abs(got_df - want_df))

        cs = cutset_degraded(params)
        for Pi, Nop, got_i in [(params.P1, params.N2p, cs.R1),
                               (params.P2, params.N1p, cs.R2)]:
            want_i = _max_min_crossing(
                lambda a: 0.5 * math.log2(
                    1 + (Pi + params.PR
                         + 2 * math.sqrt((1 - a) * Pi * params.PR))
                    / (Nop + params.NR)),
                lambda a: 0.5 * math.log2(1 + a * Pi / params.NR))
            worst = max(worst, abs(got_i - want_i))
    _verdict(10, worst < 1e-6,
             f"worst deviation {worst:.2e} bits over 100 sets per formula")
