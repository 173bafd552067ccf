"""Per-block reference loops for the block-Markov simulators.

These are the DF and TWRC round trips written one block at a time from
the single-vector lattice operations ``Lattice.nearest`` and
``Lattice.mod`` alone: the unique decode, the sum codeword and the relay's
sum decode are written out below from their formulas, so the reference
shares none of the batched maps it checks. Each block draws U1, U2 and
then its noises from ``trial_rng(seed, b)``. Points map back to their
message, bin or sum indices through dicts built here (``_index_of``), so
no index code is shared with the engines. The batched engines in
``latrelay.relay`` and ``latrelay.twrc`` must reproduce their counts and
transcripts exactly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from latrelay.channel import NestedListDecoder, trial_rng
from latrelay.relay import BinningMap, BlockRecord, DfRunResult
from latrelay.twrc import TwrcBlockRecord, TwrcRunResult


def unique_decode(y, coarse, fine):
    """Q_fine(y) mod coarse, of one vector."""
    return coarse.mod(fine.nearest(y))


def sum_codeword(t1, t2, U2, lam1, lam2):
    """(t1 + t2 - Q2(t2 + U2)) mod Lambda_1, of one vector."""
    return lam1.mod(t1 + t2 - lam2.nearest(t2 + U2))


def relay_decode_sum(YR, U1, U2, cbs, NR):
    """The relay's MMSE-scaled decode of the dithered sum, of one vector:
    Q_fine((alpha YR + U1 - U2) mod Lambda_1) mod Lambda_1, with the finer
    of the two terminals' codebook lattices as fine."""
    fine = cbs.lam_c1 if cbs.lam_c1.k >= cbs.lam_c2.k else cbs.lam_c2
    psum = cbs.power1 + cbs.power2
    alpha = psum / (psum + NR)
    return unique_decode(cbs.lam1.mod(alpha * YR + U1 - U2), cbs.lam1, fine)


def _key(pt, scale):
    return tuple(np.round(pt / scale).astype(int).tolist())


def _index_of(codebook, scale) -> dict:
    """1-based row of each codebook point, keyed by ``_key``."""
    return {_key(t, scale): w for w, t in enumerate(codebook, start=1)}


def sum_bin_lookup(cbs):
    """The bin of one sum codeword of ``cbs``, through a dict of its
    points."""
    sum_of_point = _index_of(cbs.sum_entries, cbs.lam1.gamma)
    return lambda T: int(
        cbs.bin_table[sum_of_point[_key(T, cbs.lam1.gamma)] - 1])


def df_reference(codebooks, params, seed: int) -> DfRunResult:
    ch1, ch2 = codebooks.message_chain, codebooks.resolution_chain
    lam1, lam_s1, lam_c1 = ch1[0], ch1[1], ch1[2]
    lam2, lam_c2 = ch2[0], ch2[1]
    kappa = params.kappa
    lam2k, lam_c2k = lam2.scaled(kappa), lam_c2.scaled(kappa)
    rho = math.sqrt(params.PR / (params.abar * params.P))

    binning = BinningMap(codebooks.num_messages, codebooks.num_bins, seed)
    list_dec = NestedListDecoder(lam1, lam_s1, lam_c1)
    msg_of_point = _index_of(codebooks.message_entries, lam1.gamma)
    res_of_point = _index_of(codebooks.resolution_entries, lam2.gamma)

    aP, abP = params.alpha * params.P, params.abar * params.P
    n_dest = params.N + params.NR
    alpha_relay = aP / (aP + params.NR)
    p_prime = kappa * kappa * abP
    beta = p_prime / (p_prime + aP + n_dest)
    alpha_list = aP / (aP + n_dest)

    rng_msg = trial_rng(seed, 0)
    w_true = [int(rng_msg.integers(1, codebooks.num_messages + 1))
              for _ in range(params.B)] + [1]

    relay_w_hat: Optional[int] = None
    pending: Optional[tuple] = None
    transcript = []
    msg_errors = relay_errors = bin_errors = 0

    for b in range(1, params.B + 2):
        rng = trial_rng(seed, b)
        w_b = w_true[b - 1]
        s_b = binning.bin_of(w_true[b - 2]) if b > 1 else 1
        s_relay = binning.bin_of(relay_w_hat) if b > 1 and relay_w_hat else 1

        U1 = lam1.sample_voronoi(rng)
        U2 = lam2.sample_voronoi(rng)
        t1 = codebooks.message_entries[w_b - 1]
        t2 = codebooks.resolution_entries[s_b - 1]
        X1 = lam1.mod(t1 - U1)
        X2 = lam2.mod(t2 - U2)
        t2_relay = codebooks.resolution_entries[s_relay - 1]
        XR = rho * lam2.mod(t2_relay - U2)
        ZR = rng.normal(0.0, math.sqrt(params.NR), size=lam1.n)
        Z2p = rng.normal(0.0, math.sqrt(params.N), size=lam1.n)

        YR = X1 + X2 + ZR
        y = YR - lam2.mod(t2_relay - U2)
        t1_hat_r = unique_decode(lam1.mod(alpha_relay * y + U1), lam1, lam_c1)
        w_hat_relay = msg_of_point.get(_key(t1_hat_r, lam1.gamma))
        relay_ok = (w_hat_relay == w_b) and (s_relay == s_b)
        relay_errors += not relay_ok
        relay_w_hat = w_hat_relay

        Y2 = X1 + X2 + XR + ZR + Z2p
        y_bin = lam2k.mod(beta * Y2 + kappa * U2)
        t2k_hat = unique_decode(y_bin, lam2k, lam_c2k)
        s_hat = res_of_point.get(_key(t2k_hat, kappa * lam2.gamma))
        bin_ok = s_hat == s_b
        bin_errors += not bin_ok

        t2_hat = codebooks.resolution_entries[(s_hat or 1) - 1]
        X2_hat = kappa * lam2.mod(t2_hat - U2)
        y_list = lam1.mod(alpha_list * (Y2 - X2_hat) + U1)
        lres = list_dec.decode(y_list, truth=t1)
        members = {w for w in (msg_of_point.get(_key(pt, lam1.gamma))
                               for pt in lres.points) if w is not None}

        if pending is not None:
            b_prev, w_prev, prev_members, prev_relay_ok, prev_size = pending
            if s_hat is None:
                cands = set()
            else:
                cands = {w for w in prev_members if binning.bin_of(w) == s_hat}
            resolved_ok = len(cands) == 1 and next(iter(cands)) == w_prev
            msg_errors += not resolved_ok
            transcript.append(BlockRecord(
                b=b_prev, w=w_prev, s=binning.bin_of(w_prev),
                relay_ok=prev_relay_ok, bin_ok=bin_ok, list_size=prev_size,
                intersect_size=len(cands), resolved_ok=resolved_ok))
        pending = (b, w_b, members, relay_ok, lres.size)

    return DfRunResult(messages=params.B, message_errors=msg_errors,
                       relay_errors=relay_errors, bin_errors=bin_errors,
                       transcript=transcript)


def _min_distance_index(y, codebook) -> int:
    return int(np.argmin(np.sum((codebook - y[None, :]) ** 2, axis=1))) + 1


def twrc_reference(cbs, params, seed: int) -> TwrcRunResult:
    ch = params.channel
    lam1, lam2 = cbs.lam1, cbs.lam2
    dec1 = NestedListDecoder(lam1, cbs.lam_s1, cbs.lam_c1)
    dec2 = NestedListDecoder(lam2, cbs.lam_s2, cbs.lam_c2)
    a1 = cbs.power1 / (cbs.power1 + ch.N2)
    a2 = cbs.power2 / (cbs.power2 + ch.N1)
    bin_of_sum = sum_bin_lookup(cbs)

    rng_msg = trial_rng(seed, 0)
    B = params.B
    w1s = [int(rng_msg.integers(1, len(cbs.entries1) + 1))
           for _ in range(B)] + [1]
    w2s = [int(rng_msg.integers(1, len(cbs.entries2) + 1))
           for _ in range(B)] + [1]

    relay_s_hat = 1
    pending = None
    errors1 = errors2 = sum_errors = 0
    transcript = []
    prev_obs1 = prev_obs2 = None
    prev_sum_ok = True

    for b in range(1, B + 2):
        rng = trial_rng(seed, b)
        w1, w2 = w1s[b - 1], w2s[b - 1]
        t1 = cbs.entries1[w1 - 1]
        t2 = cbs.entries2[w2 - 1]
        U1 = lam1.sample_voronoi(rng)
        U2 = lam2.sample_voronoi(rng)
        X1 = lam1.mod(t1 - U1)
        X2 = lam2.mod(t2 + U2)
        XR = cbs.relay_codebook[relay_s_hat - 1]
        ZR = rng.normal(0.0, math.sqrt(ch.NR), size=lam1.n)
        Z1 = rng.normal(0.0, math.sqrt(ch.N1), size=lam1.n)
        Z2 = rng.normal(0.0, math.sqrt(ch.N2), size=lam1.n)

        YR = X1 + X2 + ZR
        T_true = sum_codeword(t1, t2, U2, lam1, lam2)
        T_hat = relay_decode_sum(YR, U1, U2, cbs, ch.NR)
        sum_ok = bool(np.allclose(T_hat, T_true, atol=1e-6))
        sum_errors += not sum_ok
        relay_s_hat = bin_of_sum(T_hat)

        Y1 = XR + X2 + Z1
        Y2 = XR + X1 + Z2
        s1_hat = _min_distance_index(Y1, cbs.relay_codebook)
        s2_hat = _min_distance_index(Y2, cbs.relay_codebook)
        obs1 = Y1 - cbs.relay_codebook[s1_hat - 1]
        obs2 = Y2 - cbs.relay_codebook[s2_hat - 1]

        if pending is not None:
            w1p, w2p, t1p, t2p, U1p, U2p = pending
            lres1 = dec1.decode(lam1.mod(a1 * prev_obs2 + U1p), truth=t1p)
            matches = [pt for pt in lres1.points
                       if bin_of_sum(sum_codeword(pt, t2p, U2p,
                                                  lam1, lam2)) == s2_hat]
            resolve1_ok = (len(matches) == 1
                           and np.allclose(matches[0], t1p, atol=1e-6))
            errors1 += not resolve1_ok

            lres2 = dec2.decode(lam2.mod(a2 * prev_obs1 - U2p), truth=t2p)
            matches2 = [pt for pt in lres2.points
                        if bin_of_sum(sum_codeword(t1p, pt, U2p,
                                                   lam1, lam2)) == s1_hat]
            resolve2_ok = (len(matches2) == 1
                           and np.allclose(matches2[0], t2p, atol=1e-6))
            errors2 += not resolve2_ok

            prev_bin = bin_of_sum(sum_codeword(t1p, t2p, U2p, lam1, lam2))
            transcript.append(TwrcBlockRecord(
                b=b - 1, w1=w1p, w2=w2p, sum_ok=prev_sum_ok,
                bin_ok=(s1_hat == prev_bin and s2_hat == prev_bin),
                list1_size=lres1.size, list2_size=lres2.size,
                resolve1_ok=resolve1_ok, resolve2_ok=resolve2_ok))

        pending = (w1, w2, t1, t2, U1, U2)
        prev_obs1, prev_obs2 = obs1, obs2
        prev_sum_ok = sum_ok

    return TwrcRunResult(messages=B, errors_dir1=errors1, errors_dir2=errors2,
                         sum_errors=sum_errors, transcript=transcript)
