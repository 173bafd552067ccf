"""Two-way relay channel with direct links: sum decoding at the relay,
uniform binning broadcast, and list-plus-bin resolution at the terminals.

The relay decodes the dithered sum of the two terminals' codewords (a
single lattice point, no individual-message MAC constraint), throws it
uniformly into bins, and broadcasts the bin index with a random Gaussian
codebook. Each terminal list decodes the other terminal's codeword from
its direct observation of the previous block and keeps the unique list
member whose implied sum falls in the decoded bin.

Terminal 2's dither enters with a plus sign (X2 = (t2 + U2) mod Lambda_2)
so the decoded sum is exactly (t1 + t2 - Q2(t2 + U2)) mod Lambda_1 and the
algebraic recovery identities below hold verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf
from .chain import build_chain, rank_for_rate, size_list_lattice
from .channel import NestedListDecoder, block_draws, draw_messages, resolve
from .errors import Infeasible, NotACodeword, NotNested
from .lattice import (
    ConstructionALattice,
    codebook_index,
    enumerate_codebook,
    is_sublattice,
    second_moment,
)
from .rates import TwrcParams, capacity_c

# Monte Carlo samples for the second moment of a non-cubic Lambda_2.
POWER_SAMPLES = 2000


def sum_codeword(t1: np.ndarray, t2: np.ndarray, U2: np.ndarray,
                 lam1: ConstructionALattice, lam2: ConstructionALattice
                 ) -> np.ndarray:
    """T = (t1 + t2 - Q2(t2 + U2)) mod Lambda_1, of each row of a batch
    (m, n)."""
    return lam1.mod_many(t1 + t2 - lam2.nearest_many(t2 + U2))


def recover_t1_from_sum(T: np.ndarray, t2: np.ndarray, U2: np.ndarray,
                        lam1: ConstructionALattice, lam2: ConstructionALattice
                        ) -> np.ndarray:
    """t1 = (T - t2 + Q2(t2 + U2)) mod Lambda_1, exact algebra, of each
    row of a batch (m, n)."""
    if not is_sublattice(lam1, lam2):
        raise NotNested("Lambda_1 must be a sublattice of Lambda_2")
    return lam1.mod_many(T - t2 + lam2.nearest_many(t2 + U2))


def recover_t2_from_sum(T: np.ndarray, t1: np.ndarray,
                        lam1: ConstructionALattice, lam2: ConstructionALattice
                        ) -> np.ndarray:
    """t2 = (T mod Lambda_2 - t1) mod Lambda_2, of each row of a batch
    (m, n), using the distributive mod law for Lambda_1 subseteq Lambda_2."""
    if not is_sublattice(lam1, lam2):
        raise NotNested("Lambda_1 must be a sublattice of Lambda_2")
    return lam2.mod_many(lam2.mod_many(T) - t1)


@dataclass(frozen=True)
class TwrcSimParams:
    """Channel parameters plus operating rates for the simulator."""
    channel: TwrcParams
    R1: float
    R2: float
    R: float      # relay broadcast rate (free parameter)
    B: int

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.R1, self.R2, self.R)):
            raise ValueError(f"rates must be finite, got R1={self.R1!r}, "
                             f"R2={self.R2!r}, R={self.R!r}")
        if self.R1 < 0 or self.R2 < 0 or self.R < 0:
            raise ValueError("rates must be nonnegative")
        if self.B < 2:
            raise ValueError("need at least 2 blocks")


@dataclass
class TwrcCodebooks:
    """Shared chain, per-terminal codebooks, relay codebook and binning."""
    lam1: ConstructionALattice
    lam2: ConstructionALattice
    lam_c1: ConstructionALattice
    lam_c2: ConstructionALattice
    lam_s1: ConstructionALattice
    lam_s2: ConstructionALattice
    dec1: NestedListDecoder               # (lam1, lam_s1, lam_c1): t1 at T2
    dec2: NestedListDecoder               # (lam2, lam_s2, lam_c2): t2 at T1
    entries1: np.ndarray                  # row w-1 is terminal 1's message w
    entries2: np.ndarray                  # row w-1 is terminal 2's message w
    sum_entries: np.ndarray               # row i-1 is sum codeword i
    relay_codebook: np.ndarray            # (num_bins, n), Gaussian, power PR
    bin_table: np.ndarray                 # sum index -> bin index (1-based)
    power1: float
    power2: float
    rate1_achieved: float
    rate2_achieved: float

    @property
    def num_bins(self) -> int:
        return self.relay_codebook.shape[0]

    def bin_of_sum(self, T: np.ndarray) -> np.ndarray:
        """Bin (1-based) of each sum codeword in a batch (m, n)."""
        index = codebook_index(self.sum_entries, T, self.lam1.gamma)
        if not index.all():
            raise NotACodeword("not a sum codeword")
        return self.bin_table[index - 1]


def _rank_for_power(p: int, n: int, P1: float, P2: float) -> int:
    # cubic-cell approximation: second moment scales like V^(2/n)
    return max(0, round(0.5 * n * math.log(P1 / P2, p)))


def build_twrc_codebooks(params: TwrcSimParams, p: int, n: int, seed: int = 0,
                         enforce_broadcast_rate: bool = True) -> TwrcCodebooks:
    """Build the nested 6-lattice family, the terminals' two list decoders
    and the relay's bin codebook.

    The shaping lattice for terminal 1 is rank 0 (exact power P1); terminal
    2's rank is chosen to approximate P2 on the volume grid and its
    achieved power is measured and used by the MMSE front ends. Lattice
    order in the chain is by volume, coarse to fine.
    """
    gf.check_prime(p)
    ch = params.channel
    gamma = math.sqrt(12.0 * ch.P1) / p
    k1 = 0
    k2 = _rank_for_power(p, n, ch.P1, ch.P2)
    dk1 = rank_for_rate(p, n, params.R1)
    dk2 = rank_for_rate(p, n, params.R2)
    kc1, kc2 = k1 + dk1, k2 + dk2
    kmax = max(kc1, kc2)
    if kmax > n:
        raise Infeasible(f"rates require rank {kmax} > n = {n}")

    base = build_chain(p, n, sorted({k1, k2, kc1, kc2, kmax}), gamma=gamma,
                       seed=seed)
    by_rank = dict(zip(base.ranks, base.lattices))
    lam1, lam2 = by_rank[k1], by_rank[k2]
    lam_c1, lam_c2 = by_rank[kc1], by_rank[kc2]
    lam_s1 = size_list_lattice(lam1, lam_c1, P=ch.P1, N=ch.N2)
    lam_s2 = size_list_lattice(lam2, lam_c2, P=ch.P2, N=ch.N1)

    power1 = lam1.second_moment_exact()
    exact2 = lam2.second_moment_exact()
    power2 = exact2 if exact2 is not None else second_moment(
        lam2, POWER_SAMPLES, seed)

    mi1 = capacity_c(ch.PR / (power1 + ch.N2))
    mi2 = capacity_c(ch.PR / (power2 + ch.N1))
    if enforce_broadcast_rate and params.R < max(mi1, mi2) - 1e-12:
        raise Infeasible(
            f"broadcast rate {params.R:g} below required {max(mi1, mi2):g}")

    sum_entries = enumerate_codebook(lam1, by_rank[kmax])
    # 2^(nR) bins, at most one per sum: capped before the power overflows.
    num_bins = max(1, round(2.0 ** min(n * params.R,
                                       math.log2(len(sum_entries)))))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xC0DE,)))
    relay_codebook = rng.normal(0.0, math.sqrt(ch.PR), size=(num_bins, n))
    bin_table = rng.integers(1, num_bins + 1, size=len(sum_entries))
    if num_bins == len(sum_entries):
        bin_table = np.arange(1, num_bins + 1)   # degenerate: one sum per bin

    return TwrcCodebooks(
        lam1=lam1, lam2=lam2, lam_c1=lam_c1, lam_c2=lam_c2,
        lam_s1=lam_s1, lam_s2=lam_s2,
        dec1=NestedListDecoder(lam1, lam_s1, lam_c1),
        dec2=NestedListDecoder(lam2, lam_s2, lam_c2),
        entries1=enumerate_codebook(lam1, lam_c1),
        entries2=enumerate_codebook(lam2, lam_c2),
        sum_entries=sum_entries,
        relay_codebook=relay_codebook, bin_table=bin_table,
        power1=power1, power2=power2,
        rate1_achieved=dk1 * math.log2(p) / n,
        rate2_achieved=dk2 * math.log2(p) / n)


def relay_decode_sum(YR: np.ndarray, U1: np.ndarray, U2: np.ndarray,
                     cbs: TwrcCodebooks, NR: float) -> np.ndarray:
    """MMSE-scaled lattice decode of the dithered sum codeword, from each
    row of a batch of observations (m, n)."""
    fine = cbs.lam_c1 if cbs.lam_c1.k >= cbs.lam_c2.k else cbs.lam_c2
    psum = cbs.power1 + cbs.power2
    alpha = psum / (psum + NR)
    y = cbs.lam1.mod_many(alpha * YR + U1 - U2)
    return cbs.lam1.mod_many(fine.nearest_many(y))


@dataclass
class TwrcBlockRecord:
    b: int
    w1: int
    w2: int
    sum_ok: bool
    bin_ok: bool
    list1_size: int
    list2_size: int
    resolve1_ok: bool
    resolve2_ok: bool

    CSV_COLUMNS = ("b", "w1", "w2", "sum_ok", "bin_ok", "list1_size",
                   "list2_size", "resolve1_ok", "resolve2_ok")

    def csv_row(self) -> str:
        return (f"{self.b},{self.w1},{self.w2},{int(self.sum_ok)},"
                f"{int(self.bin_ok)},{self.list1_size},{self.list2_size},"
                f"{int(self.resolve1_ok)},{int(self.resolve2_ok)}")


@dataclass
class TwrcRunResult:
    messages: int
    errors_dir1: int     # terminal 2 failing to recover w1
    errors_dir2: int     # terminal 1 failing to recover w2
    sum_errors: int
    transcript: list[TwrcBlockRecord] = field(repr=False, default_factory=list)


def _min_distance_index(Y: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """1-based index of the codebook row nearest to each row of Y (m, n).

    Each observation's differences are scaled by one power of two to
    below 1 in magnitude. The scaling is exact, so it keeps every argmin
    and tie, and the squares cannot overflow.
    """
    diff = codebook - Y[:, None, :]
    _, exp = np.frexp(np.abs(diff).max(axis=(1, 2), keepdims=True))
    d = np.sum(np.ldexp(diff, -exp) ** 2, axis=2)
    return np.argmin(d, axis=1) + 1


def twrc_round_trip(cbs: TwrcCodebooks, params: TwrcSimParams, seed: int,
                    keep_transcript: bool = True) -> TwrcRunResult:
    """Simulate B message blocks plus one flush block.

    Messages come from ``draw_messages`` (terminal 1's first), and block b
    draws U1, U2, ZR, Z1, Z2 from ``trial_rng(seed, b)`` (``block_draws``).
    The relay's sum decode in a block does not depend on earlier blocks, so
    every step after the draws is one batched call over all blocks; only
    the list decodes run block by block. Per direction, block b-1 resolves
    at the end of block b by ``resolve`` on message indices; empty or
    ambiguous intersections count as errors. Sums are compared by their
    index in ``sum_entries``.
    """
    ch = params.channel
    lam1, lam2 = cbs.lam1, cbs.lam2
    a1 = cbs.power1 / (cbs.power1 + ch.N2)
    a2 = cbs.power2 / (cbs.power2 + ch.N1)

    B, g = params.B, lam1.gamma
    w1, w2 = draw_messages(seed, B, (len(cbs.entries1), len(cbs.entries2)))
    # Row b-1 holds block b.
    U1, U2, ZR, Z1, Z2 = block_draws(seed, B + 1, (lam1, lam2),
                                     (ch.NR, ch.N1, ch.N2))
    t1 = cbs.entries1[w1 - 1]
    t2 = cbs.entries2[w2 - 1]
    X1 = lam1.mod_many(t1 - U1)
    X2 = lam2.mod_many(t2 + U2)

    # Relay: decode each block's sum, bin it for the next block.
    T_true = sum_codeword(t1, t2, U2, lam1, lam2)
    T_hat = relay_decode_sum(X1 + X2 + ZR, U1, U2, cbs, ch.NR)
    sum_ok = (codebook_index(cbs.sum_entries, T_hat, g)
              == codebook_index(cbs.sum_entries, T_true, g))
    relay_s = np.concatenate([[1], cbs.bin_of_sum(T_hat)[:-1]])
    XR = cbs.relay_codebook[relay_s - 1]

    # Terminals: own transmit signal is dropped by the channel model.
    Y1 = XR + X2 + Z1
    Y2 = XR + X1 + Z2
    s1_hat = _min_distance_index(Y1, cbs.relay_codebook)
    s2_hat = _min_distance_index(Y2, cbs.relay_codebook)
    obs1 = Y1 - cbs.relay_codebook[s1_hat - 1]
    obs2 = Y2 - cbs.relay_codebook[s2_hat - 1]

    # Block b+1 resolves block b (rows :B): each terminal list decodes the
    # other's codeword from its stored direct observation, then keeps the
    # members whose implied sum falls in the fresh bin index.
    t1p, t2p, U2p = t1[:B], t2[:B], U2[:B]
    ylist1 = lam1.mod_many(a1 * obs2[:B] + U1[:B])
    ylist2 = lam2.mod_many(a2 * obs1[:B] - U2p)
    L1 = np.array([cbs.dec1.decode(y).points for y in ylist1])
    L2 = np.array([cbs.dec2.decode(y).points for y in ylist2])
    l1, l2, n = L1.shape[1], L2.shape[1], lam1.n
    # The block of each list member, direction 1's members first.
    of1, of2 = np.repeat(np.arange(B), l1), np.repeat(np.arange(B), l2)
    member_bins = cbs.bin_of_sum(sum_codeword(
        np.concatenate([L1.reshape(-1, n), t1p[of2]]),
        np.concatenate([t2p[of1], L2.reshape(-1, n)]),
        U2p[np.concatenate([of1, of2])], lam1, lam2))
    bins1 = member_bins[:B * l1].reshape(B, l1)
    bins2 = member_bins[B * l1:].reshape(B, l2)
    idx1 = codebook_index(cbs.entries1, L1.reshape(-1, n), g).reshape(B, l1)
    idx2 = codebook_index(cbs.entries2, L2.reshape(-1, n), g).reshape(B, l2)
    _, resolve1_ok = resolve(idx1, bins1, s2_hat[1:], w1[:B])
    _, resolve2_ok = resolve(idx2, bins2, s1_hat[1:], w2[:B])
    prev_bin = cbs.bin_of_sum(T_true[:B])
    bin_ok = (s1_hat[1:] == prev_bin) & (s2_hat[1:] == prev_bin)

    transcript: list[TwrcBlockRecord] = []
    if keep_transcript:
        transcript = [
            TwrcBlockRecord(b=b + 1, w1=m1, w2=m2, sum_ok=ok_s,
                            bin_ok=ok_b, list1_size=l1, list2_size=l2,
                            resolve1_ok=ok1, resolve2_ok=ok2)
            for b, m1, m2, ok_s, ok_b, ok1, ok2 in zip(
                range(B), w1[:B].tolist(), w2[:B].tolist(),
                sum_ok[:B].tolist(), bin_ok.tolist(),
                resolve1_ok.tolist(), resolve2_ok.tolist())]
    return TwrcRunResult(messages=B,
                         errors_dir1=B - int(np.count_nonzero(resolve1_ok)),
                         errors_dir2=B - int(np.count_nonzero(resolve2_ok)),
                         sum_errors=B + 1 - int(np.count_nonzero(sum_ok)),
                         transcript=transcript)
