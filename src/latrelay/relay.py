"""Block-Markov decode-and-forward on the physically degraded AWGN relay
channel.

The source superimposes a fresh message codeword (power alpha*P) on a
resolution codeword carrying the previous message's bin index (power
(1-alpha)*P); the relay decodes the fresh message and coherently repeats
the resolution codeword scaled to its own power. The destination decodes
the bin index through the combined resolution signal, subtracts it, list
decodes the fresh message, and resolves the previous message as the unique
list member falling in the decoded bin.

Note on the coherent-combining constant: the scaled resolution signal at
the destination is X1 + (1 + sqrt(PR/((1-alpha) P))) X2, so
kappa = 1 + sqrt(PR / ((1-alpha) P)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from . import gf
from .chain import LatticeChain, build_chain, rank_for_rate, size_list_lattice
from .channel import (
    STREAM_KEYS,
    block_draws,
    resolve,
    trial_rng,
    unique_decode,
)
from .lattice import Codebook, cubic_gamma
from .rates import best_power_split


@dataclass(frozen=True)
class DegradedRelayParams:
    """Powers, noises, split and rates for the degraded relay channel.

    Destination noise Z2 = ZR + Z2' has variance NR + N (physical
    degradation is built into the simulator).
    """
    P: float
    PR: float
    NR: float
    N: float
    alpha: float
    B: int
    R: float
    RR: float

    def __post_init__(self):
        values = (self.P, self.PR, self.NR, self.N, self.alpha, self.R,
                  self.RR)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(
                "powers, noise variances, alpha and rates must be finite, "
                f"got P={self.P!r}, PR={self.PR!r}, NR={self.NR!r}, "
                f"N={self.N!r}, alpha={self.alpha!r}, R={self.R!r}, "
                f"RR={self.RR!r}")
        if min(self.P, self.PR, self.NR, self.N) <= 0:
            raise ValueError("powers and noise variances must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("power split alpha must lie strictly in (0, 1)")
        if self.R < 0 or self.RR < 0:
            raise ValueError("rates must be nonnegative")
        if self.B < 2:
            raise ValueError("need at least 2 blocks")

    @property
    def abar(self) -> float:
        return 1.0 - self.alpha

    @property
    def kappa(self) -> float:
        return 1.0 + math.sqrt(self.PR / (self.abar * self.P))


def bin_table(num_messages: int, num_bins: int, seed: int) -> np.ndarray:
    """Uniform i.i.d. assignment of message indices to bins, shared by all
    nodes through the seed: a read-only array whose entry w-1 is message
    w's bin, 1..num_bins."""
    table = trial_rng(seed, STREAM_KEYS["bins"]).integers(
        1, num_bins + 1, size=num_messages)
    table.setflags(write=False)
    return table


@dataclass
class DfCodebooks:
    """Lattice chains and codebooks for one parameter set."""
    message_chain: LatticeChain      # (Lambda_1, Lambda_s1, Lambda_c1)
    resolution_chain: LatticeChain   # (Lambda_2, Lambda_c2)
    rate_achieved: float
    bin_rate_achieved: float
    resolution_codebook: Codebook    # of (Lambda_2, Lambda_c2); s is bin s
    kappa: float                     # the destination's combining constant
    bin_lattices: tuple              # (Lambda_2, Lambda_c2) scaled by kappa

    @property
    def num_messages(self) -> int:
        return len(self.message_chain.codebook)

    @property
    def num_bins(self) -> int:
        return len(self.resolution_codebook)


def build_df_codebooks(params: DegradedRelayParams, p: int, n: int,
                       seed: int = 0) -> DfCodebooks:
    """Build the two nested codebooks with shaping powers alpha*P, abar*P.

    The list lattice is sized for the destination's effective channel
    (signal alpha*P, noise N + NR). Shaping lattices use rank 0 at
    :func:`~latrelay.lattice.cubic_gamma`, whose cubic cell has second
    moment exactly the target. The destination's bin decode runs on the
    resolution pair scaled by kappa, built here once for ``params.kappa``.
    """
    gf.check_prime(p)
    gamma1 = cubic_gamma(p, params.alpha * params.P)
    dk1 = max(1, rank_for_rate(p, n, params.R))
    base1 = build_chain(p, n, [0, dk1], gamma=gamma1, seed=seed)
    ls1 = size_list_lattice(base1[0], base1[1],
                            P=params.alpha * params.P, N=params.N + params.NR)
    chain1 = build_chain(p, n, [0, ls1.k, dk1], gamma=gamma1, rows=base1.rows)

    gamma2 = cubic_gamma(p, params.abar * params.P)
    dk2 = max(1, rank_for_rate(p, n, params.RR))
    chain2 = build_chain(p, n, [0, dk2], gamma=gamma2, seed=seed + 1)
    chain1.list_decoder   # built here, with its codebook, not in a run

    return DfCodebooks(
        message_chain=chain1,
        resolution_chain=chain2,
        rate_achieved=chain1.rate(0, 2),
        bin_rate_achieved=chain2.rate(0, 1),
        resolution_codebook=Codebook(chain2[0], chain2[1]),
        kappa=params.kappa,
        bin_lattices=(chain2[0].scaled(params.kappa),
                      chain2[1].scaled(params.kappa)),
    )


@dataclass
class BlockRecord:
    b: int
    w: int
    s: int
    relay_ok: bool
    bin_ok: bool
    list_size: int
    intersect_size: int
    resolved_ok: bool

    CSV_COLUMNS = ("b", "w_b", "s_b", "relay_ok", "bin_ok", "list_size",
                   "intersect_size", "resolved_ok")

    def csv_row(self) -> str:
        return (f"{self.b},{self.w},{self.s},{int(self.relay_ok)},"
                f"{int(self.bin_ok)},{self.list_size},{self.intersect_size},"
                f"{int(self.resolved_ok)}")


@dataclass
class DfRunResult:
    messages: int
    message_errors: int
    relay_errors: int
    bin_errors: int
    transcript: list[BlockRecord] = field(repr=False, default_factory=list)


def df_round_trip(codebooks: DfCodebooks, params: DegradedRelayParams,
                  seed: int, keep_transcript: bool = True) -> DfRunResult:
    """Simulate B message blocks (plus one flush block).

    ``block_draws`` draws each kind (w, U1, U2, ZR, Z2') for all blocks
    at once from its own stream, so block b's draws do not depend on B:
    messages w_1..w_B uniformly, and w_{B+1} = 1 flushes the last
    resolution index. Every later step is one batched call over all
    blocks, except the destination's list decodes, which run block by
    block and give message indices. Block b resolves when exactly one
    message index of its list lies in the bin decoded in block b+1 and it
    is w_b (``resolve``); empty or ambiguous intersections count as block
    errors, never aborts. Raises ValueError when ``params.kappa`` is not
    the kappa the codebooks' bin-decode lattices were scaled by.
    """
    kappa = params.kappa
    if kappa != codebooks.kappa:
        raise ValueError(f"params give kappa {kappa!r}, the codebooks were "
                         f"built for {codebooks.kappa!r}")
    ch1 = codebooks.message_chain
    lam1, lam_c1 = ch1[0], ch1[2]
    lam2 = codebooks.resolution_chain[0]
    lam2k, lam_c2k = codebooks.bin_lattices
    rho = math.sqrt(params.PR / (params.abar * params.P))

    bins = bin_table(codebooks.num_messages, codebooks.num_bins, seed)
    list_dec = ch1.list_decoder
    msg_book, res_book = ch1.codebook, codebooks.resolution_codebook
    msg_points, res_points = msg_book.points, res_book.points

    aP, abP = params.alpha * params.P, params.abar * params.P
    n_dest = params.N + params.NR
    alpha_relay = aP / (aP + params.NR)
    p_prime = kappa * kappa * abP
    beta = p_prime / (p_prime + aP + n_dest)
    alpha_list = aP / (aP + n_dest)

    B = params.B
    # Row b-1 holds block b.
    (w_true,), (U1, U2), (ZR, Z2p) = block_draws(
        seed, B, (codebooks.num_messages,), (lam1, lam2),
        (params.NR, params.N))

    def bins_of(w: np.ndarray) -> np.ndarray:
        """Bin of each message index; -1 for index 0 (no message)."""
        return np.where(w > 0, bins[w - 1], -1)

    def sent_bins(w_prev: np.ndarray) -> np.ndarray:
        """Bin sent in each block, given the message decoded in the block
        before: 1 in block 1 and when that decode found no message."""
        return np.concatenate([[1], np.maximum(bins_of(w_prev[:-1]), 1)])

    s_true = sent_bins(w_true)
    t1 = msg_points[w_true - 1]
    X1 = lam1.mod_many(t1 - U1)
    X2 = lam2.mod_many(res_points[s_true - 1] - U2)
    YR = X1 + X2 + ZR

    # Relay: its resolution signal V for the bin it sends, and its decode
    # of the fresh message after subtracting V. A block depends on earlier
    # ones only through the bin it sends, so every block first runs as if
    # the relay's previous decode were right; then the blocks whose bin
    # changed run again until none does. Block 1 always sends bin 1, so each
    # pass fixes at least one more block. The first pass sends s_true, whose
    # signal is X2.
    s_relay = s_true
    V = X2.copy()
    w_relay = np.zeros(B + 1, dtype=np.int64)
    rows = np.arange(B + 1)
    while rows.size:
        y = lam1.mod_many(alpha_relay * (YR[rows] - V[rows]) + U1[rows])
        w_relay[rows] = msg_book.index(unique_decode(y, lam1, lam_c1))
        implied = sent_bins(w_relay)
        rows = np.flatnonzero(implied != s_relay)
        s_relay = implied
        if rows.size:
            V[rows] = lam2.mod_many(res_points[s_relay[rows] - 1] - U2[rows])
    relay_ok = (w_relay == w_true) & (s_relay == s_true)

    # Destination: decode the bin, subtract its signal, list decode.
    Y2 = X1 + X2 + rho * V + ZR + Z2p
    y_bin = lam2k.mod_many(beta * Y2 + kappa * U2)
    s_hat = res_book.index(unique_decode(y_bin, lam2k, lam_c2k) / kappa)
    bin_ok = s_hat == s_true
    X2_hat = kappa * lam2.mod_many(res_points[np.maximum(s_hat, 1) - 1] - U2)
    y_list = lam1.mod_many(alpha_list * (Y2 - X2_hat) + U1)
    members = np.array([list_dec.decode(y).indices for y in y_list])
    size = members.shape[1]

    # Block b+1 resolves block b (rows :B) with the bin it decoded.
    intersect_size, resolved_ok = resolve(members[:B], bins_of(members[:B]),
                                          s_hat[1:], w_true[:B])

    transcript: list[BlockRecord] = []
    if keep_transcript:
        transcript = [
            BlockRecord(b=b + 1, w=w, s=s, relay_ok=r_ok, bin_ok=b_ok,
                        list_size=size, intersect_size=k, resolved_ok=ok)
            for b, w, s, r_ok, b_ok, k, ok in zip(
                range(B), w_true[:B].tolist(), s_true[1:].tolist(),
                relay_ok[:B].tolist(), bin_ok[1:].tolist(),
                intersect_size.tolist(), resolved_ok.tolist())]
    return DfRunResult(
        messages=B, message_errors=B - int(np.count_nonzero(resolved_ok)),
        relay_errors=B + 1 - int(np.count_nonzero(relay_ok)),
        bin_errors=B + 1 - int(np.count_nonzero(bin_ok)),
        transcript=transcript)


def df_capacity(P: float, PR: float, NR: float, N: float
                ) -> tuple[float, float]:
    """Decode-and-forward capacity of the degraded relay channel,
    max over alpha of min(C(alpha P/NR), C((P + PR + 2 sqrt((1-alpha) P PR))
    / (N + NR))) (Cover and El Gamal, IEEE Trans. IT 1979), in closed form.

    Returns (rate in bits/use, maximizing power split alpha).
    """
    if min(P, NR, N) <= 0 or PR < 0:
        raise ValueError("parameters must be positive (PR may be 0)")
    return best_power_split(P, PR, NR, N + NR)
