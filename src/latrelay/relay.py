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
from typing import Optional

import numpy as np

from .chain import LatticeChain, build_chain, size_list_lattice
from .channel import trial_rng, unique_decode, NestedListDecoder
from .errors import ConfigInvalid
from .lattice import TOL, enumerate_codebook, second_moment
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
        if min(self.P, self.PR, self.NR, self.N) <= 0:
            raise ValueError("powers and noise variances must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("power split alpha must lie strictly in (0, 1)")
        if self.B < 2:
            raise ValueError("need at least 2 blocks")

    @property
    def abar(self) -> float:
        return 1.0 - self.alpha

    @property
    def kappa(self) -> float:
        return 1.0 + math.sqrt(self.PR / (self.abar * self.P))


@dataclass(frozen=True)
class BinningMap:
    """Uniform i.i.d. assignment of message indices to bins, shared by all
    nodes through the seed."""
    num_messages: int
    num_bins: int
    seed: int
    table: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(0xB1A5,)))
        table = rng.integers(1, self.num_bins + 1, size=self.num_messages)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def bin_of(self, w: int) -> int:
        return int(self.table[w - 1])


@dataclass
class DfCodebooks:
    """Lattice chains and message maps for one parameter set."""
    message_chain: LatticeChain      # (Lambda_1, Lambda_s1, Lambda_c1)
    resolution_chain: LatticeChain   # (Lambda_2, Lambda_c2)
    rate_achieved: float
    bin_rate_achieved: float
    power1: float                    # second moment of Lambda_1
    power2: float                    # second moment of Lambda_2
    message_entries: list
    resolution_entries: list

    @property
    def num_messages(self) -> int:
        return len(self.message_entries)

    @property
    def num_bins(self) -> int:
        return len(self.resolution_entries)


def _shaping_gamma(p: int, target_power: float) -> float:
    # rank-0 lattice: cubic cell of side gamma*p, second moment (gamma p)^2/12
    return math.sqrt(12.0 * target_power) / p


def _rank_for_rate(p: int, n: int, rate: float) -> int:
    return max(1, round(rate * n / math.log2(p)))


def _lookup(entries, gamma: float) -> dict:
    return {tuple(np.round(e.t / gamma).astype(int).tolist()): e.w
            for e in entries}


def build_df_codebooks(params: DegradedRelayParams, p: int, n: int,
                       seed: int = 0, power_check_samples: int = 0
                       ) -> DfCodebooks:
    """Build the two nested codebooks with shaping powers alpha*P, abar*P.

    The list lattice is sized for the destination's effective channel
    (signal alpha*P, noise N + NR). Shaping lattices use rank 0, whose
    cubic cell hits the power targets exactly; an optional Monte Carlo
    check confirms the 5% tolerance.
    """
    gamma1 = _shaping_gamma(p, params.alpha * params.P)
    dk1 = _rank_for_rate(p, n, params.R)
    base1 = build_chain(p, n, [0, dk1], gamma=gamma1, seed=seed)
    ls1 = size_list_lattice(base1[0], base1[1],
                            P=params.alpha * params.P, N=params.N + params.NR)
    chain1 = build_chain(p, n, [0, ls1.k, dk1], gamma=gamma1, rows=base1.rows)

    gamma2 = _shaping_gamma(p, params.abar * params.P)
    dk2 = _rank_for_rate(p, n, params.RR)
    chain2 = build_chain(p, n, [0, dk2], gamma=gamma2, seed=seed + 1)

    for lat, target in ((chain1[0], params.alpha * params.P),
                        (chain2[0], params.abar * params.P)):
        achieved = lat.second_moment_exact()
        if power_check_samples:
            achieved = second_moment(lat, power_check_samples, seed)
        if abs(achieved - target) > 0.05 * target:
            raise ConfigInvalid(
                f"shaping power {achieved:g} misses target {target:g} by >5%")

    return DfCodebooks(
        message_chain=chain1,
        resolution_chain=chain2,
        rate_achieved=chain1.rate(0, 2),
        bin_rate_achieved=chain2.rate(0, 1),
        power1=chain1[0].second_moment_exact(),
        power2=chain2[0].second_moment_exact(),
        message_entries=enumerate_codebook(chain1[0], chain1[2]),
        resolution_entries=enumerate_codebook(chain2[0], chain2[1]),
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

    @property
    def error_rate(self) -> float:
        return self.message_errors / self.messages

    def ci95(self) -> float:
        pe = self.error_rate
        return 1.96 * math.sqrt(max(pe * (1 - pe), 1e-300) / self.messages)


def df_round_trip(codebooks: DfCodebooks, params: DegradedRelayParams,
                  seed: int, keep_transcript: bool = True) -> DfRunResult:
    """Simulate B message blocks (plus one flush block).

    Messages w_1..w_B are drawn uniformly; w_{B+1} = 1 flushes the last
    resolution index. Empty or ambiguous bin/list intersections count as
    block errors, never aborts.
    """
    ch1, ch2 = codebooks.message_chain, codebooks.resolution_chain
    lam1, lam_s1, lam_c1 = ch1[0], ch1[1], ch1[2]
    lam2, lam_c2 = ch2[0], ch2[1]
    kappa = params.kappa
    lam2k, lam_c2k = lam2.scaled(kappa), lam_c2.scaled(kappa)
    rho = math.sqrt(params.PR / (params.abar * params.P))

    binning = BinningMap(codebooks.num_messages, codebooks.num_bins, seed)
    list_dec = NestedListDecoder(lam1, lam_s1, lam_c1)
    msg_of_point = _lookup(codebooks.message_entries, lam1.gamma)
    res_of_point = _lookup(codebooks.resolution_entries, lam2.gamma)

    aP, abP = params.alpha * params.P, params.abar * params.P
    n_dest = params.N + params.NR
    alpha_relay = aP / (aP + params.NR)
    p_prime = kappa * kappa * abP
    beta = p_prime / (p_prime + aP + n_dest)
    alpha_list = aP / (aP + n_dest)

    rng_msg = trial_rng(seed, 0)
    w_true = [int(rng_msg.integers(1, codebooks.num_messages + 1))
              for _ in range(params.B)] + [1]

    relay_w_hat: Optional[int] = None   # relay's decode of previous block
    # block b-1's (index, message, list members, relay_ok, list size)
    pending: Optional[tuple] = None
    transcript: list[BlockRecord] = []
    msg_errors = relay_errors = bin_errors = 0

    for b in range(1, params.B + 2):
        rng = trial_rng(seed, b)
        w_b = w_true[b - 1]
        s_b = binning.bin_of(w_true[b - 2]) if b > 1 else 1
        s_relay = binning.bin_of(relay_w_hat) if b > 1 and relay_w_hat else 1

        U1 = lam1.sample_voronoi(rng)
        U2 = lam2.sample_voronoi(rng)
        t1 = codebooks.message_entries[w_b - 1].t
        t2 = codebooks.resolution_entries[s_b - 1].t
        X1 = lam1.mod(t1 - U1)
        X2 = lam2.mod(t2 - U2)
        t2_relay = codebooks.resolution_entries[s_relay - 1].t
        XR = rho * lam2.mod(t2_relay - U2)
        ZR = rng.normal(0.0, math.sqrt(params.NR), size=lam1.n)
        Z2p = rng.normal(0.0, math.sqrt(params.N), size=lam1.n)

        # Relay: subtract its own resolution signal, decode the fresh message.
        YR = X1 + X2 + ZR
        y = YR - lam2.mod(t2_relay - U2)
        t1_hat_r = unique_decode(lam1.mod(alpha_relay * y + U1), lam1, lam_c1)
        w_hat_relay = msg_of_point.get(
            tuple(np.round(t1_hat_r / lam1.gamma).astype(int).tolist()))
        relay_ok = (w_hat_relay == w_b) and (s_relay == s_b)
        relay_errors += not relay_ok
        relay_w_hat = w_hat_relay

        # Destination.
        Y2 = X1 + X2 + XR + ZR + Z2p
        y_bin = lam2k.mod(beta * Y2 + kappa * U2)
        t2k_hat = unique_decode(y_bin, lam2k, lam_c2k)
        s_hat = res_of_point.get(
            tuple(np.round(t2k_hat / (kappa * lam2.gamma)).astype(int).tolist()))
        bin_ok = s_hat == s_b
        bin_errors += not bin_ok

        t2_hat = codebooks.resolution_entries[(s_hat or 1) - 1].t
        X2_hat = kappa * lam2.mod(t2_hat - U2)
        y_list = lam1.mod(alpha_list * (Y2 - X2_hat) + U1)
        lres = list_dec.decode(y_list, truth=t1)
        members = {w for w in
                   (msg_of_point.get(tuple(np.round(pt / lam1.gamma)
                                           .astype(int).tolist()))
                    for pt in lres.points) if w is not None}

        # Resolve the previous block's message against the fresh bin index.
        resolved_ok = True
        intersect_size = 0
        if pending is not None:
            b_prev, w_prev, prev_members, prev_relay_ok, prev_size = pending
            if s_hat is None:
                cands = set()
            else:
                cands = {w for w in prev_members if binning.bin_of(w) == s_hat}
            intersect_size = len(cands)
            resolved_ok = (len(cands) == 1 and next(iter(cands)) == w_prev)
            msg_errors += not resolved_ok
            if keep_transcript:
                transcript.append(BlockRecord(
                    b=b_prev, w=w_prev, s=binning.bin_of(w_prev),
                    relay_ok=prev_relay_ok, bin_ok=bin_ok, list_size=prev_size,
                    intersect_size=intersect_size, resolved_ok=resolved_ok))
        pending = (b, w_b, members, relay_ok, lres.size)

    return DfRunResult(messages=params.B, message_errors=msg_errors,
                       relay_errors=relay_errors, bin_errors=bin_errors,
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
