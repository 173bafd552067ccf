"""Dithered nested-lattice transmission over AWGN and the list decoder.

The decoder outputs the fixed-size set of fine-lattice points falling in
the intermediate lattice's cell around the MMSE-scaled observation,
reduced mod the coarse lattice. It walks the V_s/V_c cosets of the
intermediate lattice inside the fine lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotACodeword, NotNested
from .lattice import (
    TOL,
    ConstructionALattice,
    enumerate_codebook,
    is_sublattice,
)


# Trials per batch of simulate_p2p; each batch has its own random stream.
CHUNK = 256


@dataclass(frozen=True)
class AwgnParams:
    """Per-dimension transmit power and noise variance."""
    P: float
    N: float

    def __post_init__(self):
        if not (math.isfinite(self.P) and math.isfinite(self.N)):
            raise ValueError(f"P and N must be finite, got P={self.P!r}, "
                             f"N={self.N!r}")
        if self.P <= 0 or self.N <= 0:
            raise ValueError("P and N must be positive")

    @property
    def alpha(self) -> float:
        """MMSE scaling P/(P+N)."""
        return self.P / (self.P + self.N)


@dataclass
class ListDecodeResult:
    points: np.ndarray          # (size, n), each reduced mod the coarse lattice
    size: int
    contains_truth: Optional[bool] = None


def ci95(pe: float, count: int) -> float:
    """Half-width of the 95 % Wald interval of an error rate ``pe``
    measured over ``count`` trials."""
    return 1.96 * math.sqrt(max(pe * (1 - pe), 1e-300) / count)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream derived from (seed, index): one per trial, block
    or batch of trials."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


def block_draws(seed: int, blocks: int, dither_lattices, noise_vars
                ) -> list[np.ndarray]:
    """Per-block draws of the block-Markov simulators.

    Block b = 1..``blocks`` draws one dither from each lattice's Voronoi
    cell (``sample_voronoi``), then one Gaussian noise vector per variance,
    in that order, from ``trial_rng(seed, b)``. Returns one (blocks, n)
    array per draw, dithers first; row b-1 holds block b.
    """
    n = dither_lattices[0].n
    out = [np.empty((blocks, n))
           for _ in range(len(dither_lattices) + len(noise_vars))]
    dithers, noises = out[:len(dither_lattices)], out[len(dither_lattices):]
    for i in range(blocks):
        rng = trial_rng(seed, i + 1)
        for arr, lat in zip(dithers, dither_lattices):
            arr[i] = lat.sample_voronoi(rng)
        for arr, var in zip(noises, noise_vars):
            arr[i] = rng.normal(0.0, math.sqrt(var), size=n)
    return out


def draw_messages(seed: int, blocks: int, sizes) -> list[np.ndarray]:
    """Messages of the block-Markov simulators, from ``trial_rng(seed, 0)``.

    For each codebook size in turn, one ``integers`` call draws ``blocks``
    indices uniformly from 1..size (the same numbers as ``blocks`` scalar
    draws), and the flush message 1 is appended. Returns one (blocks + 1,)
    array per size; entry b-1 is block b's message.
    """
    rng = trial_rng(seed, 0)
    return [np.append(rng.integers(1, size + 1, size=blocks), 1)
            for size in sizes]


def resolve(member_idx: np.ndarray, member_bins: np.ndarray,
            bin_hat: np.ndarray, truth_idx: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """List-and-bin resolution of block-Markov decoding (Cover and El Gamal,
    IEEE Trans. IT 1979), for a batch of blocks.

    Row b of ``member_idx`` (m, size) holds the message indices of block
    b's list, 0 for a point in no codebook, which never matches; row b of
    ``member_bins`` holds their bins, and ``bin_hat[b]`` is the bin decoded
    one block later. Returns, per block, the number of members in that bin
    and whether exactly one member is there and it is ``truth_idx[b]``.
    """
    cands = (member_idx > 0) & (member_bins == bin_hat[:, None])
    intersect_size = cands.sum(axis=1)
    first = member_idx[np.arange(len(member_idx)), cands.argmax(axis=1)]
    return intersect_size, (intersect_size == 1) & (first == truth_idx)


# The maps below, and unique_decode, take a batch of rows (m, n).

def encode_dithered(t: np.ndarray, U: np.ndarray,
                    coarse: ConstructionALattice) -> np.ndarray:
    """X = (t - U) mod Lambda. Requires t to lie in the coarse cell."""
    t = np.asarray(t, dtype=float)
    if not np.allclose(coarse.nearest_many(t), 0.0, atol=TOL):
        raise NotACodeword("t does not lie in the coarse fundamental region")
    return coarse.mod_many(t - U)


def receiver_front_end(Y: np.ndarray, U: np.ndarray, P: float, N: float,
                       coarse: ConstructionALattice) -> np.ndarray:
    """Y' = (alpha Y + U) mod Lambda with the MMSE coefficient."""
    alpha = P / (P + N)
    return coarse.mod_many(alpha * np.asarray(Y, dtype=float) + U)


def effective_noise(X: np.ndarray, Z: np.ndarray, P: float, N: float,
                    coarse: ConstructionALattice) -> np.ndarray:
    """Z' = (-(1-alpha) X + alpha Z) mod Lambda."""
    alpha = P / (P + N)
    return coarse.mod_many(-(1.0 - alpha) * X + alpha * Z)


def _rows_in_lists(T: np.ndarray, lists: np.ndarray) -> np.ndarray:
    """Whether each row of T (m, n) is a point of its list (m, size, n)."""
    return np.any(np.all(np.abs(lists - T[:, None, :]) <= 1e-6, axis=2),
                  axis=1)


class NestedListDecoder:
    """List decoder for a chain Lambda subseteq Lambda_s subseteq Lambda_c.

    Precomputes the coset representatives of Lambda_s inside Lambda_c, so a
    decode costs |L| = V_s/V_c nearest-point operations.
    """

    def __init__(self, coarse: ConstructionALattice, mid: ConstructionALattice,
                 fine: ConstructionALattice):
        if not (is_sublattice(coarse, mid) and is_sublattice(mid, fine)):
            raise NotNested("chain nesting invalid")
        self.coarse = coarse
        self.mid = mid
        self.fine = fine
        self.reps = enumerate_codebook(mid, fine)
        self.list_size = int(round(mid.volume / fine.volume))

    def decode_many(self, Y_prime: np.ndarray) -> np.ndarray:
        """Lists for a batch of observations (m, n), as an (m, size, n)
        array: row i holds the fine points in (Y_prime[i] + V_s), reduced
        mod the coarse lattice."""
        shifts = np.asarray(Y_prime, dtype=float)[:, None, :] - self.reps
        n = shifts.shape[2]
        anchors = self.reps + self.mid.nearest_many(
            shifts.reshape(-1, n)).reshape(shifts.shape)
        return self.coarse.mod_many(anchors.reshape(-1, n)).reshape(shifts.shape)

    def decode(self, y_prime: np.ndarray,
               truth: Optional[np.ndarray] = None) -> ListDecodeResult:
        """All fine points in (y_prime + V_s), reduced mod the coarse lattice."""
        members = self.decode_many(np.asarray(y_prime, dtype=float)[None, :])
        contains = bool(_rows_in_lists(np.asarray(truth, dtype=float)[None, :],
                                       members)[0]) \
            if truth is not None else None
        return ListDecodeResult(points=members[0], size=members.shape[1],
                                contains_truth=contains)


def unique_decode(y_prime: np.ndarray, coarse: ConstructionALattice,
                  fine: ConstructionALattice) -> np.ndarray:
    """Classic nested-lattice point decoder: Q_c(Y') mod Lambda, of each
    row of a batch (m, n)."""
    return coarse.mod_many(fine.nearest_many(y_prime))


@dataclass
class P2PStats:
    """Monte Carlo summary for the point-to-point list-decoding harness."""
    trials: int
    pe_hat: float
    pe_ci95: float
    list_size: int
    mean_list_size: float
    n: int
    p: int
    ranks: tuple[int, ...]
    P: float
    N: float
    seed: int
    log: list = field(default_factory=list, repr=False)

    CSV_COLUMNS = ("trials", "pe_hat", "pe_ci95", "list_size", "n", "p",
                   "ranks", "P", "N", "seed")

    def csv_row(self) -> str:
        ranks = "|".join(str(k) for k in self.ranks)
        return (f"{self.trials},{self.pe_hat!r},{self.pe_ci95!r},"
                f"{self.list_size},{self.n},{self.p},{ranks},"
                f"{self.P!r},{self.N!r},{self.seed}")


def simulate_p2p(chain, awgn: AwgnParams, trials: int, seed: int,
                 keep_log: bool = False) -> P2PStats:
    """Dithered transmission + list decoding over AWGN, Monte Carlo.

    ``chain`` is a 3-lattice LatticeChain (coarse, list, fine); its list
    decoder and codebook are built on first use and kept. Trials run
    in batches of CHUNK, each step one kernel call over the batch. Batch b
    draws CHUNK messages, dithers and noise, in that order, from
    ``trial_rng(seed, b)`` and uses as many as it has trials, so trial i
    sees the same draws whatever the trial count. The dither is the coarse
    reduction of a uniform draw from the cube [-gamma p/2, gamma p/2)^n,
    exactly uniform on the coarse cell because gamma p Z^n is a sublattice.
    Per trial the membership event (t not in L) is cross-checked against
    the direct effective-noise event (Z' not in V_s); a mismatch is a bug
    and raises.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    coarse, mid, fine = chain[0], chain[1], chain[2]
    decoder, codebook = chain.list_decoder, chain.codebook
    n = coarse.n
    half = coarse.gamma * coarse.p / 2.0
    errors = 0
    size_total = 0
    log = []
    for batch, first in enumerate(range(0, trials, CHUNK)):
        m = min(CHUNK, trials - first)
        rng = trial_rng(seed, batch)
        # Full-batch draws, so a short last batch sees the same prefix.
        w = rng.integers(0, len(codebook), size=CHUNK)[:m]
        U = coarse.mod_many(rng.uniform(-half, half, size=(CHUNK, n))[:m])
        Z = rng.normal(0.0, math.sqrt(awgn.N), size=(CHUNK, n))[:m]
        t = codebook[w]
        X = encode_dithered(t, U, coarse)
        y_prime = receiver_front_end(X + Z, U, awgn.P, awgn.N, coarse)
        lists = decoder.decode_many(y_prime)
        z_eff = effective_noise(X, Z, awgn.P, awgn.N, coarse)
        z_outside = np.any(np.abs(mid.nearest_many(z_eff)) > TOL, axis=1)
        miss = ~_rows_in_lists(t, lists)
        if np.any(miss != z_outside):
            raise AssertionError(
                "error-event identity violated: (t not in L) != (Z' not in V_s)")
        errors += int(np.count_nonzero(miss))
        size_total += m * lists.shape[1]
        if keep_log:
            log.extend(zip(range(first, first + m), (w + 1).tolist(),
                           [lists.shape[1]] * m, miss.astype(int).tolist()))
    pe = errors / trials
    return P2PStats(trials=trials, pe_hat=pe, pe_ci95=ci95(pe, trials),
                    list_size=decoder.list_size,
                    mean_list_size=size_total / trials,
                    n=coarse.n, p=coarse.p,
                    ranks=(coarse.k, mid.k, fine.k),
                    P=awgn.P, N=awgn.N, seed=seed, log=log)
