"""Dithered nested-lattice transmission over AWGN and the list decoder.

The decoder outputs the fixed-size set of fine-lattice points falling in
the intermediate lattice's cell around the MMSE-scaled observation,
reduced mod the coarse lattice: one point in each of the V_s/V_c cosets
of the intermediate lattice inside the fine lattice, found by one coset
scan of the fine code grouped by those cosets, and named by the message
indices of their codewords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NotACodeword, NotNested
from .lattice import (
    Codebook,
    ConstructionALattice,
    _coset_scan,
    _ScanTable,
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
    """One observation's list, as the message indices of its members."""
    indices: np.ndarray                         # (size,)
    codebook: np.ndarray = field(repr=False)    # the decoder's; row w-1 is w
    contains_truth: Optional[bool] = None

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def points(self) -> np.ndarray:
        """(size, n) members, each reduced mod the coarse lattice: their
        codebook rows, gathered when read."""
        return self.codebook[self.indices - 1]


def ci95(pe: float, count: int) -> float:
    """Half-width of the 95 % Wald interval of an error rate ``pe``
    measured over ``count`` trials."""
    return 1.96 * math.sqrt(max(pe * (1 - pe), 1e-300) / count)


def trial_rng(seed: int, key: int) -> np.random.Generator:
    """Independent stream derived from (seed, key):
    ``SeedSequence(entropy=seed, spawn_key=(key,))``. ``simulate_p2p`` keys
    it by batch of trials, every other seeded draw by ``STREAM_KEYS``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(key,)))


# Spawn keys of every seeded stream but simulate_p2p's batches, all
# distinct. The block-Markov draws are one stream per kind, by position:
# DF draws w; U1, U2; ZR, Z2'. TWRC draws w1, w2; U1, U2; ZR, Z1, Z2.
# The bins of DF messages and the gap draws take the run seed, the TWRC
# relay codebook and its bin table the codebook seed. The one other
# stream is chain._greedy_search's, seeded by the chain seed alone.
STREAM_KEYS = {
    "messages": (0xB10C1, 0xB10C2),
    "dithers": (0xB10C3, 0xB10C4),
    "noises": (0xB10C5, 0xB10C6, 0xB10C7),
    "bins": 0xB1A5,
    "relay_codebook": 0xC0DE,
    "gaps": 0x6A9,
}


def block_draws(seed: int, blocks: int, sizes, dither_lattices, noise_vars
                ) -> tuple[list, list, list]:
    """All random draws of a block-Markov run: ``blocks`` message blocks
    and the flush block.

    Each kind of draw has its own stream, ``trial_rng(seed, key)`` with
    its key from ``STREAM_KEYS``, and is drawn for the whole run at once,
    row b-1 for block b. So block b's draws do not depend on ``blocks``:
    a shorter run's draws are the first rows of a longer run's.

    - Messages, per codebook size: one ``integers`` call of ``blocks``
      indices uniform on 1..size (the same numbers as that many scalar
      draws), then the flush message 1; shape (blocks + 1,).
    - Dithers, per lattice: one ``draw_cell`` call of shape
      (blocks + 1, n), a uniform draw on the cube [-h, h)^n, h = gamma p
      / 2, reduced mod the lattice. The cube is a fundamental region of
      gamma p Z^n, a sublattice of every lattice here, so each row is
      exactly uniform on the Voronoi cell (the crypto lemma), cubic or
      not, and no draw is rejected.
    - Noises, per variance: one normal draw of shape (blocks + 1, n).

    Returns (messages, dithers, noises), each a list in the order of
    ``sizes``, ``dither_lattices`` and ``noise_vars``.
    """
    n, rows = dither_lattices[0].n, blocks + 1
    messages = [
        np.append(trial_rng(seed, STREAM_KEYS["messages"][i])
                  .integers(1, size + 1, size=blocks), 1)
        for i, size in enumerate(sizes)]
    dithers = [lat.draw_cell(trial_rng(seed, STREAM_KEYS["dithers"][i]), rows)
               for i, lat in enumerate(dither_lattices)]
    noises = [trial_rng(seed, STREAM_KEYS["noises"][i])
              .normal(0.0, math.sqrt(var), size=(rows, n))
              for i, var in enumerate(noise_vars)]
    return messages, dithers, noises


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
    # Nearest points are gamma times integers: 0 exactly or at least gamma.
    if coarse.nearest_many(t).any():
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


class NestedListDecoder:
    """List decoder for a chain Lambda subseteq Lambda_s subseteq Lambda_c.

    The list of y' is the |L| = V_s/V_c fine points in y' + V_s, one in
    each coset of Lambda_s in Lambda_c: the nearest point to y' of that
    coset. In units of gamma, coset ``reps[g]`` + Lambda_s is the union of
    the cosets cw + pZ^n over the codewords cw of ``reps[g]`` + C_s. So a
    decode is one coset scan of all p^(k_c) fine codewords, grouped by
    list coset, built once here. A list of one is the fine lattice's own
    nearest point, with its rank-n rounding and cached scan.

    The decoder owns ``codebook``, the :class:`~latrelay.lattice.Codebook`
    of (coarse, fine). A decode answers in message indices from its one
    class table: the scan's winning columns, or a list of one's point.
    """

    def __init__(self, coarse: ConstructionALattice, mid: ConstructionALattice,
                 fine: ConstructionALattice):
        if not (is_sublattice(coarse, mid) and is_sublattice(mid, fine)):
            raise NotNested("chain nesting invalid")
        self.coarse = coarse
        self.mid = mid
        self.fine = fine
        self.codebook = Codebook(coarse, fine)
        self.reps = enumerate_codebook(mid, fine)
        self.list_size = len(self.reps)
        if self.list_size > 1:   # one scan, grouped by list coset
            shifts = np.rint(self.reps / fine.gamma).astype(np.int64) % fine.p
            self._scan = _ScanTable(fine.p, mid.rows, shifts)
            # A column's entries, codeword + p j, have its codeword's residues.
            self._scan.classes = self.codebook.classes(self._scan.cols)
            self._scan.classes.setflags(write=False)

    def decode_many(self, Y_prime: np.ndarray) -> np.ndarray:
        """Lists for a batch of observations (m, n), as an (m, size) array
        of message indices: row i holds the classes mod the coarse lattice
        of the fine points in (Y_prime[i] + V_s), member g in ``reps[g]`` +
        Lambda_s. ``codebook.points[idx - 1]`` are their points."""
        Y = np.asarray(Y_prime, dtype=float)
        n = self.fine.n
        if Y.ndim != 2 or Y.shape[1] != n:
            raise DimensionMismatch(
                f"expected rows of length {n}, got shape {Y.shape}")
        return self._lists(Y).reshape(len(Y), self.list_size)

    def _lists(self, Y: np.ndarray) -> np.ndarray:
        """:meth:`decode_many` of a checked float batch (m, n), as one
        flat array of m * size indices."""
        gamma = self.fine.gamma
        if self.list_size > 1:
            return _coset_scan(Y / gamma, self._scan)
        # Lambda_s = Lambda_c: the list is Q_c(y').
        words = np.rint(self.fine.nearest_many(Y) / gamma).astype(np.int64)
        return self.codebook.classes(words)

    def decode(self, y_prime: np.ndarray,
               truth: Optional[np.ndarray] = None) -> ListDecodeResult:
        """The list of one observation (n,): its message indices, whose
        points (reduced mod the coarse lattice) are gathered from the
        codebook only when read. ``truth``, a codebook point, is matched
        by its message index. The same indices as row 0 of
        :meth:`decode_many` of ``y_prime[None]``, without its second
        conversion, check and reshape."""
        y = np.asarray(y_prime, dtype=float)
        if y.shape != (self.fine.n,):
            raise DimensionMismatch(
                f"expected a vector of length {self.fine.n}, got shape "
                f"{y.shape}")
        idx = self._lists(y[None])
        contains = None
        if truth is not None:
            w = self.codebook.index(np.asarray(truth, dtype=float)[None, :])[0]
            contains = bool(w and np.any(idx == w))
        return ListDecodeResult(indices=idx, codebook=self.codebook.points,
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
    decoder, which owns the codebook, is built on first use and kept.
    Trials run in batches of CHUNK, each step one kernel call over the
    batch. Batch b draws CHUNK messages, dithers and noise, in that order,
    from ``trial_rng(seed, b)`` and uses as many as it has trials, so
    trial i sees the same draws whatever the trial count. The dither is
    :meth:`ConstructionALattice.draw_cell`'s cube draw, made on all CHUNK
    rows and reduced on the trials' rows alone. Per trial the membership
    event (message w not among the list's indices) is cross-checked
    against the direct effective-noise event (Z' not in V_s); a mismatch
    is a bug and raises.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    coarse, mid, fine = chain[0], chain[1], chain[2]
    decoder, codebook = chain.list_decoder, chain.codebook.points
    n = coarse.n
    half = coarse.voronoi_box_halfwidth()
    errors = 0
    log = []
    for batch, first in enumerate(range(0, trials, CHUNK)):
        m = min(CHUNK, trials - first)
        rng = trial_rng(seed, batch)
        # Full-batch draws, so a short last batch sees the same prefix; the
        # noise is the last draw, so its m rows are that prefix already.
        w = rng.integers(0, len(codebook), size=CHUNK)[:m]
        U = coarse.mod_many(rng.uniform(-half, half, size=(CHUNK, n))[:m])
        Z = rng.normal(0.0, math.sqrt(awgn.N), size=(m, n))
        t = codebook[w]
        X = encode_dithered(t, U, coarse)
        y_prime = receiver_front_end(X + Z, U, awgn.P, awgn.N, coarse)
        lists = decoder.decode_many(y_prime)
        z_eff = effective_noise(X, Z, awgn.P, awgn.N, coarse)
        z_outside = mid.nearest_many(z_eff).any(axis=1)
        miss = ~np.any(lists == (w + 1)[:, None], axis=1)
        if np.any(miss != z_outside):
            raise AssertionError(
                "error-event identity violated: (t not in L) != (Z' not in V_s)")
        errors += int(np.count_nonzero(miss))
        if keep_log:
            log.extend(zip(range(first, first + m), (w + 1).tolist(),
                           [lists.shape[1]] * m, miss.astype(int).tolist()))
    pe = errors / trials
    return P2PStats(trials=trials, pe_hat=pe, pe_ci95=ci95(pe, trials),
                    list_size=decoder.list_size,
                    n=coarse.n, p=coarse.p,
                    ranks=(coarse.k, mid.k, fine.k),
                    P=awgn.P, N=awgn.N, seed=seed, log=log)
