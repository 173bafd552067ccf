"""Nested lattice chains and list-lattice sizing.

A chain is a family of Construction-A lattices sharing (p, n, gamma) whose
code generators are prefix-nested: the rank-k member uses the first k rows
of a common row matrix, so nesting holds by construction and every
pairwise coding rate is an exact multiple of log2(p)/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf
from .channel import NestedListDecoder
from .errors import EnumerationBudgetExceeded, InvalidRanks
from .lattice import (
    DEFAULT_ENUM_BUDGET,
    Codebook,
    ConstructionALattice,
    is_sublattice,
)

# Most entries of one block of pick_generator_rows' matrix product (kept
# codewords x (coefficient, candidate) columns), and of one of its one-hot
# tables (n p rows x columns).
BLOCK_ELEMENTS = 16_384


def shortest_vector_norm(p: int, rows: np.ndarray) -> tuple[float, int]:
    """Shortest nonzero vector of the unit-scale lattice and its multiplicity.

    The shortest vector either comes from p*Z^n (norm p) or from a nonzero
    codeword's centered lift into (-p/2, p/2]^n.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    n = rows.shape[1]
    cw = gf.all_codewords(rows, p)
    centered = cw - p * np.round(cw / p)
    norms = np.linalg.norm(centered, axis=1)
    norms = norms[norms > 1e-12]
    if norms.size == 0:
        return float(p), 2 * n
    best = float(norms.min())
    mult = int(np.sum(norms <= best + 1e-12))
    if best > p:
        return float(p), 2 * n
    return best, mult


def pick_generator_rows(p: int, n: int, kmax: int, seed: int = 0,
                        candidates: int = 200) -> np.ndarray:
    """Greedy seeded search for prefix-nested rows with good packing.

    Rank by rank, the next row is the sampled candidate (independent of the
    rows so far) that maximizes the shortest-vector norm of the enlarged
    code, breaking ties toward fewer minimal vectors and then toward the
    earlier candidate; the score is :func:`shortest_vector_norm`'s. A
    single fixed draw per seed is used throughout the toolkit.

    Each rank draws its ``candidates`` rows in one call, which gives the
    rows of one call per candidate. The codewords cw of the rows so far
    are kept: a candidate adds the codewords cw + c cand, c = 1..p-1,
    whose least squared norm :func:`_least_norms` finds by one matrix
    product per block of codewords. The shortest norm of the code so far
    and its count are carried from the rank before. Raises ValueError
    when ``candidates`` < 1 and EnumerationBudgetExceeded when
    p^kmax > DEFAULT_ENUM_BUDGET, both before any draw.
    """
    gf.check_prime(p)
    if not 0 <= kmax <= n:
        raise InvalidRanks(f"kmax = {kmax} outside [0, {n}]")
    if candidates < 1:
        raise ValueError("candidates must be >= 1")
    if p ** kmax > DEFAULT_ENUM_BUDGET:
        raise EnumerationBudgetExceeded(
            f"{p ** kmax} codewords exceed budget {DEFAULT_ENUM_BUDGET}")
    return _greedy_search(p, n, kmax, seed, candidates)[0]


def _greedy_search(p: int, n: int, kmax: int, seed: int,
                   candidates: int) -> tuple[np.ndarray, int, int]:
    """:func:`pick_generator_rows`' rows, with the squared shortest norm of
    their code's nonzero codewords and its count, unclipped (above any
    norm and 0 when kmax = 0)."""
    rng = np.random.default_rng(seed)
    residues = np.arange(p)
    lift_sq = np.minimum(residues, p - residues) ** 2   # centered lift
    # lift[a, s] = lift_sq[(a + s) % p], the squared lift of a + s.
    lift = lift_sq[(residues[:, None] + residues) % p].astype(float)
    # cw + c cand is minus (-cw) + (p - c) cand, of the same norm, so for
    # odd p the coefficients up to (p - 1) / 2 see every norm twice.
    coeffs = np.arange(1, p // 2 + 1)
    weight = 1 if p == 2 else 2
    big = p ** kmax + 2 * n + 1              # above any multiplicity
    rows = np.zeros((0, n), dtype=np.int64)
    # Codewords of rows, 0 first, in the least type that holds the sum
    # 2 (p - 1) of two residues.
    cw = np.zeros((1, n), dtype=np.min_scalar_type(2 * (p - 1)))
    # At rank 0 there is no nonzero codeword: a minimum above any norm.
    old_min, old_mult = n * p * p + 1, 0
    for rank in range(kmax):
        cands = rng.integers(0, p, size=(candidates, n), dtype=np.int64)
        low, count = _least_norms(lift, cw, (coeffs[:, None, None] * cands)
                                  .reshape(-1, n) % p)
        low = low.reshape(len(coeffs), candidates)
        count = count.reshape(len(coeffs), candidates)
        new_min = low.min(axis=0)
        new_mult = weight * np.where(low == new_min, count, 0).sum(axis=0)
        short = np.minimum(new_min, old_min)
        mult = (np.where(new_min == short, new_mult, 0)
                + np.where(old_min == short, old_mult, 0))
        # Beyond norm p, the shortest vectors are the 2n of p Z^n. A
        # candidate in the span of the rows adds the zero vector
        # (cw = -cand): its short is 0 and its key -mult < 0.
        key = (np.minimum(short, p * p) * big
               - np.where(short > p * p, 2 * n, mult))
        i = int(key.argmax())
        if key[i] < 0:
            raise InvalidRanks("could not extend rows to requested rank")
        rows = np.vstack([rows, cands[i][None, :]])
        old_min, old_mult = int(short[i]), int(mult[i])
        if rank + 1 < kmax:   # cw + c cand for c = 0..p-1, in that order
            shifts = (np.arange(p)[:, None] * cands[i] % p).astype(cw.dtype)
            cw = (cw + shifts[:, None, :]).reshape(-1, n)
            cw %= p
    return rows, old_min, old_mult


def _least_norms(lift: np.ndarray, cw: np.ndarray,
                 shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squared norm of the centered lift of cw + s over the rows cw
    of ``cw``, and the number of rows that reach it, for each row s of
    ``shifts`` (residues mod p); ``lift`` is the (p, p) table of squared
    lifts of a + s.

    The squared norms are the matrix product of the left table
    lift[cw].reshape(-1, n p), whose entry j p + s is the squared lift of
    cw_j + s, with a one-hot table whose column for shift s is 1 at the
    rows j p + s_j; the entries are small integers, exact in float64.
    Each one-hot table takes at most BLOCK_ELEMENTS // (n p) shifts and
    each block of the product at most BLOCK_ELEMENTS entries (at least
    one row and one column each); a running minimum and count per column
    carry across the blocks.
    """
    p, n = len(lift), cw.shape[1]
    low = np.empty(len(shifts), dtype=np.int64)
    count = np.empty(len(shifts), dtype=np.int64)
    width = max(1, BLOCK_ELEMENTS // (n * p))
    for at in range(0, len(shifts), width):
        cols = shifts[at:at + width] + p * np.arange(n)
        hot = np.zeros((n * p, len(cols)))
        hot[cols, np.arange(len(cols))[:, None]] = 1.0
        step = max(1, BLOCK_ELEMENTS // len(cols))
        least = np.full(len(cols), np.inf)
        seen = np.zeros(len(cols), dtype=np.int64)
        for lo in range(0, len(cw), step):
            sq = lift[cw[lo:lo + step]].reshape(-1, n * p) @ hot
            block_low = sq.min(axis=0)
            block_count = np.count_nonzero(sq == block_low, axis=0)
            seen = np.where(block_low < least, block_count, np.where(
                block_low == least, seen + block_count, seen))
            least = np.minimum(least, block_low)
        low[at:at + width], count[at:at + width] = least, seen
    return low, count


@dataclass(frozen=True, eq=False)
class LatticeChain:
    """Ordered nested lattices Lambda_1 subseteq ... subseteq Lambda_K.

    A chain of three or more lattices builds its list decoder, which owns
    the codebook, once, on first use, and keeps it. Chains compare by
    identity.
    """

    p: int
    n: int
    gamma: float
    ranks: tuple[int, ...]
    rows: np.ndarray
    lattices: tuple[ConstructionALattice, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i: int) -> ConstructionALattice:
        return self.lattices[i]

    @cached_property
    def list_decoder(self) -> NestedListDecoder:
        """List decoder of (Lambda_1, Lambda_2, Lambda_3): coarse, list
        and fine lattice."""
        return NestedListDecoder(self[0], self[1], self[2])

    @property
    def codebook(self) -> Codebook:
        """Codebook of (Lambda_1, Lambda_3): the list decoder's."""
        return self.list_decoder.codebook

    def rate(self, i: int, j: int) -> float:
        """Coding rate of the (Lambda_i, Lambda_j) pair in bits/dimension."""
        if not 0 <= i <= j < len(self.ranks):
            raise InvalidRanks(f"bad pair ({i}, {j})")
        return (self.ranks[j] - self.ranks[i]) * math.log2(self.p) / self.n

    def to_record(self) -> str:
        ranks = ",".join(str(k) for k in self.ranks)
        rows = ";".join(",".join(str(int(v)) for v in r) for r in self.rows)
        rows_part = f" rows={rows}" if self.rows.size else ""
        return (f"p={self.p} n={self.n} ranks={ranks}{rows_part} "
                f"gamma={self.gamma!r}")


def build_chain(p: int, n: int, ranks, gamma: float = 1.0,
                rows: np.ndarray = None, seed: int = 0) -> LatticeChain:
    """Build a prefix-nested chain with the given per-lattice code ranks.

    V_i = gamma^n p^(n - k_i) exactly; the achievable pairwise rates are
    quantized to multiples of log2(p)/n. If ``rows`` is omitted a seeded
    greedy search picks them.
    """
    gf.check_prime(p)
    if n < 1:
        raise InvalidRanks(f"dimension n must be >= 1, got {n}")
    ranks = tuple(int(k) for k in ranks)
    if any(not 0 <= k <= n for k in ranks) or list(ranks) != sorted(ranks):
        raise InvalidRanks(f"ranks must be nondecreasing in [0, {n}]: {ranks}")
    kmax = max(ranks) if ranks else 0
    if rows is None:
        rows = pick_generator_rows(p, n, kmax, seed=seed)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % p
    if rows.size == 0:
        rows = np.zeros((0, n), dtype=np.int64)
    if rows.shape[0] < kmax:
        raise InvalidRanks(f"need at least {kmax} rows, got {rows.shape[0]}")
    master = ConstructionALattice(p, rows, gamma=gamma, n=n)
    lattices = tuple(master.with_rank(k) for k in ranks)
    for a, b in zip(lattices, lattices[1:]):
        assert is_sublattice(a, b)
    try:    # the coarsest volume is the largest; gamma^n raises on overflow
        if lattices and math.isinf(lattices[0].volume):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"lattice volumes overflow at gamma = {gamma!r}")
    return LatticeChain(p=p, n=n, gamma=float(gamma), ranks=ranks,
                        rows=master.rows, lattices=lattices)


def rank_for_rate(p: int, n: int, rate: float) -> int:
    """Rank step whose rate (log2(p)/n per rank) is nearest ``rate``,
    capped at n + 1, one more than any chain of dimension n holds."""
    return round(min(rate * n / math.log2(p), n + 1))


def size_list_lattice(coarse: ConstructionALattice, fine: ConstructionALattice,
                      P: float, N: float) -> ConstructionALattice:
    """Intermediate list-decoding lattice for the nested pair (coarse, fine).

    Picks the largest rank k_s (smallest volume V_s) with
    V_s >= (N/(P+N))^(n/2) * V, clamped so that
    Lambda subseteq Lambda_s subseteq Lambda_c. Expected list size V_s/Vc.
    The bound is at most V, so the coarse rank always qualifies. The test
    is on V_s / V = p^(k - k_s), k the coarse rank, where gamma^n cancels:
    it holds where gamma^n underflows or overflows too.
    """
    if not (math.isfinite(P) and math.isfinite(N) and P > 0 and N > 0):
        raise ValueError(
            f"P and N must be finite and positive, got P={P!r}, N={N!r}")
    if not (is_sublattice(coarse, fine)
            and np.array_equal(coarse.rows, fine.rows[:coarse.k])):
        raise InvalidRanks("pair rows must be prefix-nested")
    target = (N / (P + N)) ** (coarse.n / 2.0)   # of V_s / V
    k_s = next((k for k in range(fine.k, coarse.k, -1)
                if float(coarse.p) ** (coarse.k - k)
                >= target - 1e-12 * target), coarse.k)
    return fine.with_rank(k_s)
