"""Exact small-dimension lattice arithmetic.

Every lattice here is realized by Construction A over a prime field: its
points are ``gamma * {x in Z^n : x mod p is a codeword}`` for a linear code
with generator ``rows`` over GF(p). All quantization and enumeration is
exact at the dimensions used here (n <= 8 or so); there is no approximate
CVP.

Nested pairs share (p, gamma): both lattices contain gamma p Z^n, so
Lambda_1 is inside Lambda_2 exactly when code C_1 is a subcode of C_2
(Conway and Sloane, *Sphere Packings, Lattices and Groups*, ch. 5).
:func:`is_sublattice` rejects a pair of different p or gamma with NotNested.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import gf
from .errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    NotNested,
    RejectionBudgetExceeded,
)

# Absolute tolerance for exact lattice identities in double precision.
TOL = 1e-9

# Cap on the number of candidate points any exact enumeration may touch.
DEFAULT_ENUM_BUDGET = 2_000_000

# Entries of the (rows x cosets) distance table one step of the coset scan
# holds, so a step takes SCAN_ELEMENTS // p^k rows (at least one); keeps
# the batched kernel's working set small whatever the batch size.
SCAN_ELEMENTS = 16_384

# Box draws the rejection sampler makes for one sample before it gives up.
REJECTION_ATTEMPTS = 200_000


def _round_ties_down(y: np.ndarray) -> np.ndarray:
    """Nearest integer, exact halves toward -inf (lexicographic tie rule)."""
    return np.ceil(y - 0.5)


def _coset_scan(Y: np.ndarray, cols: np.ndarray, onehot: np.ndarray,
                p: int) -> np.ndarray:
    """Nearest point of the unit-scale Construction-A lattice to each row
    of ``Y`` (m x n), given ``cols = cw + p * arange(n)`` (c x n) for all
    codewords ``cw`` and its one-hot matrix ``onehot`` (n p x c), which is
    1 at ``[cols[c, j], c]``.

    Coordinate j of coset cw + pZ^n rounds to the nearest point of
    cw_j + pZ, which depends only on (y_j, cw_j). So one (m, n, p) table
    holds the rounded lift of every residue and its squared distance.
    Coset c's squared distance, the sum over j of the table's entry
    (j, cw_j), is column c of one matrix product of the flattened table
    with ``onehot``. Among the cosets within 1e-12 of the shortest
    distance the lexicographically smallest point wins.

    Where a coordinate's squared distance is inf at every residue (finite
    |y_j| >~ 1e170), inf * 0 makes the whole product row NaN; every coset
    is infinitely far there, so all tie. A row with a non-finite y_j reads
    NaN in every coset too, and gets the first coset's lift, whatever rows
    share its batch.
    """
    # ufunc reductions rather than the array methods: this runs once per
    # single-vector call, where the methods' Python wrappers show.
    m, n = Y.shape
    r = np.arange(p)
    Yr = Y[:, :, None]
    lift = r + p * _round_ties_down((Yr - r) / p)
    sq = lift - Yr
    sq *= sq
    d = sq.reshape(m, n * p) @ onehot
    np.sqrt(d, out=d)   # one (m, c) table, not two
    # Not-greater rather than less-or-equal: a NaN row marks every coset.
    best = ~(d > (np.minimum.reduce(d, axis=1) + 1e-12)[:, None])
    lift = lift.reshape(m, n * p)
    out = lift[np.arange(m)[:, None], cols[best.argmax(axis=1)]]
    if np.add.reduce(best, axis=None) > m:
        for i in np.flatnonzero(np.add.reduce(best, axis=1) > 1):
            if np.logical_and.reduce(np.isfinite(Y[i])):   # else coset 0
                tied = lift[i].take(cols[best[i]])
                out[i] = tied[np.lexsort(tied[:, ::-1].T)[0]]
    return out


class Lattice:
    """Nearest-point interface of a lattice of dimension ``n``.

    ``mod``, ``mod_many`` and ``sample_voronoi`` are written against
    ``nearest`` and ``nearest_many``; :class:`ConstructionALattice` is the
    only implementation.
    """

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(
                f"expected vector of length {self.n}, got shape {x.shape}")
        return x

    def nearest(self, x: np.ndarray) -> np.ndarray:
        """Exact nearest lattice point, ties broken lexicographically."""
        raise NotImplementedError

    def nearest_many(self, X: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`nearest` for a batch (m x n), bit for bit."""
        raise NotImplementedError

    def mod(self, x: np.ndarray) -> np.ndarray:
        """``x mod Lambda``: subtract the nearest lattice point."""
        x = self._check_dim(x)
        return x - self.nearest(x)

    def mod_many(self, X: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`mod` for a batch (m x n), bit for bit."""
        X = np.asarray(X, dtype=float)
        return X - self.nearest_many(X)

    def sample_voronoi(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample from the Voronoi cell by box rejection."""
        h = self.voronoi_box_halfwidth()
        for _ in range(REJECTION_ATTEMPTS):
            u = rng.uniform(-h, h, size=self.n)
            # np.allclose(Q(u), 0, atol=TOL) without its per-call cost.
            if (np.abs(self.nearest(u)) <= TOL).all():
                return u
        raise RejectionBudgetExceeded(
            f"no accept in {REJECTION_ATTEMPTS} attempts (halfwidth {h:g})")


def integer_lattice(n: int, gamma: float = 1.0) -> "ConstructionALattice":
    """The scaled integer lattice ``gamma * Z^n`` (Construction A, k = n)."""
    return ConstructionALattice(2, np.eye(n, dtype=np.int64), gamma=gamma)


class ConstructionALattice(Lattice):
    """Construction-A lattice: scaled lift of a linear code over GF(p).

    ``rows`` is the k x n code generator (entries mod p, rows linearly
    independent over GF(p)); k = 0 gives ``gamma * p Z^n`` and k = n gives
    ``gamma * Z^n``. Volume is exactly ``gamma^n p^(n-k)``.
    """

    def __init__(self, p: int, rows: np.ndarray, gamma: float = 1.0,
                 n: int = None):
        gf.check_prime(p)
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % p
        if rows.size == 0:
            if n is None:
                raise ValueError("n required when rows is empty")
            rows = np.zeros((0, n), dtype=np.int64)
        k, dim = rows.shape
        if n is not None and n != dim:
            raise DimensionMismatch(f"rows have {dim} columns, expected n={n}")
        if k and len(gf.rref(rows, p)[1]) != k:
            raise ValueError("code generator rows are linearly dependent mod p")
        if not (math.isfinite(gamma) and gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
        self.p = int(p)
        self.n = dim
        self.k = k
        self.gamma = float(gamma)
        self.rows = rows
        self.rows.setflags(write=False)
        self._scan_cols: Optional[np.ndarray] = None
        self._scan_onehot: Optional[np.ndarray] = None

    @property
    def volume(self) -> float:
        return self.gamma ** self.n * float(self.p) ** (self.n - self.k)

    def _scan_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``cols = cw + p * arange(n)`` for each of the p^k codewords cw of
        the underlying code (p^k x n), the column of each codeword
        coordinate in the coset scan's flattened (n, p) cost table, and the
        one-hot matrix (n p x p^k) that is 1 at ``[cols[c, j], c]``; both
        cached."""
        if self._scan_cols is None:
            count = self.p ** self.k
            if count > DEFAULT_ENUM_BUDGET:
                raise EnumerationBudgetExceeded(
                    f"p^k = {count} cosets exceed budget {DEFAULT_ENUM_BUDGET}")
            cols = gf.all_codewords(self.rows, self.p) + self.p * np.arange(
                self.n)
            onehot = np.zeros((self.n * self.p, count))
            onehot[cols, np.arange(count)[:, None]] = 1.0
            cols.setflags(write=False)
            onehot.setflags(write=False)
            self._scan_cols, self._scan_onehot = cols, onehot
        return self._scan_cols, self._scan_onehot

    def nearest(self, x: np.ndarray) -> np.ndarray:
        """Exact nearest point, ties broken lexicographically."""
        return self._nearest(self._check_dim(x)[None, :])[0]

    def nearest_many(self, X: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`nearest` for a batch (m x n), bit for bit."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionMismatch(
                f"expected rows of length {self.n}, got shape {X.shape}")
        return self._nearest(X)

    def _nearest(self, X: np.ndarray) -> np.ndarray:
        """Nearest points to each row of a batch (m, n).

        Rank 0 and rank n round coordinate by coordinate; otherwise every
        row scans all p^k cosets, in row chunks of at most SCAN_ELEMENTS
        coset distances.
        """
        Y = X / self.gamma
        if self.k == 0:
            return self.gamma * self.p * _round_ties_down(Y / self.p)
        if self.k == self.n:
            return self.gamma * _round_ties_down(Y)
        cols, onehot = self._scan_columns()
        chunk = max(1, SCAN_ELEMENTS // len(cols))
        if len(Y) <= chunk:
            out = _coset_scan(Y, cols, onehot, self.p)
        else:
            out = np.concatenate([
                _coset_scan(Y[lo:lo + chunk], cols, onehot, self.p)
                for lo in range(0, len(Y), chunk)])
        return self.gamma * out

    def voronoi_box_halfwidth(self) -> float:
        # gamma*p*Z^n is a sublattice, so the cell sits inside its cube cell.
        return 0.5 * self.gamma * self.p

    def second_moment_exact(self) -> Optional[float]:
        if self.k == 0:
            return (self.gamma * self.p) ** 2 / 12.0
        if self.k == self.n:
            return self.gamma ** 2 / 12.0
        return None

    def scaled(self, factor: float) -> "ConstructionALattice":
        return ConstructionALattice(self.p, self.rows, gamma=self.gamma * factor,
                                    n=self.n)

    def with_rank(self, k: int) -> "ConstructionALattice":
        """Sibling lattice built from the first ``k`` generator rows."""
        if not 0 <= k <= min(self.k, self.n):
            raise ValueError(f"rank {k} outside [0, {self.k}]")
        return ConstructionALattice(self.p, self.rows[:k], gamma=self.gamma,
                                    n=self.n)

    def __repr__(self) -> str:
        return (f"ConstructionALattice(p={self.p}, n={self.n}, k={self.k}, "
                f"gamma={self.gamma!r})")


def second_moment(lattice: ConstructionALattice, samples: int, seed: int) -> float:
    """Monte Carlo estimate of the per-dimension second moment of the cell.

    The estimate is that of ``samples`` :meth:`Lattice.sample_voronoi`
    calls on ``default_rng(seed)``, summed in order. Their box draws come
    in blocks of SCAN_ELEMENTS coordinates, accepted by one
    :meth:`Lattice.nearest_many` call per block: a split uniform draw is
    the same stream, and ``nearest_many`` equals ``nearest`` bit for bit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    h = lattice.voronoi_box_halfwidth()
    block = max(1, SCAN_ELEMENTS // lattice.n)
    total = 0.0
    accepted = 0
    misses = 0              # rejected draws since the last accepted one
    while accepted < samples:
        U = rng.uniform(-h, h, size=(block, lattice.n))
        need = samples - accepted
        hits = np.flatnonzero(
            (np.abs(lattice.nearest_many(U)) <= TOL).all(axis=1))[:need]
        # Rejected draws before each accepted one: one sample's attempts.
        runs = np.diff(hits, prepend=-1 - misses) - 1
        misses = block - 1 - hits[-1] if len(hits) else misses + block
        if np.any(runs >= REJECTION_ATTEMPTS) or (
                len(hits) < need and misses >= REJECTION_ATTEMPTS):
            raise RejectionBudgetExceeded(f"no accept in {REJECTION_ATTEMPTS}"
                                          f" attempts (halfwidth {h:g})")
        for u in U[hits]:
            total += float(u @ u)
        accepted += len(hits)
    return total / (samples * lattice.n)


def is_sublattice(coarse: ConstructionALattice,
                  fine: ConstructionALattice) -> bool:
    """True iff every point of ``coarse`` is a point of ``fine``.

    Both must be of one family (same p and gamma): they then share
    gamma p Z^n, and nesting is the membership of the coarse code's rows
    in the fine code. Raises NotNested for a pair of different families.
    """
    if coarse.n != fine.n:
        raise DimensionMismatch(f"dimensions differ: {coarse.n} vs {fine.n}")
    if coarse.p != fine.p or abs(coarse.gamma - fine.gamma) > TOL * max(
            1.0, coarse.gamma):
        raise NotNested("nested pairs must share p and gamma")
    return bool(np.all(gf.in_rowspan_many(fine.rows, coarse.rows, fine.p)))


def enumerate_codebook(coarse: ConstructionALattice,
                       fine: ConstructionALattice) -> np.ndarray:
    """Codebook of the nested pair: the fine points inside the coarse cell,
    as a (V/Vc, n) array.

    Rows are sorted lexicographically by integer coordinates (units of
    gamma), not by rounding noise; row w-1 is message w, fixing the
    message <-> codeword bijection. Cardinality is checked exactly."""
    if not is_sublattice(coarse, fine):
        raise NotNested("coarse lattice is not a sublattice of fine lattice")
    expected = int(round(coarse.volume / fine.volume))
    if expected > DEFAULT_ENUM_BUDGET:
        raise EnumerationBudgetExceeded(
            f"codebook size {expected} exceeds budget {DEFAULT_ENUM_BUDGET}")
    reps = gf.quotient_coset_reps(coarse.rows, fine.rows, coarse.p)
    points = coarse.mod_many(coarse.gamma * reps.astype(float))
    if len(points) != expected:
        raise NotNested(
            f"enumerated {len(points)} codewords, expected V/Vc = {expected}")
    keys = np.rint(points / coarse.gamma)
    return points[np.lexsort(keys[:, ::-1].T)]


def codebook_index(codebook: np.ndarray, points: np.ndarray,
                   gamma: float) -> np.ndarray:
    """Message index of each point of a batch (m, n): the 1-based row of
    ``codebook`` (:func:`enumerate_codebook` at scale ``gamma``) equal to
    it as integer multiples of gamma, or 0 where none is. A lexicographic
    binary search over the sorted rows; nothing is built per call."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != codebook.shape[1]:
        raise DimensionMismatch(f"expected rows of length {codebook.shape[1]},"
                                f" got shape {points.shape}")
    Q = np.rint(points / gamma)
    target, half = gamma * Q, 0.5 * gamma
    ahead = np.zeros(len(Q), dtype=np.int64)   # rows known to sort before
    each = np.arange(len(Q))
    step = 1 << (len(codebook).bit_length() - 1)
    while step:
        probe = ahead + step
        # Row probe-1 (the last row past the end) minus the point: its first
        # coordinate off by more than gamma/2 decides which sorts first.
        d = codebook.take(probe - 1, axis=0, mode="clip") - target
        first = d[each, (np.abs(d) > half).argmax(axis=1)]
        ahead = np.where(first < -half, probe, ahead)
        step >>= 1
    row = np.minimum(ahead, len(codebook) - 1)   # the first row not before
    found = np.all(np.rint(codebook[row] / gamma) == Q, axis=1)
    return np.where(found, row + 1, 0)
