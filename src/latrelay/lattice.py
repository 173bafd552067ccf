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
import sys
from typing import Optional

import numpy as np

from . import gf
from .errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    NotNested,
    RejectionBudgetExceeded,
)

# Absolute tolerance of is_sublattice's gamma comparison.
TOL = 1e-9

# Cap on the number of candidate points any exact enumeration may touch.
DEFAULT_ENUM_BUDGET = 2_000_000

# Entries of the largest array one step of the coset scan holds, the
# (rows x cosets) distance table or the (rows x n p) lift table, so a step
# takes SCAN_ELEMENTS // max(cosets, n p) rows (at least one): a 40-row
# list decode of the 3^6 cosets of a rank-6 code at n = 8 is one step,
# and the working set stays small whatever the batch size. TWRC's bin
# decode bounds its (rows x bins x n) difference arrays by it too.
SCAN_ELEMENTS = 32_768

# Largest distance, in units of gamma, of a coordinate from the nearest
# multiple of gamma that Codebook.index still reads as on the fine grid:
# far above the rounding of the engines' sums of lattice points (about
# 1e-15 gamma in a cell of a few gamma p), far below the 1/2 at which a
# point would round to another grid point.
GRID_TOL = 1e-6

MOMENT_POINTS = 8192   # points of second_moment's quadrature of a cell

# Box draws the rejection sampler makes for one sample before it gives up.
REJECTION_ATTEMPTS = 200_000


# 1/2 as a 0-d array: a ufunc reads it faster than a Python float, and
# to the same value.
_HALF = np.array(0.5)


def _round_ties_down(y: np.ndarray) -> np.ndarray:
    """Round ``y`` in place to the nearest integer, exact halves toward
    -inf (the lexicographic tie rule), as ceil(y - 1/2); returns ``y``."""
    y -= _HALF
    return np.ceil(y, out=y)


class _ScanTable:
    """Tables and work arrays of the coset scan over the cosets
    ``shift + C`` of the code C generated by ``rows``, one group per row of
    ``shifts`` (g x n, residues mod p), group by group.

    ``cols = cw + p * arange(n)`` for each of the g p^k codewords cw
    (g p^k x n) is the column of each codeword coordinate in the scan's
    flattened (n, p) lift table, and ``onehot`` (n p x g p^k) is 1/4 at
    ``[cols[c, j], c]``, so that its product with the squared-distance
    table is a quarter of each coset's squared distance; both are
    read-only. ``classes``, one entry per column, is None unless the
    owner sets it; then the scan returns the winning column's entry in
    place of its point. A step of the scan takes at most ``chunk`` rows.

    The table keeps the work arrays of one step (:meth:`new_work`), grown
    to the largest one-step scan seen, and the views of them that a step
    of the last row count read (:meth:`step`), so a scan of one step
    allocates none of them, and a repeated one builds no view; one table
    therefore runs one scan at a time. Raises EnumerationBudgetExceeded
    before it enumerates anything when g p^k exceeds DEFAULT_ENUM_BUDGET.
    """

    def __init__(self, p: int, rows: np.ndarray, shifts: np.ndarray):
        k, n = rows.shape
        count = len(shifts) * p ** k
        if count > DEFAULT_ENUM_BUDGET:
            raise EnumerationBudgetExceeded(
                f"{count} cosets exceed budget {DEFAULT_ENUM_BUDGET}")
        words = (shifts[:, None, :] + gf.all_codewords(rows, p)) % p
        self.cols = words.reshape(count, n) + p * np.arange(n)
        self.onehot = np.zeros((n * p, count))
        self.onehot[self.cols, np.arange(count)[:, None]] = 0.25
        self.cols.setflags(write=False)
        self.onehot.setflags(write=False)
        self.p = p
        self.residues = np.tile(np.arange(p, dtype=float), n)   # r of j p + r
        self.groups = len(shifts)
        self.classes: Optional[np.ndarray] = None
        self.chunk = max(1, SCAN_ELEMENTS // max(count, n * p))
        # The scan's scalars, p, half the 1e-12 window and the window's
        # slack (see _scan_chunk), as 0-d arrays: a ufunc reads them
        # faster than Python numbers, and to the same values.
        self.scalars = tuple(np.array(c) for c in (
            float(p), 0.5e-12, 1.0 + 2e-15 * n))
        self._work = self.new_work(0)
        self._step: tuple = (0, self.views(self._work, 0))

    def new_work(self, m: int) -> tuple[np.ndarray, ...]:
        """Uninitialised work arrays of a step of ``m`` rows: the lift and
        squared-distance tables (m, n p), the cosets' squared distances
        and the bound of each coset's window (m, cosets), and their far
        marks (m groups, cosets / groups). The scan writes the bound only
        after the product has read the squared-distance table, so the two
        share one buffer."""
        count, width = self.onehot.shape[1], len(self.residues)
        shared = np.empty(m * max(width, count))
        return (np.empty((m, width)), shared[:m * width].reshape(m, width),
                np.empty((m, count)), shared[:m * count].reshape(m, count),
                np.empty((m * self.groups, count // self.groups), dtype=bool))

    def views(self, work: tuple[np.ndarray, ...], m: int) -> tuple:
        """What a step of ``m`` rows on ``work`` reads: the leading rows of
        its lift, squared-distance (also as (m, n, p)), distance (also as
        (m groups, cosets / groups)) and bound (as (m groups, cosets /
        groups)) tables and of its far marks, each group's first flat
        entry (None for one group of one row), and each row's first flat
        lift entry (None for one row)."""
        lift, sq, d, bound, far = work
        width, m_groups, size = lift.shape[1], m * self.groups, far.shape[1]
        lift, sq, d = lift[:m], sq[:m], d[:m]
        return (lift, sq, sq.reshape(m, width // self.p, self.p), d,
                d.reshape(m_groups, size),
                bound[:m].reshape(m_groups, size), far[:m_groups],
                np.arange(0, m_groups * size, size) if m_groups > 1 else None,
                width * np.arange(m)[:, None] if m > 1 else None)

    def step(self, m: int) -> tuple:
        """:meth:`views` of a step of ``m`` rows on the kept work arrays,
        first grown to ``m`` rows if smaller. The views of the last row
        count are kept: a table's steps mostly repeat one count (a
        decoder's are all of one row)."""
        if m != self._step[0]:
            if m > len(self._work[0]):
                self._work = self.new_work(m)
            self._step = (m, self.views(self._work, m))
        return self._step[1]


def _coset_scan(Y: np.ndarray, table: _ScanTable) -> np.ndarray:
    """Nearest point of each group of cosets of the unit-scale lattice
    pZ^n to each row of ``Y`` (m x n), as an (m groups, n) array whose row
    i groups + g is group g of row i, over ``table``'s groups of equal
    size. One group of all codewords of a code is the nearest point of
    its Construction-A lattice. With ``table.classes``, returns the
    entry of each winning column instead, as an (m groups,) array, and
    gathers no point.

    Rows go in steps of ``table.chunk`` rows. A batch of one step runs on
    the table's kept work arrays. A longer batch (set-up work such as a
    Codebook's reduction of its codewords) runs its steps on one set of
    arrays of its own and drops it, so it leaves no large arrays behind.

    Coordinate j of coset cw + pZ^n rounds to the nearest point of
    cw_j + pZ, which depends only on (y_j, cw_j). So one (m, n p) table
    holds the rounded lift of every residue, entry j p + r for residue r
    of coordinate j, and another its squared distance. Coset c's squared
    distance, the sum over j of the entries j p + cw_j, is 4 times column
    c of one matrix product of the squared-distance table with ``onehot``.
    Within each group, among the cosets within 1e-12 of the group's
    shortest distance the lexicographically smallest point wins. The
    product only screens, on quartered squared distances: the group's
    first shortest coset (one argmin) sets half the edge, sqrt(d_min) / 2
    + 1e-12 / 2, and a coset is near while d / 4 <= (edge / 2)^2 (1 +
    2e-15 n), which holds every coset of the window whatever order the
    product summed in; a quarter keeps that bound finite wherever the
    distances are. A group with one near coset has the argmin as its point. In
    a group with more, the window is decided on the near cosets'
    distances summed anew coordinate by coordinate, as a direct scan sums
    them, and its lexicographically smallest point wins. So one row and a
    batch of any size pick the same point at the window's edge too.

    Where a coordinate's squared distance is inf at every residue (finite
    |y_j| >~ 1e170), inf * 0 makes the whole product row NaN; every coset
    is infinitely far there, so all tie. A row with a non-finite y_j reads
    NaN in every coset too, and gets each group's first coset's lift,
    whatever rows share its batch.
    """
    chunk = table.chunk
    if len(Y) <= chunk:
        return _scan_chunk(Y, table, table.step(len(Y)))
    work = table.new_work(chunk)
    return np.concatenate([
        _scan_chunk(Y[lo:lo + chunk], table,
                    table.views(work, min(chunk, len(Y) - lo)))
        for lo in range(0, len(Y), chunk)])


def _scan_chunk(Y: np.ndarray, table: _ScanTable, views: tuple) -> np.ndarray:
    """:func:`_coset_scan` of one step of rows, on ``views``
    (:meth:`_ScanTable.views` of its row count); every array it returns is
    new. The (rows, cosets) table holds quartered squared distances
    throughout: sqrt is taken of each group's shortest entry, and of the
    distances summed anew for a group with more than one near coset."""
    # ufunc reductions rather than the array methods, whose Python
    # wrappers show on a one-row call; argmin and take have no ufunc form,
    # and their methods beat the np.argmin and np.take functions.
    m, n = Y.shape
    groups = table.groups
    lift, sq, sq3, d, dg, bound, far, group_starts, row_starts = views
    p, half_window, slack = table.scalars
    sq3[...] = Y[:, :, None]                   # entry j p + r of row i: y_ij
    np.subtract(sq, table.residues, out=lift)  # r + p ceil((y - r) / p - 0.5)
    lift /= p
    _round_ties_down(lift)
    lift *= p
    lift += table.residues
    np.subtract(lift, sq, out=sq)
    sq *= sq
    np.matmul(sq, table.onehot, out=d)   # a quarter of each squared distance
    size = far.shape[1]   # dg's row i * groups + g: group g of row i
    pick = dg.argmin(axis=1)   # each row's first shortest coset, or first NaN
    if group_starts is not None:   # as an entry of the flat dg: row r's
        pick += group_starts       # first is at r size
    half = np.sqrt(dg.take(pick)) + half_window   # half the edge
    # Far: above (edge / 2)^2 slack, slack = 1 + 2e-15 n. Two orders of
    # summing the same n squares differ by at most 2 (n - 1) 2^-53 of the
    # sum; with the roundings of two square roots and of the bound, the
    # slack covers that, as 2e-15 n > (4 n + 8) 2^-53. The quarter keeps
    # the bound finite unless the full d is past 4 max / slack, where a
    # product of unquartered d would overflow itself; a NaN row marks none
    # far. The bound is copied out to every coset first: np.greater
    # against a (rows, 1) operand runs through numpy's buffered iterator,
    # which allocates a buffer of up to 64 KB on each call.
    bound[...] = (half * half * slack)[:, None]
    np.greater(dg, bound, out=far)
    if m > 1:   # the entry's column: row i of Y starts at i size groups
        pick = pick % (size * groups)
    if np.count_nonzero(far) < m * groups * (size - 1):
        for i in np.flatnonzero(np.add.reduce(far, axis=1) < size - 1
                                ).tolist():
            row, g = divmod(i, groups)
            if np.logical_and.reduce(np.isfinite(Y[row])):  # else coset 0
                tied = size * g + np.flatnonzero(~far[i])
                pts = lift[row].take(table.cols[tied])
                # The window on distances summed anew. From d = 2^1022 on,
                # where such a sum could overflow, only huge coordinates
                # count, whose lifts are the same in every coset: all tie.
                if half[i] < 2.0 ** 510:
                    diff = pts - Y[row]
                    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
                    keep = dist <= np.minimum.reduce(dist) + 1e-12
                    tied, pts = tied[keep], pts[keep]
                pts = pts.tolist()   # lists compare lexicographically
                pick[i] = tied[min(range(len(pts)), key=pts.__getitem__)]
    if table.classes is not None:
        return table.classes.take(pick)
    index = table.cols[pick].reshape(m, -1)   # entries of row i's lift row
    if row_starts is not None:   # row i's lift starts at entry i n p
        index += row_starts
    return lift.take(index).reshape(m * groups, n)


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
        """Row-wise :meth:`mod` for a batch (m x n), bit for bit. The
        difference is written over the nearest points, which
        :meth:`nearest_many` returns in a fresh array."""
        X = np.asarray(X, dtype=float)
        Q = self.nearest_many(X)
        return np.subtract(X, Q, out=Q)

    def sample_voronoi(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample from the Voronoi cell by box rejection."""
        h = self.voronoi_box_halfwidth()
        for _ in range(REJECTION_ATTEMPTS):
            u = rng.uniform(-h, h, size=self.n)
            # Nearest points are gamma times integers: 0 exactly or at
            # least gamma away, so the test holds at every scale.
            if not self.nearest(u).any():
                return u
        raise RejectionBudgetExceeded(
            f"no accept in {REJECTION_ATTEMPTS} attempts (halfwidth {h:g})")


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
        # A subnormal gamma has too few bits for the scan's arithmetic.
        if not (math.isfinite(gamma) and gamma >= sys.float_info.min):
            raise ValueError(f"gamma must be finite and positive, and not "
                             f"subnormal, got {gamma!r}")
        self.p = int(p)
        self.n = dim
        self.k = k
        self.gamma = float(gamma)
        # gamma, p and gamma p as 0-d arrays, the operands of _nearest's
        # ufuncs: read faster than Python numbers, and to the same values.
        self.scalars = tuple(np.array(c) for c in (
            self.gamma, float(self.p), self.gamma * self.p))
        self.rows = rows
        self.rows.setflags(write=False)
        self._scan: Optional[_ScanTable] = None

    @property
    def volume(self) -> float:
        return self.gamma ** self.n * float(self.p) ** (self.n - self.k)

    def nearest(self, x: np.ndarray) -> np.ndarray:
        """Exact nearest point, ties broken lexicographically."""
        return self._nearest(self._check_dim(x)[None, :])[0]

    def nearest_many(self, X: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`nearest` for a batch (m x n), bit for bit, in a
        fresh array that shares no memory with ``X`` or any kept table."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionMismatch(
                f"expected rows of length {self.n}, got shape {X.shape}")
        return self._nearest(X)

    def _nearest(self, X: np.ndarray) -> np.ndarray:
        """Nearest points to each row of a batch (m, n).

        Rank 0 and rank n round coordinate by coordinate, gamma p
        ceil(X / gamma / p - 1/2) and gamma ceil(X / gamma - 1/2), in the
        one buffer X / gamma; otherwise every row scans all p^k cosets as
        one group of :func:`_coset_scan`, whose fresh result is scaled in
        place. Either way the result is a new array.
        """
        gamma, p, gamma_p = self.scalars
        Y = X / gamma
        if self.k == 0:
            Y /= p
            _round_ties_down(Y)
            Y *= gamma_p
            return Y
        if self.k == self.n:
            _round_ties_down(Y)
            Y *= gamma
            return Y
        if self._scan is None:   # the code's p^k codewords as one group
            self._scan = _ScanTable(self.p, self.rows,
                                    np.zeros((1, self.n), dtype=np.int64))
        Q = _coset_scan(Y, self._scan)
        Q *= gamma
        return Q

    def voronoi_box_halfwidth(self) -> float:
        # gamma*p*Z^n is a sublattice, so the cell sits inside its cube cell.
        return 0.5 * self.gamma * self.p

    def draw_cell(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """``m`` independent points uniform on the Voronoi cell, as (m, n).

        Each row is a uniform draw on the cube [-h, h)^n, h
        :meth:`voronoi_box_halfwidth`, reduced mod the lattice. The cube is
        a fundamental region of gamma p Z^n, a sublattice, so the reduced
        row is exactly uniform on the cell (the crypto lemma; Erez and
        Zamir, IEEE Trans. IT 2004) and no draw is rejected.
        """
        h = self.voronoi_box_halfwidth()
        return self.mod_many(rng.uniform(-h, h, size=(m, self.n)))

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


def second_moment(lattice: ConstructionALattice) -> float:
    """Per-dimension second moment of the cell, from the lattice alone:
    (gamma p)^2 / 12 at rank 0 and gamma^2 / 12 at rank n, exactly;
    otherwise the mean of |u mod Lambda|^2 / n over the MOMENT_POINTS
    points frac(0.5 + i alpha), alpha_j = phi^-j with phi^(n+1) = phi + 1
    (the Kronecker sequence R_d), on :meth:`draw_cell`'s cube, which the
    crypto lemma makes a fixed quadrature of the cell."""
    n = lattice.n
    if lattice.k == 0:
        return (lattice.gamma * lattice.p) ** 2 / 12.0
    if lattice.k == n:
        return lattice.gamma ** 2 / 12.0
    phi = 1.0
    for _ in range(30):   # a contraction onto the positive root
        phi = (1.0 + phi) ** (1.0 / (n + 1))
    i = np.arange(1, MOMENT_POINTS + 1)[:, None]
    unit = (0.5 + i * phi ** -np.arange(1.0, n + 1)) % 1.0
    U = lattice.mod_many(lattice.voronoi_box_halfwidth() * (2.0 * unit - 1.0))
    return float((U * U).sum()) / U.size


def cubic_gamma(p: int, power: float) -> float:
    """The gamma whose rank-0 lattice, the cube gamma p Z^n, has
    per-dimension second moment ``power``: the inverse of
    :func:`second_moment`'s (gamma p)^2 / 12."""
    return math.sqrt(12.0 * power) / p


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


class Codebook:
    """The codebook of a nested pair (coarse, fine) and its message map.

    ``points``, the fine points inside the coarse cell, is a read-only
    (V/Vc, n) array sorted lexicographically by integer coordinates (units
    of gamma), not by rounding noise: row w-1 is message w.

    The fine code's basis is taken as the coarse rows, then the
    complement: the fine rows independent of the coarse rows and of those
    kept before them. In :func:`gf.all_codewords`' radix order, codeword
    j of that basis is complement codeword j mod V/Vc plus a coarse
    codeword, which lifts to a coarse point, so the two share a class.
    Only the V/Vc complement codewords are reduced: they are the points.
    A fine point's codeword, so its class, is fixed by its residues mod p
    on the pivots of ``gf.rref(fine.rows)``, and one read-only table of
    p^k_fine message indices in the radix order of those residues maps
    fine points to messages. A pair that is not nested raises NotNested;
    p^k_fine > DEFAULT_ENUM_BUDGET raises EnumerationBudgetExceeded before
    anything is enumerated.
    """

    def __init__(self, coarse: ConstructionALattice,
                 fine: ConstructionALattice):
        basis, self.points, self._keys, order = _sorted_points(coarse, fine)
        p, k = fine.p, fine.k
        self.p, self.gamma = p, fine.gamma
        self._gamma = fine.scalars[0]   # gamma as a 0-d array
        self._pivot_coords = np.array(gf.rref(fine.rows, p)[1], dtype=np.intp)
        self._place_values = p ** np.arange(k - 1, -1, -1)
        # Codeword j of the basis has the message of complement codeword
        # j mod V/Vc.
        message = order.argsort() + 1
        self._table = np.empty(p ** k, dtype=np.int64)
        self._table[gf.all_codewords(basis[:, self._pivot_coords], p)
                    @ self._place_values] = np.tile(message, p ** coarse.k)
        self._table.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    def classes(self, words: np.ndarray) -> np.ndarray:
        """Message index of the class of each fine point of an integer
        batch (m, n), in units of gamma, read from its pivot residues."""
        residues = words[:, self._pivot_coords] % self.p
        return self._table.take(residues @ self._place_values)

    def index(self, points: np.ndarray) -> np.ndarray:
        """The 1-based row of ``points`` equal to each row of a batch
        (m, n), or 0 where none is: for a point outside the cell, with a
        NaN or inf, or off the fine lattice, that is with a coordinate
        more than GRID_TOL gamma from the nearest multiple of gamma."""
        P = np.asarray(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.points.shape[1]:
            raise DimensionMismatch(f"expected rows of length "
                                    f"{self.points.shape[1]}, got {P.shape}")
        S = P / self._gamma
        Q = np.rint(S)
        # A non-finite coordinate reads 0, so its residue is 0's, and its
        # offset S - Q stays inf or NaN: the row matches none.
        Q = np.where(np.isfinite(Q), Q, 0.0)
        S -= Q
        w = self.classes((Q % self.p).astype(np.int64))
        hit = self._keys[w - 1] == Q
        hit &= np.abs(S, out=S) <= GRID_TOL
        return np.where(np.logical_and.reduce(hit, axis=1), w, 0)


def _sorted_points(coarse: ConstructionALattice,
                   fine: ConstructionALattice) -> tuple:
    """What :class:`Codebook` builds before its class table: the fine
    code's basis (the coarse rows, then the complement), the read-only
    points sorted by integer coordinates, those coordinates, and the sort
    order of the complement codewords. Raises NotNested for a pair that is
    not nested and EnumerationBudgetExceeded when p^k_fine exceeds
    DEFAULT_ENUM_BUDGET, before anything is enumerated."""
    if not is_sublattice(coarse, fine):
        raise NotNested("coarse lattice is not a sublattice of fine lattice")
    p = fine.p
    if p ** fine.k > DEFAULT_ENUM_BUDGET:
        raise EnumerationBudgetExceeded(
            f"{p ** fine.k} codewords exceed budget {DEFAULT_ENUM_BUDGET}")
    basis = coarse.rows
    for row in fine.rows:
        if not gf.in_rowspan_many(basis, row[None], p)[0]:
            basis = np.vstack([basis, row])
    words = gf.all_codewords(basis[coarse.k:], p)
    points = coarse.mod_many(coarse.gamma * words.astype(float))
    keys = np.rint(points / coarse.gamma)
    order = np.lexsort(keys[:, ::-1].T)
    points = points[order]
    points.setflags(write=False)
    return basis, points, keys[order], order


def enumerate_codebook(coarse: ConstructionALattice,
                       fine: ConstructionALattice) -> np.ndarray:
    """The points of the pair's :class:`Codebook`, row w-1 message w,
    read-only, built without its class table."""
    return _sorted_points(coarse, fine)[1]
