"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own fast paths: the
closest-point oracle scans an explicit integer box and the codebook
oracle filters a grid through plain modular arithmetic, so agreement is
meaningful. ``list_decode_q_form`` decodes by a box scan and a
membership test instead of the grouped coset scan of
``NestedListDecoder``. ``direct_scan_nearest`` is the coset scan in its
direct form, whose points the kernel's matrix-product scan must reproduce
bit for bit, and ``shift_rescan_decode`` is the list decode as |L| such
scans of the list lattice, whose members the grouped scan must reproduce.
``message_index_oracle`` finds codebook rows by a dict of their integer
coordinates, where the library reads a class table. ``integer_lattice``
builds gamma Z^n, and ``recover_t1_from_sum`` / ``recover_t2_from_sum``
state the TWRC recovery algebra that the engine, which resolves in
message indices, never runs.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from latrelay import gf
from latrelay.chain import build_chain
from latrelay.channel import NestedListDecoder
from latrelay.errors import EnumerationBudgetExceeded, NotNested
from latrelay.lattice import (
    DEFAULT_ENUM_BUDGET,
    TOL,
    ConstructionALattice,
    enumerate_codebook,
    is_sublattice,
)

# Property tests draw the same examples on every run and keep no example
# database on disk.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def integer_lattice(n: int, gamma: float = 1.0) -> ConstructionALattice:
    """The scaled integer lattice ``gamma * Z^n`` (Construction A, k = n)."""
    return ConstructionALattice(2, np.eye(n, dtype=np.int64), gamma=gamma)


def recover_t1_from_sum(T, t2, U2, lam1: ConstructionALattice,
                        lam2: ConstructionALattice) -> np.ndarray:
    """t1 = (T - t2 + Q2(t2 + U2)) mod Lambda_1, exact algebra, of each
    row of a batch (m, n) of TWRC sums T = (t1 + t2 - Q2(t2 + U2)) mod
    Lambda_1."""
    if not is_sublattice(lam1, lam2):
        raise NotNested("Lambda_1 must be a sublattice of Lambda_2")
    return lam1.mod_many(T - t2 + lam2.nearest_many(t2 + U2))


def recover_t2_from_sum(T, t1, lam1: ConstructionALattice,
                        lam2: ConstructionALattice) -> np.ndarray:
    """t2 = (T mod Lambda_2 - t1) mod Lambda_2, of each row of a batch
    (m, n), using the distributive mod law for Lambda_1 subseteq Lambda_2."""
    if not is_sublattice(lam1, lam2):
        raise NotNested("Lambda_1 must be a sublattice of Lambda_2")
    return lam2.mod_many(lam2.mod_many(T) - t1)


def brute_force_nearest(lat: ConstructionALattice, y, reach: int = 3):
    """Exhaustive closest lattice point, lexicographic tie-break, of one
    vector (n,) or of each row of a batch (m, n).

    Scans gamma * (c + p*m) for every codeword c and every integer shift
    m with |m_i| <= reach around y. reach must cover the Voronoi cell;
    for the small instances used in tests 3 is plenty. Among the points
    within 1e-12 of the shortest squared distance, the first coordinate
    decides, then the second, and so on, each to within 1e-12.
    """
    y = np.asarray(y, dtype=float)
    Y = np.atleast_2d(y)
    p, n, g = lat.p, lat.n, lat.gamma
    shifts = np.array(list(itertools.product(range(-reach, reach + 1),
                                             repeat=n)), dtype=int)
    offsets = (np.array(_codeword_grid(lat))[:, None, :]
               + p * shifts[None, :, :]).reshape(-1, n)
    out = np.empty_like(Y)
    rows = max(1, 200_000 // (len(offsets) * n))   # candidate coords per step
    for lo in range(0, len(Y), rows):
        Yc = Y[lo:lo + rows]
        center = np.round(Yc / (g * p)).astype(int)
        pts = g * (offsets[None, :, :] + p * center[:, None, :])
        d = np.sum((pts - Yc[:, None, :]) ** 2, axis=2)
        keep = d <= d.min(axis=1, keepdims=True) + 1e-12
        for j in range(n):
            col = np.where(keep, pts[:, :, j], np.inf)
            keep &= col <= col.min(axis=1, keepdims=True) + 1e-12
        out[lo:lo + rows] = pts[np.arange(len(Yc)), keep.argmax(axis=1)]
    return out.reshape(y.shape)


def direct_scan_nearest(lat: ConstructionALattice, X) -> np.ndarray:
    """Nearest points to each row of X (m, n) by the direct coset scan.

    Every row rounds into every coset c + pZ^n at once, as an (m, p^k, n)
    array of points; among the cosets within 1e-12 of the shortest
    distance the lexicographically smallest point wins. The library kernel
    screens the cosets by a matrix product, which sums each coset's
    squared distances in another order, but decides every window that
    holds more than one coset on distances summed as here, from the same
    lift. So its points must match bit for bit, at the window's edge too,
    and even where the lift is inexact (|y_j| / gamma beyond about 2^52).
    Where a huge coordinate (about 1e170 and up) makes every distance inf,
    both tie every coset.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X / lat.gamma
    cw, p = np.array(_codeword_grid(lat)), lat.p
    Y3 = Y[:, None, :]
    pts = cw + p * np.ceil((Y3 - cw) / p - 0.5)
    diff = pts - Y3
    d = np.sqrt(np.sum(diff * diff, axis=2))
    best = d <= d.min(axis=1, keepdims=True) + 1e-12
    out = pts[np.arange(len(Y)), best.argmax(axis=1)]
    for i in np.flatnonzero(best.sum(axis=1) > 1):
        tied = pts[i][best[i]]
        out[i] = tied[np.lexsort(tied[:, ::-1].T)[0]]
    return lat.gamma * out


def shift_rescan_decode(Y, coarse: ConstructionALattice,
                        mid: ConstructionALattice, fine: ConstructionALattice
                        ) -> np.ndarray:
    """The list decode by shifting and rescanning, for each row of Y (m, n),
    as an (m, |L|, n) array.

    With ``reps = enumerate_codebook(mid, fine)``, member g of row y is the
    point reps[g] + Q_s(y - reps[g]) of coset reps[g] + Lambda_s nearest
    to y, reduced mod the coarse lattice; both nearest points are
    :func:`direct_scan_nearest`'s. This is one Lambda_s scan per list
    member, where ``NestedListDecoder`` makes one grouped scan of the fine
    code; translation by reps[g] keeps the lexicographic tie rule, so the
    two agree in integer units of gamma.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    reps = enumerate_codebook(mid, fine)
    shape = (len(Y),) + reps.shape
    shifts = (Y[:, None, :] - reps).reshape(-1, Y.shape[1])
    anchors = (reps + direct_scan_nearest(mid, shifts).reshape(shape)
               ).reshape(shifts.shape)
    return (anchors - direct_scan_nearest(coarse, anchors)).reshape(shape)


def message_index_oracle(codebook: np.ndarray, points, gamma: float
                         ) -> np.ndarray:
    """1-based row of ``codebook`` equal to each row of ``points`` (m, n)
    in integer units of gamma, or 0 where none is, by a dict keyed by the
    rows' rounded coordinates. A NaN or infinite coordinate matches no
    key."""
    rows = {tuple(q): w for w, q in
            enumerate(np.rint(codebook / gamma).tolist(), start=1)}
    return np.array([rows.get(tuple(q), 0) for q in
                     np.rint(np.asarray(points, dtype=float) / gamma).tolist()],
                    dtype=np.int64)


def _codeword_grid(lat: ConstructionALattice):
    """All codewords of the underlying linear code, by direct span."""
    p, k, n = lat.p, lat.k, lat.n
    if k == 0:
        return [np.zeros(n, dtype=int)]
    out = []
    for coeffs in itertools.product(range(p), repeat=k):
        out.append(np.array(coeffs, dtype=int) @ lat.rows % p)
    return out


def non_prefix_pairs():
    """Nested pairs (coarse, fine) whose coarse rows are random GF(p)
    combinations of the fine rows rather than a prefix of them, at every
    coarse rank 1 to k_fine and fine rank 2 to n of a few chains, so the
    fine rows a codebook keeps beside the coarse ones are not its last
    rows. Deterministic."""
    pairs = []
    for p, n, gamma, seed in ((2, 4, 1.3, 5), (3, 3, 1.0, 6), (5, 3, 0.37, 7),
                              (7, 2, 0.99, 8), (3, 4, 0.5, 9)):
        ch = build_chain(p, n, list(range(n + 1)), gamma=gamma, seed=2)
        rng = np.random.default_rng(seed)
        for kf in range(2, n + 1):
            fine = ch[kf]
            for kc in range(1, kf + 1):
                while True:
                    rows = rng.integers(0, p, size=(kc, kf)) @ fine.rows % p
                    if (len(gf.rref(rows, p)[1]) == kc
                            and not np.array_equal(rows, fine.rows[:kc])):
                        break
                pairs.append((ConstructionALattice(p, rows, gamma=gamma, n=n),
                              fine))
    return pairs


def second_moment_quadrature(lat: ConstructionALattice, grid: int = 120):
    """Grid quadrature of the normalized second moment over the Voronoi
    cell, n = 2 only. Assigns grid points in a covering box to the cell
    by brute-force nearest."""
    assert lat.n == 2
    h = lat.gamma * lat.p   # covering box half-width, ample for n=2
    xs = np.linspace(-h, h, grid, endpoint=False) + h / grid
    pts = np.array(list(itertools.product(xs, xs)))
    q = brute_force_nearest(lat, pts, reach=2)
    inside = np.all(np.abs(q) <= 1e-9, axis=1)
    return float(np.sum(pts[inside] ** 2)) / np.count_nonzero(inside) / lat.n


# Box-scan candidates held at once by list_decode_q_form.
Q_FORM_STEP = 1 << 16


def list_decode_q_form(Y, coarse: ConstructionALattice,
                       mid: ConstructionALattice, fine: ConstructionALattice
                       ) -> list:
    """Alternate list decoder: membership test y_prime in (lambda_c + V_s),
    for each row y_prime of a batch Y (m, n).

    Scans every fine point in the box around y_prime circumscribing V_s
    inflated by the fine lattice's covering box, keeps those lambda_c with
    Q_s(y_prime - lambda_c) = 0, and reduces mod the coarse lattice. The
    boxes of many rows are scanned together, about Q_FORM_STEP candidates
    at a time. Returns one array of distinct members per row. It must
    agree with ``NestedListDecoder`` everywhere except cell boundaries
    (measure zero).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    m, n = Y.shape
    g, p = fine.gamma, fine.p
    halfwidth = mid.voronoi_box_halfwidth() + fine.voronoi_box_halfwidth()
    lo = np.ceil((Y - halfwidth) / g - 1e-12).astype(int)
    hi = np.floor((Y + halfwidth) / g + 1e-12).astype(int)
    counts = np.prod((hi - lo + 1).astype(float), axis=1)
    if counts.max() > DEFAULT_ENUM_BUDGET:
        raise EnumerationBudgetExceeded(
            f"box scan of {counts.max():.3g} points exceeds budget "
            f"{DEFAULT_ENUM_BUDGET}")
    # Every box fits in one of width (hi - lo).max() + 1 from its corner lo.
    width = int((hi - lo).max()) + 1
    offsets = np.stack(np.meshgrid(*[np.arange(width)] * n, indexing="ij"),
                       axis=-1).reshape(-1, n)
    # A point is a fine point iff its residue mod p, read as a base-p
    # number, is a codeword's.
    radix = p ** np.arange(n)
    is_word = np.zeros(p ** n, dtype=bool)
    is_word[np.array(_codeword_grid(fine)) @ radix] = True
    out = []
    step = max(1, Q_FORM_STEP // len(offsets))
    for first in range(0, m, step):
        grid = lo[first:first + step, None, :] + offsets
        keep = np.all(grid <= hi[first:first + step, None, :], axis=2)
        keep[keep] = is_word[(grid[keep] % p) @ radix]
        owner, _ = np.nonzero(keep)
        cand = g * grid[keep].astype(float)
        q = mid.nearest_many(Y[first + owner] - cand)
        inside = np.all(np.abs(q) <= TOL, axis=1)
        members = coarse.mod_many(cand[inside])
        owner = owner[inside]
        for i in range(len(grid)):
            out.append(np.unique(np.round(members[owner == i], 9), axis=0))
    return out


def repeat_call_peak(f, X) -> int:
    """Peak bytes traced by tracemalloc during one call f(X), made after a
    warm-up call on the same input (numpy reports its array buffers to
    tracemalloc)."""
    f(X)
    tracemalloc.start()
    try:
        f(X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_lattice():
    return ConstructionALattice(3, np.array([[1, 1]]), gamma=1.0, n=2)


@pytest.fixture
def decoder_builds(monkeypatch):
    """A list that gains one entry per NestedListDecoder built during the
    test."""
    builds = []
    original = NestedListDecoder.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)
    monkeypatch.setattr(NestedListDecoder, "__init__", counting)
    return builds


# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible even when pytest captures stdout
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
