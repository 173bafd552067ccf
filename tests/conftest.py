"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own fast paths: the
closest-point oracle scans an explicit integer box and the codebook
oracle filters a grid through plain modular arithmetic, so agreement is
meaningful. ``list_decode_q_form`` decodes by a box scan and a
membership test instead of the coset walk of ``NestedListDecoder``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from latrelay import gf
from latrelay.channel import ListDecodeResult
from latrelay.errors import EnumerationBudgetExceeded
from latrelay.lattice import DEFAULT_ENUM_BUDGET, TOL, ConstructionALattice

# Property tests draw the same examples on every run and keep no example
# database on disk.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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


def _codeword_grid(lat: ConstructionALattice):
    """All codewords of the underlying linear code, by direct span."""
    p, k, n = lat.p, lat.k, lat.n
    if k == 0:
        return [np.zeros(n, dtype=int)]
    out = []
    for coeffs in itertools.product(range(p), repeat=k):
        out.append(np.array(coeffs, dtype=int) @ lat.rows % p)
    return out


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


def _fine_points_in_box(fine: ConstructionALattice, center: np.ndarray,
                        halfwidth: float, budget: int) -> np.ndarray:
    """All fine-lattice points with coordinates in center +- halfwidth."""
    g = fine.gamma
    lo = np.ceil((center - halfwidth) / g - 1e-12).astype(int)
    hi = np.floor((center + halfwidth) / g + 1e-12).astype(int)
    counts = hi - lo + 1
    if np.prod(counts.astype(float)) > budget:
        raise EnumerationBudgetExceeded(
            f"box scan of {np.prod(counts.astype(float)):.3g} points "
            f"exceeds budget {budget}")
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, fine.n)
    keep = gf.in_rowspan_many(fine.rows, grid % fine.p, fine.p)
    return g * grid[keep].astype(float)


def list_decode_q_form(y_prime: np.ndarray, coarse: ConstructionALattice,
                       mid: ConstructionALattice, fine: ConstructionALattice
                       ) -> ListDecodeResult:
    """Alternate list decoder: membership test y_prime in (lambda_c + V_s).

    Scans every fine point in the box around y_prime circumscribing V_s
    inflated by the fine lattice's covering box, keeps those lambda_c with
    Q_s(y_prime - lambda_c) = 0, and reduces mod the coarse lattice. It
    must agree with ``NestedListDecoder`` everywhere except cell
    boundaries (measure zero).
    """
    y_prime = np.asarray(y_prime, dtype=float)
    halfwidth = mid.voronoi_box_halfwidth() + fine.voronoi_box_halfwidth()
    cand = _fine_points_in_box(fine, y_prime, halfwidth, DEFAULT_ENUM_BUDGET)
    q = mid.nearest_many(y_prime[None, :] - cand)
    keep = np.all(np.abs(q) <= TOL, axis=1)
    members = coarse.mod_many(cand[keep])
    members = np.unique(np.round(members, 9), axis=0)
    return ListDecodeResult(points=members, size=len(members))


@pytest.fixture
def small_lattice():
    return ConstructionALattice(3, np.array([[1, 1]]), gamma=1.0, n=2)


# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible even when pytest captures stdout
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
