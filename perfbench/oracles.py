"""Independent output checks for the benchmark.

Nothing here calls latrelay: the oracles take plain parameters (prime,
generator rows, scale) and recompute what the program claims with
their own code, so agreement means something.

- ``code_words`` / ``coset_key``: a Construction-A lattice is
  gamma * {x in Z^n : x mod p in C}; two points are congruent modulo it
  iff their integer difference reduces to a codeword.
- ``nearest_sq_dist`` / ``in_voronoi``: exact closest-point distance by
  rounding within each coset c + pZ^n, written over numpy arrays.
- ``brute_list``: every fine point whose shift puts the observation in
  the mid lattice's Voronoi cell, found by scanning an integer box.
- ``outside_cell_rate``: Monte-Carlo Pr(Z' not in V_s) for cubic shaping.
- ``degraded_outer`` / ``general_outer`` / ``achievable``: the cut-set
  crossings solved as quadratics, and the displayed achievable formula.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Distance slack when testing whether 0 is a nearest point.
EPS = 1e-9


def code_words(p: int, rows) -> np.ndarray:
    """All p^k codewords of the GF(p) code spanned by ``rows`` (k x n)."""
    rows = np.asarray(rows, dtype=np.int64)
    k, n = rows.shape
    coeffs = np.array(list(itertools.product(range(p), repeat=k)),
                      dtype=np.int64).reshape(p ** k, k)
    return np.unique((coeffs @ rows) % p, axis=0).reshape(-1, n)


def coset_key(x_int, p: int, coarse_words: np.ndarray) -> tuple:
    """Canonical label of the integer vector's class modulo the coarse
    Construction-A lattice: the smallest (x - c) mod p over codewords c."""
    x = np.asarray(x_int, dtype=np.int64) % p
    cands = (x[None, :] - coarse_words) % p
    order = np.lexsort(cands[:, ::-1].T)
    return tuple(int(v) for v in cands[order[0]])


def nearest_sq_dist(Y: np.ndarray, p: int, words: np.ndarray) -> np.ndarray:
    """Squared distance from each row of Y (unit scale) to the lattice
    {x : x mod p in words}, chunked to bound memory."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = np.empty(Y.shape[0])
    step = max(1, 2_000_000 // max(1, words.size))
    for lo in range(0, Y.shape[0], step):
        y = Y[lo:lo + step, None, :]
        diff = y - words[None, :, :]
        diff -= p * np.round(diff / p)
        out[lo:lo + step] = np.min(np.sum(diff * diff, axis=2), axis=1)
    return out


def in_voronoi(D: np.ndarray, p: int, words: np.ndarray) -> np.ndarray:
    """Rows of D (unit scale) for which 0 is a nearest lattice point."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return np.sum(D * D, axis=1) <= nearest_sq_dist(D, p, words) + EPS


def brute_list(y_prime, gamma: float, p: int, coarse_rows, mid_rows,
               fine_rows) -> set:
    """Coset keys (mod the coarse lattice) of every fine point lambda with
    y' - lambda in the mid lattice's Voronoi cell.

    The mid lattice contains gamma p Z^n, so its cell lies in the cube of
    half-width gamma p / 2 and lambda lies in that cube around y'.
    """
    y = np.asarray(y_prime, dtype=float) / gamma
    lo = np.ceil(y - p / 2 - EPS).astype(int)
    hi = np.floor(y + p / 2 + EPS).astype(int)
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(y))
    fine_words = code_words(p, fine_rows)
    radix = p ** np.arange(len(y))
    fine_codes = set(((fine_words % p) @ radix).tolist())
    keep = np.isin((grid % p) @ radix, list(fine_codes))
    cand = grid[keep]
    mid_words = code_words(p, mid_rows)
    inside = cand[in_voronoi(y[None, :] - cand, p, mid_words)]
    coarse_words = code_words(p, coarse_rows)
    return {coset_key(x, p, coarse_words) for x in inside}


def program_list_keys(points, gamma: float, p: int, coarse_rows) -> set:
    """Coset keys of the decoder's list points (each a fine point)."""
    coarse_words = code_words(p, coarse_rows)
    keys = set()
    for pt in np.atleast_2d(points):
        x = np.asarray(pt, dtype=float) / gamma
        xi = np.round(x)
        if np.max(np.abs(x - xi)) > 1e-6:
            raise ValueError(f"list point {pt} is not on the fine grid")
        keys.add(coset_key(xi.astype(np.int64), p, coarse_words))
    return keys


def outside_cell_rate(P: float, N: float, gamma: float, p: int, mid_rows,
                      samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo Pr(Z' not in V_s) with cubic (rank-0) shaping.

    X is uniform on the shaping cell (the cube of side gamma p) for any
    codeword, Z' = (-(1 - alpha) X + alpha Z) reduced to that cube, and
    the test is whether 0 is the nearest mid-lattice point to Z'.
    """
    n = np.asarray(mid_rows).shape[1]
    alpha = P / (P + N)
    side = gamma * p
    X = rng.uniform(-side / 2, side / 2, size=(samples, n))
    Z = rng.normal(0.0, math.sqrt(N), size=(samples, n))
    W = -(1.0 - alpha) * X + alpha * Z
    W -= side * np.round(W / side)
    inside = in_voronoi(W / gamma, p, code_words(p, mid_rows))
    return float(1.0 - inside.mean())


def binomial_agree(k1: int, n1: int, p_ref: float, n_ref: int,
                   z: float = 5.0) -> bool:
    """Does an observed k1/n1 agree with a reference rate from n_ref
    samples within z standard errors (plus a continuity margin)?"""
    var = p_ref * (1.0 - p_ref) * (1.0 / n1 + 1.0 / n_ref)
    return abs(k1 / n1 - p_ref) <= z * math.sqrt(var) + 0.5 / n1


def _c(x: float) -> float:
    return 0.5 * math.log2(1.0 + x)


def _positive_root(a: float, b: float, c: float) -> float:
    """Larger root of a x^2 + b x + c with a > 0 and c <= 0."""
    return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def degraded_outer(Pi: float, PR: float, NR: float, Nother_p: float) -> float:
    """max over a in [0,1] of min(C(a Pi/NR), C((Pi+PR+2 sqrt((1-a) Pi PR))/D)),
    D = Nother' + NR. The first term rises and the second falls in a; with
    s = sqrt(1 - a) their crossing is a quadratic in s."""
    D = Nother_p + NR
    if _c(Pi / NR) <= _c((Pi + PR) / D):
        return _c(Pi / NR)                       # optimum at a = 1
    s = _positive_root(Pi / NR, 2.0 * math.sqrt(Pi * PR) / D,
                       (Pi + PR) / D - Pi / NR)
    return _c((1.0 - s * s) * Pi / NR)


def general_outer(Pi: float, PR: float, NR: float, Nother: float) -> float:
    """max over rho in [0,1] of min(broadcast cut, MAC cut); the broadcast
    cut falls and the MAC cut rises in rho, crossing at a quadratic root."""
    A = Pi * (1.0 / NR + 1.0 / Nother)
    if _c((Pi + PR) / Nother) >= _c(A):
        return _c(A)                             # optimum at rho = 0
    rho = _positive_root(A, 2.0 * math.sqrt(Pi * PR) / Nother,
                         (Pi + PR) / Nother - A)
    return _c((Pi + PR + 2.0 * rho * math.sqrt(Pi * PR)) / Nother)


def achievable(Pi: float, P1: float, P2: float, PR: float, NR: float,
               Nother: float) -> float:
    """R_i = min([1/2 log2(Pi/(P1+P2) + Pi/NR)]+, C((Pi+PR)/N_other))."""
    sum_term = max(0.5 * math.log2(Pi / (P1 + P2) + Pi / NR), 0.0)
    return min(sum_term, _c((Pi + PR) / Nother))


# The paper's constant-gap caps per scenario, in bits.
GAP_CAP = {1: 0.5, 2: 0.5 * math.log2(3.0)}
