"""Candidate-by-candidate reference for ``chain.pick_generator_rows``.

This is the row search written one candidate at a time: every sampled
candidate is checked for independence with ``gf.rank`` and scored by
enumerating all codewords of the enlarged code. The incremental search in
``latrelay.chain`` must pick the same rows for every seed.
"""

from __future__ import annotations

import numpy as np

from latrelay import gf


def shortest_vector_norm(p: int, rows: np.ndarray) -> tuple[float, int]:
    """Shortest nonzero vector of the unit-scale lattice and its
    multiplicity, from a nonzero codeword's centered lift or p Z^n."""
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


def pick_generator_rows_reference(p: int, n: int, kmax: int, seed: int = 0,
                                  candidates: int = 200) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = np.zeros((0, n), dtype=np.int64)
    for _ in range(kmax):
        best_row, best_score = None, None
        for _ in range(candidates):
            cand = rng.integers(0, p, size=n, dtype=np.int64)
            trial = np.vstack([rows, cand[None, :]])
            if gf.rank(trial, p) != trial.shape[0]:
                continue
            norm, mult = shortest_vector_norm(p, trial)
            score = (norm, -mult)
            if best_score is None or score > best_score:
                best_score, best_row = score, cand
        if best_row is None:
            raise ValueError("could not extend rows to requested rank")
        rows = np.vstack([rows, best_row[None, :]])
    return rows
