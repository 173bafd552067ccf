"""Small dense linear algebra over the prime field GF(p).

Everything here works on integer numpy arrays with entries reduced mod p.
Sizes are tiny (n <= 16 in practice), so plain Gaussian elimination is fine.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPrime


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")


def rref(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of ``rows`` mod p.

    Returns (echelon matrix with zero rows dropped, pivot column list).
    """
    a = np.array(rows, dtype=np.int64) % p
    if a.ndim != 2:
        a = a.reshape(1, -1)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if a[i, c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(nrows):
            if i != r and a[i, c] % p != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def in_rowspan_many(rows: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """Vectorized row-span membership for many vectors (m x n), mod p."""
    vecs = np.asarray(vecs, dtype=np.int64) % p
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if rows.shape[0] == 0 or rows.size == 0:
        return np.all(vecs % p == 0, axis=1)
    ech, pivots = rref(rows, p)
    res = vecs.copy()
    for row, c in zip(ech, pivots):
        res = (res - res[:, c:c + 1] * row[None, :]) % p
    return np.all(res == 0, axis=1)


def all_codewords(rows: np.ndarray, p: int) -> np.ndarray:
    """All p^k codewords of the code generated by ``rows`` (k x n), mod p.

    Ordered by the mixed-radix index of the coefficient vector, so the
    ordering is deterministic.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    k, n = rows.shape if rows.size else (0, rows.shape[1] if rows.ndim == 2 else 0)
    if k == 0:
        return np.zeros((1, n), dtype=np.int64)
    coeffs = np.stack(
        np.meshgrid(*([np.arange(p)] * k), indexing="ij"), axis=-1
    ).reshape(-1, k)
    return (coeffs @ rows) % p


def quotient_coset_reps(rows_coarse: np.ndarray, rows_fine: np.ndarray, p: int) -> np.ndarray:
    """Coset representatives of C_fine / C_coarse as codewords mod p.

    Requires C_coarse to be a subcode of C_fine. Returns p^(k_fine - k_coarse)
    representatives, one per coset, in a deterministic order.
    """
    rows_coarse = np.atleast_2d(np.asarray(rows_coarse, dtype=np.int64))
    rows_fine = np.atleast_2d(np.asarray(rows_fine, dtype=np.int64))
    n = rows_fine.shape[1]
    # Extend a basis of the coarse code to a basis of the fine code with
    # the fine rows, in order, that are independent of the rows before
    # them. Each row is reduced by an echelon basis grown one row at a
    # time: basis row i is zero at the pivots of rows 0..i-1, so reducing
    # in insertion order clears every pivot.
    rows_coarse = rows_coarse.reshape(-1, n)
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    extra: list[np.ndarray] = []
    for i, row in enumerate(np.vstack([rows_coarse, rows_fine])):
        r = row % p
        for b, c in zip(basis, pivots):
            r = (r - r[c] * b) % p
        nonzero = np.flatnonzero(r)
        if nonzero.size == 0:
            continue
        c = int(nonzero[0])
        basis.append((r * pow(int(r[c]), p - 2, p)) % p)
        pivots.append(c)
        if i >= len(rows_coarse):
            extra.append(row)
    return all_codewords(np.array(extra, dtype=np.int64).reshape(len(extra), n), p)
