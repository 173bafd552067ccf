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
    res = np.asarray(vecs, dtype=np.int64) % p
    ech, pivots = rref(rows, p)
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
