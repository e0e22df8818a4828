"""Hadamard matrices with exact integer verification.

Construction: the order-doubling recursion, so the available orders are the
powers of two. Entries are stored as integers; the orthogonality property
H^T H = n I is checked exactly.

The check peels doubling levels before its product. A matrix of doubling
form M = [[A, A], [A, -A]] has M^T M = [[2 A^T A, 0], [0, 2 A^T A]], so M
is Hadamard iff A is. While the quadrants of a +-1 matrix have that form,
the check moves to the top-left quadrant, and it ends in the exact Gram
product of what is left: 1 x 1 for the doubling recursion, the whole matrix
for a matrix of no doubling form. Time and extra memory are O(n^2) plus the
product of the core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HadamardMatrix",
    "MAX_ORDER",
    "sylvester",
    "verify_hadamard",
]

# the largest order the exact check verifies in bounded memory: at order
# 2**13, `ballcover hadamard --order 8192 --out FILE` peaks at 1.05 GiB RSS
# (the int64 matrix is 0.5 GiB, the writer's element codes as much again;
# numpy 2.4, Python 3.11), and each doubling of the order quadruples that
MAX_ORDER = 1 << 13


def _gram(entries: np.ndarray) -> np.ndarray:
    # BLAS product in float32 is exact here: every intermediate value is an
    # integer of magnitude <= order <= MAX_ORDER < 2**24
    f = entries.astype(np.float32)
    return f.T @ f


def verify_hadamard(entries) -> bool:
    """True iff the matrix is square with entries in {-1, +1} and M^T M = n I exactly.

    While the quadrants satisfy M12 = M21 = M11 and M22 != M11 entrywise
    (for +-1 entries, M22 = -M11), M is replaced by M11: then M^T M =
    2 (M11^T M11 (+) M11^T M11), so M^T M = n I iff M11^T M11 = (n/2) I.
    The core left over is checked by its exact Gram product.
    """
    m = np.asarray(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        return False
    # no negation and no int64 copy: bool and unsigned input compare as they are
    if not ((m == 1) | (m == -1)).all():
        return False
    while m.shape[0] % 2 == 0:
        h = m.shape[0] // 2
        a = m[:h, :h]
        if not ((m[:h, h:] == a).all() and (m[h:, :h] == a).all() and (m[h:, h:] != a).all()):
            break
        m = a
    g = _gram(m)
    n = m.shape[0]
    return bool(np.count_nonzero(g) == n and np.all(np.diag(g) == n))


@dataclass(frozen=True)
class HadamardMatrix:
    """Square +-1 matrix with exactly orthogonal columns (H^T H = n I)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.int64)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("entries must form a nonempty square matrix")
        n = m.shape[0]
        if n > MAX_ORDER:
            raise ValueError(f"order {n} exceeds the guard {MAX_ORDER}")
        if n > 2 and n % 4 != 0:
            raise ValueError(f"no Hadamard matrix of order {n} exists (order must be 1, 2 or 0 mod 4)")
        if not verify_hadamard(m):
            raise ValueError("matrix is not Hadamard: need +-1 entries with H^T H = n I")

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def sylvester(k: int) -> HadamardMatrix:
    """Order-2**k Hadamard matrix from the doubling recursion; first row all ones.

    Built in place in one int64 array: at each level the top-left block is
    copied into the other three blocks, and the bottom-right one is negated.
    """
    top = MAX_ORDER.bit_length() - 1
    if not 0 <= k <= top:
        raise ValueError(f"k must lie in [0, {top}], got {k}")
    n = 1 << k
    h = np.empty((n, n), dtype=np.int64)
    h[0, 0] = 1
    m = 1
    while m < n:
        a = h[:m, :m]
        h[:m, m : 2 * m] = a
        h[m : 2 * m, :m] = a
        np.negative(a, out=h[m : 2 * m, m : 2 * m])
        m *= 2
    return HadamardMatrix(h)
