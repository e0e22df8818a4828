"""Hadamard matrices with exact integer verification.

Constructions: the order-doubling recursion and Kronecker products, so the
available orders are the powers of two. Entries are stored as integers; the
orthogonality property H^T H = n I is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HadamardMatrix",
    "MAX_ORDER",
    "sylvester",
    "kronecker",
    "normalize_first_row",
    "verify_hadamard",
]

# the largest order the exact check verifies in bounded memory: order 2**13
# peaks near 1.7 GiB, and each doubling of the order quadruples that
MAX_ORDER = 1 << 13


def _gram(entries: np.ndarray) -> np.ndarray:
    # BLAS product in float32 is exact here: every intermediate value is an
    # integer of magnitude <= order <= MAX_ORDER < 2**24
    f = entries.astype(np.float32)
    return f.T @ f


def verify_hadamard(entries) -> bool:
    """True iff the matrix is square with entries in {-1, +1} and M^T M = n I exactly."""
    m = np.asarray(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        return False
    if not np.array_equal(np.abs(m), np.ones(m.shape)):
        return False
    g = _gram(m)
    n = m.shape[0]
    return np.count_nonzero(g) == n and bool(np.all(np.diag(g) == n))


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
    """Order-2**k Hadamard matrix from the doubling recursion; first row all ones."""
    top = MAX_ORDER.bit_length() - 1
    if not 0 <= k <= top:
        raise ValueError(f"k must lie in [0, {top}], got {k}")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return HadamardMatrix(h)


def kronecker(a: HadamardMatrix, b: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product of two Hadamard matrices: Hadamard of order a.order * b.order."""
    if a.order * b.order > MAX_ORDER:
        raise ValueError(f"resulting order {a.order * b.order} exceeds the guard {MAX_ORDER}")
    return HadamardMatrix(np.kron(a.entries, b.entries))


def normalize_first_row(h: HadamardMatrix) -> HadamardMatrix:
    """Negate the columns whose first entry is -1, making the first row all ones."""
    return HadamardMatrix(h.entries * h.entries[0][None, :])
