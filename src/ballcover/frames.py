"""Equiangular tight frames of d+1 unit vectors in R^d built from Hadamard
matrices, plus executable checks of the tight-frame identities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hadamard import HadamardMatrix

__all__ = ["TightFrame", "etf_from_hadamard", "verify_frame_identities"]

GRAM_TOL = 1e-12


@dataclass(frozen=True)
class TightFrame:
    """d+1 unit vectors in R^d with pairwise inner products -1/d and zero sum.

    Stored column-major: matrix[:, j] is the j-th frame vector. The frame
    identities are certified by gram_deviation() and verify_frame_identities
    rather than assumed, so tests can build deliberately broken instances.
    """

    dim: int
    matrix: np.ndarray  # (dim, dim + 1)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dim, self.dim + 1):
            raise ValueError(f"expected shape {(self.dim, self.dim + 1)}, got {m.shape}")

    def gram_deviation(self) -> float:
        """Largest entrywise gap between the Gram matrix and (1 + 1/d) I - (1/d) J.

        NaN or inf when the matrix holds a non-finite entry, so compare it as
        ``not (dev <= tol)``.
        """
        n = self.dim
        target = (1.0 + 1.0 / n) * np.identity(n + 1) - np.full((n + 1, n + 1), 1.0 / n)
        return float(np.max(np.abs(self.matrix.T @ self.matrix - target)))


def etf_from_hadamard(h: HadamardMatrix) -> TightFrame:
    """Equiangular tight frame of m unit vectors in R^(m-1) from an order-m matrix.

    Drops the all-ones first row and scales by 1/sqrt(m-1). Distinct columns
    of h are orthogonal and share a +1 first entry, so the frame columns have
    unit norm and pairwise inner products exactly -1/(m-1).
    """
    if h.order < 2:
        raise ValueError("need order >= 2")
    if not np.all(h.entries[0] == 1):
        raise ValueError("first row must be all ones")
    n = h.order - 1
    return TightFrame(dim=n, matrix=h.entries[1:, :] / math.sqrt(n))


def verify_frame_identities(frame: TightFrame, x) -> tuple[float, float, float]:
    """Residuals of the reconstruction, zero-sum and norm identities at x.

    Returns (||x - (d/(d+1)) sum <x,phi_i> phi_i||_2, ||sum phi_i||_2,
    | ||x||^2 - (d/(d+1)) sum <x,phi_i>^2 |). All three stay below 1e-10 for
    a valid frame; a perturbed frame shows in the first residual.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (frame.dim,):
        raise ValueError(f"expected a vector of length {frame.dim}, got shape {x.shape}")
    d = frame.dim
    scale = d / (d + 1.0)
    coeffs = frame.matrix.T @ x
    r_recon = float(np.linalg.norm(x - scale * (frame.matrix @ coeffs)))
    r_sum = float(np.linalg.norm(frame.matrix.sum(axis=1)))
    r_norm = abs(float(x @ x) - scale * float(coeffs @ coeffs))
    return r_recon, r_sum, r_norm
