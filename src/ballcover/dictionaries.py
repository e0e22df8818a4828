"""Dictionaries of unit vectors: coherence in the Euclidean and the
norming-functional sense, the functional cross-product matrix, and greedy
construction of maximal incoherent dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import LpSpace, norming_coords, norms, sphere_from_rng

__all__ = [
    "Dictionary",
    "CoherenceMatrix",
    "coherence_euclidean",
    "coherence_banach",
    "functional_matrix",
    "coherence_matrix",
    "greedy_maximal_dictionary",
]

UNIT_NORM_TOL = 1e-12
DUPLICATE_TOL = 1e-9


@dataclass
class Dictionary:
    """Ordered system of pairwise-distinct unit-norm vectors (rows) in an LpSpace."""

    space: LpSpace
    vectors: np.ndarray
    trials_used: int | None = None  # admission trials when built greedily

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        self.vectors = v
        if v.shape[0] < 1 or v.shape[1] != self.space.d:
            raise ValueError(f"expected (N, {self.space.d}) vectors with N >= 1, got {v.shape}")
        dev = float(np.max(np.abs(norms(self.space, v) - 1.0)))
        if dev > UNIT_NORM_TOL:
            raise ValueError(f"vectors must be unit-norm: worst deviation {dev:.3e}")
        if np.unique(v, axis=0).shape[0] != v.shape[0]:
            raise ValueError("vectors must be pairwise distinct")

    def __len__(self) -> int:
        return self.vectors.shape[0]


def coherence_euclidean(d: Dictionary) -> float:
    """Largest |<g, h>| over distinct pairs; Euclidean spaces only."""
    if d.space.p != 2.0:
        raise ValueError("Euclidean coherence requires p = 2")
    if len(d) < 2:
        raise ValueError("coherence needs at least two vectors")
    g = d.vectors @ d.vectors.T
    np.fill_diagonal(g, 0.0)
    return float(np.max(np.abs(g)))


def functional_matrix(d: Dictionary) -> np.ndarray:
    """Rows are the norming-functional coordinates of each dictionary vector."""
    return norming_coords(d.space, d.vectors)


def coherence_banach(d: Dictionary) -> float:
    """Largest |F_g(h)| over ordered pairs of distinct vectors, 1 < p < inf.

    F_g is the unique norming functional of g; the two directions (g, h) and
    (h, g) can differ when p != 2, so the maximum runs over ordered pairs.
    """
    if not d.space.smooth:
        raise ValueError("coherence via norming functionals requires 1 < p < inf")
    if len(d) < 2:
        raise ValueError("coherence needs at least two vectors")
    c = functional_matrix(d) @ d.vectors.T
    np.fill_diagonal(c, 0.0)
    return float(np.max(np.abs(c)))


@dataclass(frozen=True)
class CoherenceMatrix:
    """Cross-product matrix c_ij = F_{g_i}(g_j): unit diagonal, rank at most d."""

    entries: np.ndarray

    def numeric_rank(self, ratio: float = 1e-9) -> int:
        """Count of singular values above ratio times the largest."""
        s = np.linalg.svd(self.entries, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > ratio * s[0]))


def coherence_matrix(d: Dictionary) -> CoherenceMatrix:
    """N x N matrix of functional values F_{g_i}(g_j) = <w_i, g_j>.

    The rows are combinations of the d coordinate slices of the functional
    matrix, so the rank never exceeds d.
    """
    if not d.space.smooth:
        raise ValueError("coherence matrix requires 1 < p < inf")
    if len(d) < 2:
        raise ValueError("coherence matrix needs at least two vectors")
    c = functional_matrix(d) @ d.vectors.T
    dev = float(np.max(np.abs(np.diag(c) - 1.0)))
    if dev > 1e-12:
        raise ValueError(f"coherence-matrix diagonal deviates from 1 by {dev:.3e}")
    return CoherenceMatrix(entries=c)


def greedy_maximal_dictionary(
    space: LpSpace,
    mu: float,
    seed: int,
    saturation_trials: int = 2000,
) -> Dictionary:
    """Grow a dictionary by admitting random sphere candidates until saturated.

    A candidate x is admitted when every incumbent g keeps both |F_x(g)| and
    |F_g(x)| at or below mu (a single inner product when p = 2), so the
    coherence bound M(D) <= mu holds throughout; near-duplicates of an
    incumbent are rejected. Construction stops after saturation_trials
    consecutive rejections - a stopping heuristic, not a maximality proof;
    certify_maximality probes the result empirically.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not space.smooth:
        raise ValueError("greedy construction requires 1 < p < inf")
    if saturation_trials < 1:
        raise ValueError("saturation_trials must be positive")
    from .verify import nearest  # deferred: verify imports this module

    euclidean = space.p == 2.0
    rng = np.random.default_rng(seed)
    vecs: list[np.ndarray] = []
    funcs: list[np.ndarray] = []
    trials = 0
    rejected = 0
    while rejected < saturation_trials:
        x = sphere_from_rng(space, 1, rng)[0]
        trials += 1
        if not vecs:
            admit = True
        else:
            v = np.asarray(vecs)
            if euclidean:
                admit = float(np.max(np.abs(v @ x))) <= mu
            else:
                fx = norming_coords(space, x[None, :])[0]
                w = np.asarray(funcs)
                admit = float(np.max(np.abs(v @ fx))) <= mu and float(np.max(np.abs(w @ x))) <= mu
            # the duplicate scan runs only on the few candidates the coherence test admits
            admit = admit and nearest(space, x, v)[1][0] >= DUPLICATE_TOL
        if admit:
            vecs.append(x)
            if not euclidean:
                funcs.append(norming_coords(space, x[None, :])[0])
            rejected = 0
        else:
            rejected += 1
    out = Dictionary(space=space, vectors=np.asarray(vecs), trials_used=trials)
    if len(out) >= 2:
        # post-hoc recheck of the coherence invariant
        m = coherence_euclidean(out) if euclidean else coherence_banach(out)
        if m > mu + 1e-12:
            raise RuntimeError(f"greedy admission violated the coherence bound: {m} > {mu}")
    return out
