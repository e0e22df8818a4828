"""Dictionaries of unit vectors: coherence and the cross matrix of norming
functionals, and greedy construction of maximal incoherent dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import LpSpace, norming_coords, norms, sphere_from_rng

__all__ = [
    "Dictionary",
    "coherence_banach",
    "coherence_matrix",
    "numeric_rank",
    "greedy_maximal_dictionary",
]

UNIT_NORM_TOL = 1e-12
DUPLICATE_TOL = 1e-9
RANK_RATIO = 1e-9


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
        if not np.all(np.isfinite(v)):
            raise ValueError("vectors must be finite")
        dev = float(np.max(np.abs(norms(self.space, v) - 1.0)))
        if not (dev <= UNIT_NORM_TOL):
            raise ValueError(f"vectors must be unit-norm: worst deviation {dev:.3e}")
        if np.unique(v, axis=0).shape[0] != v.shape[0]:
            raise ValueError("vectors must be pairwise distinct")

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _cross(d: Dictionary) -> np.ndarray:
    """N x N matrix of functional values F_{g_i}(g_j), 1 < p < inf."""
    if not d.space.smooth:
        raise ValueError("coherence via norming functionals requires 1 < p < inf")
    if len(d) < 2:
        raise ValueError("coherence needs at least two vectors")
    return norming_coords(d.space, d.vectors) @ d.vectors.T


def coherence_banach(d: Dictionary) -> float:
    """Largest |F_g(h)| over ordered pairs of distinct vectors, 1 < p < inf.

    F_g is the unique norming functional of g; the two directions (g, h) and
    (h, g) can differ when p != 2, so the maximum runs over ordered pairs.
    At p = 2 this is the Euclidean coherence max |<g, h>|.
    """
    c = _cross(d)
    np.fill_diagonal(c, 0.0)
    return float(np.max(np.abs(c)))


def coherence_matrix(d: Dictionary) -> np.ndarray:
    """Cross matrix c_ij = F_{g_i}(g_j): unit diagonal, rank at most d.

    The rows are combinations of the d coordinate slices of the functionals,
    so the rank never exceeds d.
    """
    c = _cross(d)
    dev = float(np.max(np.abs(np.diag(c) - 1.0)))
    if dev > 1e-12:
        raise ValueError(f"coherence-matrix diagonal deviates from 1 by {dev:.3e}")
    return c


def numeric_rank(m: np.ndarray) -> int:
    """Count of singular values above RANK_RATIO times the largest."""
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RATIO * s[0]))


class _Admission:
    """Incumbents of an incoherent dictionary under construction, with the
    scores of the admission test M(D) <= mu.

    Holds the vectors and their norming functionals as plain arrays, one row
    each, grown by one row per admission; for p = 2 the functionals are the
    vectors themselves. Candidates are scored in blocks: the one-sided score
    max_g |F_x(g)| takes the candidates' functionals, the reverse score
    max_g |F_g(x)| the candidates themselves. With no incumbents both are 0.
    """

    def __init__(self, space: LpSpace, mu: float, vectors=()):
        if not space.smooth:
            raise ValueError("dictionary admission requires 1 < p < inf")
        if not 0.0 < mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {mu}")
        self.space = space
        self.mu = mu
        self.euclidean = space.p == 2.0
        self.vectors = np.asarray(vectors, dtype=float).reshape(-1, space.d)
        self._funcs = self.functionals(self.vectors)

    def functionals(self, xs: np.ndarray) -> np.ndarray:
        """Norming-functional coordinates of the rows of xs."""
        return xs if self.euclidean else norming_coords(self.space, xs)

    def one_sided(self, fxs: np.ndarray) -> np.ndarray:
        """max_g |F_x(g)| for each candidate x, given its functional's coordinates."""
        return np.max(np.abs(fxs @ self.vectors.T), axis=1, initial=0.0)

    def reverse(self, xs: np.ndarray) -> np.ndarray:
        """max_g |F_g(x)| for each candidate x."""
        return np.max(np.abs(xs @ self._funcs.T), axis=1, initial=0.0)

    def add(self, x: np.ndarray, fx: np.ndarray) -> None:
        """Admit x, whose functional has coordinates fx."""
        self.vectors = np.vstack([self.vectors, x])
        self._funcs = self.vectors if self.euclidean else np.vstack([self._funcs, fx])

    def admit(self, x: np.ndarray, fx: np.ndarray) -> bool:
        """Admit x, whose one-sided score the caller has found <= mu, unless
        some incumbent g has |F_g(x)| > mu; for p = 2 the two scores agree."""
        if not self.euclidean and float(self.reverse(x[None, :])[0]) > self.mu:
            return False
        self.add(x, fx)
        return True

    def dictionary(self, trials_used: int | None) -> Dictionary:
        return Dictionary(space=self.space, vectors=self.vectors.copy(), trials_used=trials_used)


# candidates drawn and scored together by the greedy build
GREEDY_BLOCK = 256
# consecutive rejections after which the greedy build stops
SATURATION_TRIALS = 2000


def greedy_maximal_dictionary(space: LpSpace, mu: float, seed: int) -> Dictionary:
    """Grow a dictionary by admitting random sphere candidates until saturated.

    A candidate x is admitted when every incumbent g keeps both |F_x(g)| and
    |F_g(x)| at or below mu (a single inner product when p = 2), so the
    coherence bound M(D) <= mu holds throughout; near-duplicates of an
    incumbent are rejected. Candidates are drawn in blocks of GREEDY_BLOCK
    and admitted in draw order: a block is scored against the incumbents
    at once, and each admission folds its own scores into the rest of the
    block, so every candidate meets the same test against every vector
    admitted before it. Construction stops after SATURATION_TRIALS
    consecutive rejections - a stopping heuristic, not a maximality proof;
    certify_maximality probes the result empirically. trials_used counts
    the candidates examined, not the rest of the last block.
    """
    core = _Admission(space, mu)
    rng = np.random.default_rng(seed)
    trials = 0
    rejected = 0
    while rejected < SATURATION_TRIALS:
        xs = sphere_from_rng(space, GREEDY_BLOCK, rng)
        fxs = core.functionals(xs)
        score = core.one_sided(fxs)
        if not core.euclidean:
            np.maximum(score, core.reverse(xs), out=score)
        j = 0
        while rejected < SATURATION_TRIALS:
            # jump to the next candidate that passes; the ones skipped are rejections
            passing = np.flatnonzero(score[j:] <= mu)
            skip = int(passing[0]) if passing.size else GREEDY_BLOCK - j
            skip = min(skip, SATURATION_TRIALS - rejected)
            trials += skip
            rejected += skip
            j += skip
            if j == GREEDY_BLOCK or rejected == SATURATION_TRIALS:
                break
            x, fx = xs[j], fxs[j]
            j += 1
            trials += 1
            if len(core.vectors) and np.min(norms(space, core.vectors - x)) < DUPLICATE_TOL:
                rejected += 1
                continue
            core.add(x, fx)
            rejected = 0
            # fold the new vector into the scores of the rest of the block
            rest = np.abs(fxs[j:] @ x)
            if not core.euclidean:
                np.maximum(rest, np.abs(xs[j:] @ fx), out=rest)
            np.maximum(score[j:], rest, out=score[j:])
    out = core.dictionary(trials)
    if len(out) >= 2:
        # post-hoc recheck of the coherence invariant, phrased so that NaN fails
        m = coherence_banach(out)
        if not (m <= mu + 1e-12):
            raise RuntimeError(f"greedy admission violated the coherence bound: {m} > {mu}")
    return out
