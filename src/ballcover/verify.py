"""Coverage certification by seeded sampling and adversarial ascent, the
zero-sum coordinate selector, uncovered-point witnesses, the cube-vertex
count argument for l_inf, and empirical dictionary-maximality certification.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.spatial.distance import cdist

from .coverings import BallCovering
from .dictionaries import Dictionary, _Admission
from .spaces import LpSpace, ball_from_rng, norm, norms, sphere_from_rng

__all__ = [
    "PASS_TOL",
    "ADVERSARIAL_TOL",
    "CoverageReport",
    "VertexCoverReport",
    "MaximalityRepairError",
    "check_point",
    "nearest",
    "min_distances",
    "certify_sampling",
    "adversarial_search",
    "select_positive_entry",
    "uncovered_witness",
    "affine_hull_distance",
    "linf_vertex_check",
    "certify_maximality",
    "harden_dictionary",
    "simplex_dichotomy_check",
]

PASS_TOL = 1e-12
ADVERSARIAL_TOL = 1e-9
# float64 entries per block of the nearest-center kernel, so that a block's
# temporaries fit together in a 2 MiB L2 cache
_BLOCK_ENTRIES = 1 << 18
# sphere samples drawn at once by certify_maximality
_MAXIMALITY_BATCH = 1024
# rounds after which harden_dictionary gives up
_HARDEN_MAX_ROUNDS = 500


def nearest(space: LpSpace, xs, centers) -> tuple[np.ndarray, np.ndarray]:
    """Index of and lp distance to the nearest center, for each row of xs.

    Ties break to the lowest index. Rows go through in blocks whose
    temporaries together fit in the L2 cache. For p = 2 one GEMM score
    |c|^2 - 2 x.c selects the center, and the distance is then computed
    directly from x - c, so the cancellation in the score never reaches a
    margin. For other finite p the power sums sum_k |x_k - c_k|^p are
    accumulated one coordinate at a time and compared, and the root is
    taken once per row. For p = inf the block goes through cdist's
    Chebyshev distance.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    (n, d), m = xs.shape, centers.shape[0]
    if m < 1 or centers.shape[1] != d:
        raise ValueError(f"need (m >= 1, {d}) centers, got {centers.shape}")
    p = space.p
    if math.isinf(p):
        width = m  # cdist's distances
    elif p == 2.0:
        width = m + d  # scores, then the differences to the selected centers
        sq = np.einsum("ij,ij->i", centers, centers)
    else:
        width = 2 * m  # power sums and one term
    rows = max(1, min(n, _BLOCK_ENTRIES // width))
    if math.isfinite(p):
        coords = np.ascontiguousarray(centers.T)
        buf = np.empty((rows, m))  # scores for p = 2, else power sums
        term = None if p == 2.0 else np.empty_like(buf)
    index = np.empty(n, dtype=np.intp)
    dist = np.empty(n)
    for lo in range(0, n, rows):
        x = xs[lo : lo + rows]
        r = x.shape[0]
        i = index[lo : lo + r]
        if math.isinf(p):
            block = cdist(x, centers, metric="chebyshev")
            i[:] = block.argmin(axis=1)
            dist[lo : lo + r] = block[np.arange(r), i]
        elif p == 2.0:
            score = np.matmul(x, coords, out=buf[:r])
            score *= -2.0
            score += sq
            i[:] = score.argmin(axis=1)
            # coordinates along axis 0, so that the sum runs in coordinate order as cdist's does
            diff = coords.take(i, axis=1)
            diff -= x.T
            diff *= diff
            dist[lo : lo + r] = np.sqrt(np.add.reduce(diff, axis=0))
        else:
            sums, t = buf[:r], term[:r]
            sums.fill(0.0)
            for k in range(d):
                np.subtract(x[:, k, None], coords[k], out=t)
                if p == 4.0:
                    np.square(t, out=t)
                    np.square(t, out=t)
                else:
                    np.abs(t, out=t)
                    np.power(t, p, out=t)
                sums += t
            i[:] = sums.argmin(axis=1)
            dist[lo : lo + r] = sums[np.arange(r), i] ** (1.0 / p)
    return index, dist


def min_distances(cov: BallCovering, xs) -> np.ndarray:
    """Distance from each row of xs to its nearest center of cov, as nearest()
    computes it: never from the p = 2 selection score, always from x - c."""
    return nearest(cov.space, xs, cov.centers)[1]


def check_point(cov: BallCovering, x) -> float:
    """Signed margin radius - min_j ||x - c_j||; positive means strictly inside."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cov.space.d,):
        raise ValueError(f"expected a vector of length {cov.space.d}, got shape {x.shape}")
    return float(cov.radius - min_distances(cov, x[None, :])[0])


@dataclass
class CoverageReport:
    """Outcome of sampled coverage certification."""

    samples_tested: int
    worst_margin: float
    failure_witness: np.ndarray | None
    seed: int
    elapsed: float
    passed: bool


def certify_sampling(cov: BallCovering, n_ball: int, n_sphere: int, seed: int) -> CoverageReport:
    """Sample the ball interior and the sphere; report the worst signed margin.

    Sphere points stress the binding constraints (the proof margins bind at
    the boundary). Closed coverings pass at margin >= -1e-12; open coverings
    need strictly positive margins. The first failing sample, if any, is the
    witness.
    """
    if n_ball < 0 or n_sphere < 0 or n_ball + n_sphere < 1:
        raise ValueError("need at least one sample")
    start = time.perf_counter()
    child = np.random.SeedSequence(seed).spawn(2)
    parts = []
    if n_ball:
        parts.append(ball_from_rng(cov.space, n_ball, np.random.default_rng(child[0])))
    if n_sphere:
        parts.append(sphere_from_rng(cov.space, n_sphere, np.random.default_rng(child[1])))
    xs = np.vstack(parts)
    margins = cov.radius - min_distances(cov, xs)
    worst = float(np.min(margins))
    # phrased so that a NaN margin fails
    bad = ~(margins >= -PASS_TOL) if cov.closed else ~(margins > 0.0)
    any_bad = bool(bad.any())
    return CoverageReport(
        samples_tested=xs.shape[0],
        worst_margin=worst,
        failure_witness=xs[int(np.argmax(bad))].copy() if any_bad else None,
        seed=seed,
        elapsed=time.perf_counter() - start,
        passed=not any_bad,
    )


def _norm_gradient(space: LpSpace, z: np.ndarray) -> np.ndarray:
    # rows: subgradient of the lp norm at z; zero rows get a zero subgradient
    lengths = norms(space, z)
    out = np.zeros_like(z)
    ok = lengths > 0.0
    if math.isinf(space.p):
        idx = np.argmax(np.abs(z), axis=1)
        rows = np.arange(z.shape[0])
        out[rows, idx] = np.sign(z[rows, idx])
        out[~ok] = 0.0
        return out
    p = space.p
    out[ok] = np.sign(z[ok]) * np.abs(z[ok]) ** (p - 1.0) / lengths[ok, None] ** (p - 1.0)
    return out


def _ascend(cov: BallCovering, restarts: int, steps: int, seed: int):
    # projected subgradient ascent of min-center-distance over the unit
    # sphere; returns the per-restart best points and distances
    space = cov.space
    x = sphere_from_rng(space, restarts, np.random.default_rng(seed))
    best_pts = x.copy()
    index, best_vals = nearest(space, x, cov.centers)
    for step in range(1, steps + 1):
        grad = _norm_gradient(space, x - cov.centers[index])
        x = x + (0.1 / math.sqrt(step)) * grad
        x = x / norms(space, x)[:, None]
        index, vals = nearest(space, x, cov.centers)
        improved = vals > best_vals
        best_vals[improved] = vals[improved]
        best_pts[improved] = x[improved]
    return best_pts, best_vals


def adversarial_search(
    cov: BallCovering, restarts: int, steps: int, seed: int
) -> tuple[np.ndarray, float]:
    """Projected subgradient ascent of x -> min_j ||x - c_j|| over the unit sphere.

    Returns (point, margin): the sphere point with the largest min-distance
    found and its signed margin radius - distance. Step size 0.1/sqrt(step).
    Each step makes one nearest() query: its distances score the new points
    and its indices give the centers the next step moves away from;
    nearest-center ties break to the lowest index.
    """
    if restarts < 1 or steps < 1:
        raise ValueError("restarts and steps must be positive")
    pts, vals = _ascend(cov, restarts, steps, seed)
    i = int(np.argmax(vals))
    return pts[i].copy(), float(cov.radius - vals[i])


def select_positive_entry(y) -> int:
    """Smallest index k with y_k >= ||y||_2 / (2(N-1)) in a zero-sum vector.

    Such an entry always exists when the entries sum to zero: otherwise the
    positive part would total less than ||y||_2 / 2 and the l1 norm would
    fall below the l2 norm.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need a vector with at least two entries")
    length = float(np.linalg.norm(y))
    if length == 0.0:
        raise ValueError("zero vector")
    if abs(float(np.sum(y))) > 1e-10 * length:
        raise ValueError("entries must sum to zero")
    hits = np.nonzero(y >= length / (2.0 * (y.size - 1)))[0]
    if hits.size == 0:
        raise RuntimeError("no qualifying entry; the zero-sum precondition must have failed")
    return int(hits[0])


def affine_hull_distance(point, centers) -> float:
    """Euclidean distance from point to the affine hull of the given centers."""
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    v = np.asarray(point, dtype=float) - c[0]
    dirs = c[1:] - c[0]
    if dirs.shape[0] == 0:
        return float(np.linalg.norm(v))
    _, s, vt = np.linalg.svd(dirs, full_matrices=False)
    rank = int(np.sum(s > max(dirs.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)))
    if rank == 0:
        return float(np.linalg.norm(v))
    basis = vt[:rank]
    return float(np.linalg.norm(v - basis.T @ (basis @ v)))


def uncovered_witness(space: LpSpace, centers) -> np.ndarray:
    """Unit vector at lp distance >= 1 from each of exactly d given centers.

    Takes a functional w with ||w||_q = 1 vanishing on all differences of the
    centers, maps it to its norming vector z in the primal space
    (z_i = sign(w_i) |w_i|^(q-1), so ||z||_p = 1 and w(z) = 1), and picks the
    sign of z with |w(z - c_1)| >= 1. Every center c then satisfies
    ||z - c|| >= |w(z - c)| >= 1, as does the centers' whole affine hull.
    """
    if not space.smooth:
        raise ValueError("requires 1 < p < inf")
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if c.shape != (space.d, space.d):
        raise ValueError(f"need exactly {space.d} centers of dimension {space.d}, got {c.shape}")
    dirs = c[1:] - c[0]
    if dirs.shape[0] == 0:
        annihilator = np.identity(space.d)
    else:
        annihilator = null_space(dirs)
        if annihilator.shape[1] == 0:
            raise RuntimeError("no annihilator direction found")
    q = space.q
    w = annihilator[:, 0]
    w = w / np.linalg.norm(w, ord=q)
    candidate = np.sign(w) * np.abs(w) ** (q - 1.0)  # unit in lp since (q-1) p = q
    offset = float(w @ c[0])
    for z in (candidate, -candidate):
        if abs(float(w @ z) - offset) >= 1.0 - 1e-12:
            break
    else:
        raise RuntimeError("neither sign of the witness separates from the affine hull")
    if abs(norm(space, z) - 1.0) > 1e-12:
        raise RuntimeError("witness lost unit norm")
    closest = float(nearest(space, z, c)[1][0])
    if closest < 1.0 - 1e-9:
        raise RuntimeError(f"witness construction failed: nearest center at distance {closest}")
    if space.p == 2.0 and affine_hull_distance(z, c) < 1.0 - 1e-9:
        raise RuntimeError("witness sits too close to the affine hull")
    return z


@dataclass
class VertexCoverReport:
    """Result of the two-sided cube-vertex covering check in l_inf."""

    d: int
    center_count: int
    samples_tested: int
    min_sample_margin: float
    samples_covered: bool
    centers_tested: int
    max_vertices_per_ball: int
    vertex_pair_distance: float
    seed: int


def linf_vertex_check(
    d: int, n_samples: int = 10000, n_centers: int = 100, seed: int = 0
) -> VertexCoverReport:
    """Check both directions of the 2**d covering count for the l_inf ball.

    (a) the 2**d half-vertex centers s/2, s in {-1, 1}**d, cover sampled
    points of the unit cube with strictly positive margin at open radius 1;
    (b) an open l_inf ball of radius 1 contains at most one cube vertex of
    {-1, 1}**d, checked exhaustively for n_centers random ball centers; two
    distinct vertices differ by exactly 2 in some coordinate, so at least
    2**d balls are necessary.
    """
    if not 1 <= d <= 20:
        raise ValueError(f"d must lie in [1, 20], got {d}")
    space = LpSpace(d, math.inf)
    vertices = ((np.arange(1 << d)[:, None] >> np.arange(d)[None, :]) & 1) * 2.0 - 1.0
    cov = BallCovering(
        space, 0.5 * vertices, 1.0, closed=False, provenance=f"linf-vertices(d={d})"
    )
    rng = np.random.default_rng(seed)
    samples = ball_from_rng(space, n_samples, rng)
    margins = cov.radius - min_distances(cov, samples)
    min_margin = float(np.min(margins))

    ball_centers = rng.uniform(-2.0, 2.0, size=(n_centers, d))
    max_in_ball = 0
    for center in ball_centers:
        inside = np.max(np.abs(vertices - center[None, :]), axis=1) < 1.0
        max_in_ball = max(max_in_ball, int(np.count_nonzero(inside)))

    if 1 << d <= 1024:
        pair = cdist(vertices, vertices, metric="chebyshev")
        np.fill_diagonal(pair, 2.0)
        pair_distance = float(np.min(pair))
    else:
        pair_distance = 2.0  # distinct sign vectors differ by exactly 2 somewhere

    return VertexCoverReport(
        d=d,
        center_count=1 << d,
        samples_tested=n_samples,
        min_sample_margin=min_margin,
        samples_covered=bool(min_margin > 0.0),
        centers_tested=n_centers,
        max_vertices_per_ball=max_in_ball,
        vertex_pair_distance=pair_distance,
        seed=seed,
    )


class MaximalityRepairError(RuntimeError):
    """A sampled counterexample cannot be admitted without breaking M(D) <= mu.

    Carries the offending point and the dictionary as augmented so far, so a
    pipeline can record the verdict and continue with the best available
    dictionary.
    """

    def __init__(self, message: str, point: np.ndarray, dictionary: Dictionary):
        super().__init__(message)
        self.point = point
        self.dictionary = dictionary


def certify_maximality(
    dictionary: Dictionary,
    mu: float,
    n: int,
    seed: int,
    max_augmentations: int | None = None,
) -> tuple[bool, Dictionary]:
    """Probe dictionary maximality on sphere samples, admitting counterexamples.

    A sample x with max_g |F_x(g)| <= mu shows the dictionary is not maximal;
    it is admitted (when that keeps the coherence bound, i.e. also
    |F_g(x)| <= mu for every g) and the clean-sample count restarts. Returns
    (True, dictionary) after n consecutive clean samples, or
    (False, dictionary) when max_augmentations runs out first. A
    counterexample failing the two-sided admission test raises
    MaximalityRepairError: the dictionary cannot be repaired this way.
    """
    core = _Admission(dictionary.space, mu, dictionary.vectors)
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    clean = 0
    augmented = 0
    while clean < n:
        count = int(min(_MAXIMALITY_BATCH, n - clean))
        xs = sphere_from_rng(core.space, count, rng)
        fxs = core.functionals(xs)
        bad = np.nonzero(core.one_sided(fxs) <= mu)[0]
        if bad.size == 0:
            clean += count
            continue
        i = int(bad[0])
        x = xs[i]
        if not core.euclidean and float(core.reverse(x[None, :])[0]) > mu:
            raise MaximalityRepairError(
                "counterexample is not two-sided admissible; augmentation cannot repair this dictionary",
                point=x,
                dictionary=core.dictionary(dictionary.trials_used),
            )
        if max_augmentations is not None and augmented >= max_augmentations:
            return False, core.dictionary(dictionary.trials_used)
        core.add(x, fxs[i])
        augmented += 1
        clean = 0
    return True, core.dictionary(dictionary.trials_used)


def harden_dictionary(
    dictionary: Dictionary,
    mu: float,
    build_cover,
    restarts: int = 100,
    steps: int = 200,
    seed: int = 0,
    clean_rounds: int = 5,
) -> tuple[bool, Dictionary]:
    """Augment a dictionary until adversarial search stops finding uncovered points.

    Sampling certification cannot see the tiny-measure caps that projected
    ascent finds reliably, so this closes the gap: each round builds the
    cover (build_cover: Dictionary -> BallCovering), runs the ascent from
    fresh restarts, and admits every violating endpoint that keeps the
    coherence bound (an uncovered sphere point always satisfies the
    one-sided bound max_g |F_x(g)| < mu; in the Euclidean case it is
    automatically two-sided admissible). Certified when clean_rounds
    consecutive searches with distinct seeds find no violation; returns
    (False, dictionary) if a violation is not admissible or 500 rounds pass
    without that.
    """
    core = _Admission(dictionary.space, mu, dictionary.vectors)
    clean = 0
    for round_index in range(_HARDEN_MAX_ROUNDS):
        current = core.dictionary(dictionary.trials_used)
        cov = build_cover(current)
        pts, vals = _ascend(cov, restarts, steps, seed + round_index)
        violating = np.nonzero(vals > cov.radius + ADVERSARIAL_TOL)[0]
        if violating.size == 0:
            clean += 1
            if clean >= clean_rounds:
                return True, current
            continue
        clean = 0
        order = violating[np.argsort(-vals[violating])]
        for i in order:
            x = pts[i] / norm(core.space, pts[i])
            fx = core.functionals(x[None, :])
            if float(core.one_sided(fx)[0]) > mu:
                continue  # deepest endpoint already fixed this one's basin
            if not core.euclidean and float(core.reverse(x[None, :])[0]) > mu:
                return False, core.dictionary(dictionary.trials_used)
            core.add(x, fx[0])
    return False, core.dictionary(dictionary.trials_used)


def simplex_dichotomy_check(points, tol: float = PASS_TOL) -> np.ndarray:
    """Per-point dichotomy for the unit-radius simplex cover in l2.

    With a = 1/(2d): either some coordinate y_k > a/2 puts the point strictly
    inside the unit ball at a e_k, or the squared distance to the center
    -a (1, ..., 1) is at most 1 - 1/(4d) + tol. Returns a boolean row per
    point.
    """
    y = np.atleast_2d(np.asarray(points, dtype=float))
    d = y.shape[1]
    a = 1.0 / (2.0 * d)
    sq = np.sum(y * y, axis=1)
    dist_axis_sq = sq[:, None] - 2.0 * a * y + a * a
    case_axis = np.any((y > 0.5 * a) & (dist_axis_sq < 1.0), axis=1)
    dist_last_sq = sq + 2.0 * a * np.sum(y, axis=1) + d * a * a
    case_last = dist_last_sq <= 1.0 - 1.0 / (4.0 * d) + tol
    return case_axis | case_last
