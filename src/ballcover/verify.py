"""Coverage certification by seeded sampling and adversarial ascent,
uncovered-point witnesses, the cube-vertex count argument for l_inf,
empirical dictionary-maximality certification, and the dictionary pipeline.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .coverings import BallCovering
from .dictionaries import Dictionary, _Admission, greedy_maximal_dictionary
from .spaces import (
    _BLOCK_ENTRIES,
    LpSpace,
    _fill,
    _norming,
    ball_from_rng,
    norm,
    norms,
    sphere_from_rng,
)

__all__ = [
    "PASS_TOL",
    "ADVERSARIAL_TOL",
    "CoverageReport",
    "VertexCoverReport",
    "covered",
    "nearest",
    "min_distances",
    "certify_sampling",
    "adversarial_search",
    "uncovered_witness",
    "linf_vertex_check",
    "certify_maximality",
    "harden_dictionary",
    "certified_dictionary_cover",
    "simplex_dichotomy_check",
]

PASS_TOL = 1e-12
ADVERSARIAL_TOL = 1e-9
# sphere samples drawn at once by certify_maximality
_MAXIMALITY_BATCH = 1024
# rounds after which harden_dictionary gives up
_HARDEN_MAX_ROUNDS = 500


# process id -> the one worker thread that runs beside the caller, or None on
# one CPU; a forked child has none of its parent's threads, so it makes its own
_WORKERS: dict[int, ThreadPoolExecutor | None] = {}
_WORKERS_LOCK = threading.Lock()


def _worker() -> ThreadPoolExecutor | None:
    pid = os.getpid()
    with _WORKERS_LOCK:
        if pid not in _WORKERS:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # not on every platform
                cpus = os.cpu_count() or 1
            _WORKERS.clear()
            _WORKERS[pid] = ThreadPoolExecutor(1, thread_name_prefix="ballcover") if cpus >= 2 else None
        return _WORKERS[pid]


def _in_two(parts: list, run) -> None:
    # run(first half of parts, 0) here while the worker runs run(the rest, 1),
    # the caller's half the larger; run(parts, 0) alone with one part or one
    # CPU. run must not submit to the worker, and each part must write only
    # its own outputs. numpy's error state belongs to a thread (a contextvar
    # in numpy 2), so the worker takes the caller's.
    worker = _worker() if len(parts) > 1 else None
    if worker is None:
        run(parts, 0)
        return
    half = (len(parts) + 1) // 2
    state = np.geterr()

    def there():
        with np.errstate(**state):
            run(parts[half:], 1)

    future = worker.submit(there)
    try:
        run(parts[:half], 0)
    finally:
        wait((future,))  # also when this half raised: no task outlives the call
    future.result()


def cdist(xa, xb, **kwargs) -> np.ndarray:
    """scipy.spatial.distance.cdist, imported on the first call, so that
    importing ballcover loads no SciPy; linf_vertex_check calls it."""
    from scipy.spatial.distance import cdist as scipy_cdist

    return scipy_cdist(xa, xb, **kwargs)


def _coordinate_sum(terms: np.ndarray) -> np.ndarray:
    # sum over axis 0 in coordinate order, as cdist does; numpy would sum a
    # lone column pairwise, and accumulate keeps the order there too
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _raise_terms(terms: np.ndarray, p: float) -> None:
    # |x_k - c_k|^p in place, for finite p; at p = 2 and 4 as squares, which
    # np.power does not give bit for bit at 4
    if p == 2.0 or p == 4.0:
        np.square(terms, out=terms)
        if p == 4.0:
            np.square(terms, out=terms)
    else:
        np.abs(terms, out=terms)
        np.power(terms, p, out=terms)


def _nearest_to(space: LpSpace, centers):
    """The nearest-center query of nearest(), with the per-cover constants
    (the transposed centers, the score's weights for p = 2 and 4, a block
    buffer) built once, and one block function per cover."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    d = space.d
    if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] != d:
        raise ValueError(f"need (m >= 1, {d}) centers, got {centers.shape}")
    m, p = centers.shape[0], space.p
    inf_p = math.isinf(p)
    coords = np.ascontiguousarray(centers.T)
    # at p = 2 and 4, sum_k (x_k - c_k)^p is sum_k x_k^p, the same for every
    # center, plus a score: -p times the row powers (x at p = 2, [x^3, x^2, x]
    # at p = 4) times the weights (c, or c, -1.5 c^2 and c^3), plus
    # sum_k c_k^p. At p = 2 the weights are coords itself, so that a query
    # allocates no copy of the centers beside it. sum_k c_k^p is finite only
    # when every center and its lower powers are; where it is not, every
    # row's score would fail the check in scored(), so the cover goes
    # through the exact block at once.
    weights = None
    if p == 2.0:
        weights, half = coords, centers
    elif p == 4.0:
        square = coords * coords
        weights = np.concatenate([coords, -1.5 * square, square * coords])
        half = centers * centers
    if weights is not None:
        offset = np.einsum("ij,ij->i", half, half)
        if not np.isfinite(offset).all():
            weights = None
    # per row: in the exact block one term |x_k - c_k| per coordinate and
    # center; with the score, the scores and the row powers in the buffer
    # (p = 2 multiplies x itself), and the differences to the selected centers
    exact_rows = max(1, _BLOCK_ENTRIES // (d * m))
    if weights is None:
        block_rows, size = exact_rows, exact_rows * d * m
    else:
        width = m + (0 if p == 2.0 else 3 * d)
        block_rows = max(1, _BLOCK_ENTRIES // (width + d))
        size = block_rows * width
    # one buffer per thread; the worker's is allocated here, on its first use
    buffers = [np.empty(size)]

    def exact(x, buf) -> tuple[np.ndarray, np.ndarray]:
        r = x.shape[0]
        # a contiguous block, so that power runs numpy's contiguous loop at every size
        terms = buf[: d * r * m].reshape(d, r, m)
        np.subtract(x.T[:, :, None], coords[:, None, :], out=terms)
        if inf_p:
            np.abs(terms, out=terms)
        else:
            _raise_terms(terms, p)
        # the max propagates a NaN, unlike cdist's Chebyshev distance
        sums = terms.max(axis=0) if inf_p else _coordinate_sum(terms)
        i = sums.argmin(axis=1)
        least = sums[np.arange(r), i]
        return i, least if inf_p else least ** (1.0 / p)

    def scored(x, buf) -> tuple[np.ndarray, np.ndarray]:
        r = x.shape[0]
        powers = x
        if p == 4.0:
            powers = buf[r * m : r * (m + 3 * d)].reshape(r, 3 * d)
            powers[:, 2 * d :] = x
            np.multiply(x, x, out=powers[:, d : 2 * d])
            np.multiply(powers[:, d : 2 * d], x, out=powers[:, :d])
        score = np.matmul(powers, weights, out=buf[: r * m].reshape(r, m))
        score *= -p
        score += offset
        i = score.argmin(axis=1)
        # a NaN or inf row, or an overflow, leaves a NaN or an inf among the
        # row's scores, and so in their sum and in the block's sum of squares
        # (one BLAS call); such rows take the exact block's pick
        flat = score.reshape(-1)
        if not math.isfinite(flat @ flat):
            slow = np.flatnonzero(~np.isfinite(score.sum(axis=1)))
            for lo in range(0, slow.size, exact_rows):
                rows = slow[lo : lo + exact_rows]
                i[rows] = exact(x[rows], np.empty(d * rows.size * m))[0]
        # coordinates along axis 0, the axis _coordinate_sum adds along
        diff = coords.take(i, axis=1)
        diff -= x.T
        _raise_terms(diff, p)
        return i, _coordinate_sum(diff) ** (1.0 / p)

    block = exact if weights is None else scored

    def query(xs) -> tuple[np.ndarray, np.ndarray]:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.ndim != 2 or xs.shape[1] != d:
            raise ValueError(f"need rows of length {d}, got shape {xs.shape}")
        n = xs.shape[0]
        if n <= block_rows:
            # one block, whose arrays are the result: no buffers to fill, no parts to run
            return block(xs, buffers[0])
        index = np.empty(n, dtype=np.intp)
        dist = np.empty(n)

        def blocks(parts, k):
            for rows in parts:
                index[rows], dist[rows] = block(xs[rows], buffers[k])

        # contiguous slices, so that the ascent's many small queries copy nothing
        parts = [slice(lo, lo + block_rows) for lo in range(0, n, block_rows)]
        if len(buffers) == 1:
            buffers.append(np.empty(size))
        _in_two(parts, blocks)
        return index, dist

    return query


def nearest(space: LpSpace, xs, centers) -> tuple[np.ndarray, np.ndarray]:
    """Index of and lp distance to the nearest center, for each row of xs.

    Ties break to the lowest index. Rows go through in blocks whose
    temporaries together fit in the L2 cache. For p = 2 and p = 4 one GEMM
    score selects the center: sum_k (x_k - c_k)^p less the row's own
    sum_k x_k^p, i.e. |c|^2 - 2 x.c at p = 2, and at p = 4 the row powers
    [x^3, x^2, x] times the weights [-4c; 6c^2; -4c^3] plus sum_k c_k^4. The
    distance is then computed for the selected center only, directly from
    x - c with the exact block's terms, so the cancellation in the score
    never reaches a margin; the pick can differ from the exact block's only
    where two centers' power sums lie within the score's rounding. A cover
    whose sum_k c_k^p is not finite (a center that is not finite, or whose
    powers overflow) goes through the exact block, and so does each row
    whose scores are not all finite (NaN or inf rows, huge rows). For every
    other p the exact block holds every term |x_k - c_k|: for finite p
    their powers p are added in coordinate order and compared, and the root
    is taken once per row; for p = inf their max is the distance, so that a
    NaN propagates (cdist would drop it). The per-cover constants are built
    once per call, and once per ascent. A query whose rows fit in one block
    runs that block alone and returns its arrays. A term or score too large
    for a float is inf, and so is the distance, without a warning. The
    distance is summed in coordinate order, so it is not the bits of
    spaces.norms of x - c (a pairwise row sum, as np.linalg.norm), which the
    ascent's step takes for its subgradient; see adversarial_search.

    When two CPUs are available and a query has two blocks or more, a worker
    thread runs the later half of the blocks, with a block buffer of its
    own, while the calling thread runs the rest. The block boundaries do not
    depend on the split, and each row's result depends only on its own
    block, so the bits are those of running the blocks in turn, as on one
    CPU.
    """
    # once per call, not per block: each errstate costs microseconds
    with np.errstate(over="ignore", invalid="ignore"):
        return _nearest_to(space, centers)(xs)


def covered(cov: BallCovering, margins, tol: float = PASS_TOL):
    """The pass rule for signed margins radius - distance: a closed cover
    passes at margin >= -tol, an open one needs margin > 0. Phrased so that
    a NaN margin fails. Takes a float or an array of them."""
    return margins >= -tol if cov.closed else margins > 0.0


def min_distances(cov: BallCovering, xs) -> np.ndarray:
    """Distance from each row of xs to its nearest center of cov, as nearest()
    computes it: never from the p = 2 or 4 selection score, always from x - c."""
    return nearest(cov.space, xs, cov.centers)[1]


@dataclass
class CoverageReport:
    """Outcome of sampled coverage certification."""

    samples_tested: int
    worst_margin: float
    failure_witness: np.ndarray | None
    seed: int
    passed: bool


def certify_sampling(cov: BallCovering, n_ball: int, n_sphere: int, seed: int) -> CoverageReport:
    """Sample the ball interior and the sphere; report the worst signed margin.

    Sphere points stress the binding constraints (the proof margins bind at
    the boundary). Each margin passes or fails by covered(). The first
    failing sample, if any, is the witness.

    The n_ball ball rows come first, drawn from the first child stream of
    SeedSequence(seed), and the sphere rows from the second. When two CPUs
    are available and both counts are positive, a worker thread draws the
    ball rows into their part of one array while the calling thread draws
    the sphere rows. Each stream is its own generator, so neither its draws
    nor its bits depend on which thread runs it or when.
    """
    if n_ball < 0 or n_sphere < 0 or n_ball + n_sphere < 1:
        raise ValueError("need at least one sample")
    child = np.random.SeedSequence(seed).spawn(2)
    xs = np.empty((n_ball + n_sphere, cov.space.d))
    # each child stream fills its own rows, the ball's first
    streams = [(xs[n_ball:], child[1], False), (xs[:n_ball], child[0], True)]

    def draw(parts, _):
        for rows, stream, ball in parts:
            _fill(cov.space, rows, np.random.default_rng(stream), ball)

    _in_two([part for part in streams if part[0].shape[0]], draw)
    margins = cov.radius - min_distances(cov, xs)
    worst = float(np.min(margins))
    bad = ~covered(cov, margins)
    any_bad = bool(bad.any())
    return CoverageReport(
        samples_tested=xs.shape[0],
        worst_margin=worst,
        failure_witness=xs[int(np.argmax(bad))].copy() if any_bad else None,
        seed=seed,
        passed=not any_bad,
    )


def _norm_gradient(space: LpSpace, z: np.ndarray) -> np.ndarray:
    # rows: subgradient of the lp norm at z; rows of zero norm get a zero subgradient
    lengths = norms(space, z)
    ok = lengths > 0.0
    all_ok = bool(ok.all())
    if not all_ok:
        lengths = np.where(ok, lengths, 1.0)
    if math.isinf(space.p):
        out = np.zeros(z.shape)
        idx = np.argmax(np.abs(z), axis=1)
        rows = np.arange(z.shape[0])
        out[rows, idx] = np.sign(z[rows, idx])
    elif space.p == 2.0:
        # z / ||z||: the bits of _norming's sign(z) |z|^1 / ||z||^1, which maps
        # z_k = -0.0 to +0.0 (np.sign(-0.0) is +0.0); the 0.0 goes on z, as on
        # the quotient it would flip a -0.0 underflowed from ||z|| = inf
        out = z + 0.0
        out /= lengths[:, None]
    else:
        out = _norming(space.p, z, lengths)
    if not all_ok:
        out[~ok] = 0.0
    return out


def _count(n, what: str) -> int:
    # the one guard on sample counts and budgets, returning n as an int;
    # phrased so that NaN and inf fail, as a non-integer does, where a bare
    # `n < 1` lets them through
    if not (1 <= n < math.inf and int(n) == n):
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def _ascend(cov: BallCovering, restarts: int, steps: int, seeds):
    # projected subgradient ascent of min-center-distance over the unit
    # sphere, from `restarts` rows per seed stacked in seed order; returns
    # the per-row best points and distances. A step gathers each row's
    # center from the last query, moves x along _norm_gradient(x - c),
    # rescales it by norms and queries again. Every step is row-wise, so a
    # seed's rows come out as from an ascent of their own; only the p = 2 and
    # 4 selection score is a BLAS product, whose rounding may depend on the
    # rows beside it, and that can only change the pick within a tie.
    restarts, steps = _count(restarts, "restarts"), _count(steps, "steps")
    space, centers = cov.space, cov.centers
    # a C-ordered copy to gather rows from, as take copies all of an
    # F-ordered array (the frame covers'); the query keeps the cover's own
    # centers, whose |c|^2 is summed in their order
    rows = np.ascontiguousarray(centers)
    x = np.vstack([sphere_from_rng(space, restarts, np.random.default_rng(s)) for s in seeds])
    best_pts = x.copy()
    # a far center overflows its score's weights, a distance to inf and the
    # gradient to NaN (inf / inf), and a NaN distance never improves; once
    # per call, as errstate costs microseconds
    with np.errstate(over="ignore", invalid="ignore"):
        query = _nearest_to(space, centers)
        index, best_vals = query(x)
        for step in range(1, steps + 1):
            z = rows.take(index, axis=0)
            np.subtract(x, z, out=z)
            grad = _norm_gradient(space, z)
            grad *= 0.1 / math.sqrt(step)
            x += grad
            x /= norms(space, x)[:, None]
            index, vals = query(x)
            improved = vals > best_vals
            np.copyto(best_vals, vals, where=improved)
            np.copyto(best_pts, x, where=improved[:, None])
    return best_pts, best_vals


def adversarial_search(
    cov: BallCovering, restarts: int, steps: int, seed: int
) -> tuple[np.ndarray, float]:
    """Projected subgradient ascent of x -> min_j ||x - c_j|| over the unit sphere.

    Returns (point, margin): the sphere point with the largest min-distance
    found and its signed margin radius - distance. Step size 0.1/sqrt(step).
    A step takes z = x - c for each row's selected center c, adds the step
    size times the norm's subgradient at z (the norming functional
    sign(z_k) |z_k|^(p-1) / ||z||^(p-1), at p = inf the sign of the largest
    |z_k|, zero where ||z|| is 0 or NaN; at p = 2 computed as
    (z + 0.0) / ||z||, the same bits), and rescales the rows to the sphere.
    It then makes one nearest() query: its distances score the new points
    and its indices give the centers the next step moves away from;
    nearest-center ties break to the lowest index. The step's ||z|| is
    spaces.norms, a pairwise row sum, while the query's distance is summed
    in coordinate order as cdist sums it; from 8 coordinates on they can
    differ in the last bit, so neither replaces the other without changing
    the path or the margins. A center too far for a finite distance gives
    margin -inf, which fails, without a warning. A restarts or steps that is
    not a positive integer is a ValueError, raised before any draw.
    """
    pts, vals = _ascend(cov, restarts, steps, [seed])
    i = int(np.argmax(vals))
    return pts[i].copy(), float(cov.radius - vals[i])


def uncovered_witness(space: LpSpace, centers) -> np.ndarray:
    """Unit vector at lp distance >= 1 from each of exactly d given centers.

    Takes a functional w with ||w||_q = 1 vanishing on all differences of the
    centers, maps it to its norming vector z in the primal space
    (z_i = sign(w_i) |w_i|^(q-1), so ||z||_p = 1 and w(z) = 1), and picks the
    sign of z with |w(z - c_1)| >= 1. Every center c then satisfies
    ||z - c|| >= |w(z - c)| >= 1, as does the centers' whole affine hull.
    One SVD of the d - 1 differences gives w: their right singular vectors
    past the rank (singular values above max(shape) * eps times the largest)
    span the annihilator, never empty in R^d. For p = 2, z - c_1 projected
    onto them gives the distance from z to the hull. The point is checked
    against every center (and for p = 2 the hull) before it is returned; when
    rounding defeats the construction (centers many orders of magnitude
    apart) the check refuses it with ValueError.
    """
    if not space.smooth:
        raise ValueError("requires 1 < p < inf")
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if c.shape != (space.d, space.d):
        raise ValueError(f"need exactly {space.d} centers of dimension {space.d}, got {c.shape}")
    dirs = c[1:] - c[0]
    if dirs.shape[0] == 0:
        annihilator = np.identity(space.d)
    elif not np.isfinite(dirs).all():
        raise ValueError("array must not contain infs or NaNs")
    else:
        _, s, vt = np.linalg.svd(dirs)
        annihilator = vt[np.count_nonzero(s > max(dirs.shape) * np.finfo(float).eps * s[0]) :]
    q = space.q
    w = annihilator[0] / np.linalg.norm(annihilator[0], ord=q)
    candidate = np.sign(w) * np.abs(w) ** (q - 1.0)  # unit in lp since (q-1) p = q
    offset = float(w @ c[0])
    for z in (candidate, -candidate):
        if abs(float(w @ z) - offset) >= 1.0 - 1e-12:
            break
    else:
        raise ValueError("neither sign of the witness separates from the affine hull")
    if abs(norm(space, z) - 1.0) > 1e-12:
        raise ValueError("witness lost unit norm")
    closest = float(nearest(space, z, c)[1][0])
    if closest < 1.0 - 1e-9:
        raise ValueError(f"witness construction failed: nearest center at distance {closest}")
    if space.p == 2.0 and np.linalg.norm(annihilator @ (z - c[0])) < 1.0 - 1e-9:
        raise ValueError("witness sits too close to the affine hull")
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
    points of the unit cube with strictly positive margin at open radius 1.
    Each sample x is assigned its center: the l_inf distance
    max_k |x_k - s_k/2| is separable in s, so its minimum over s is
    max_k min(|x_k - 1/2|, |x_k + 1/2|) = max_k ||x_k| - 1/2|, attained at
    s = sign(x) (either sign where x_k = 0). The margin is 1 minus that, the
    exact distance to the nearest center, with no search over the centers.
    (b) an open l_inf ball of radius 1 contains at most one cube vertex of
    {-1, 1}**d, checked exhaustively for n_centers random ball centers; two
    distinct vertices differ by exactly 2 in some coordinate, so at least
    2**d balls are necessary.
    """
    if not 1 <= d <= 20:
        raise ValueError(f"d must lie in [1, 20], got {d}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if n_centers < 1:
        raise ValueError("need at least one ball center")
    space = LpSpace(d, math.inf)
    rng = np.random.default_rng(seed)
    samples = ball_from_rng(space, n_samples, rng)
    # ||x_k| - 1/2| rounds as |x_k - sign(x_k)/2| does, so these are the bits
    # of a nearest-center query; 1 - t is monotone, so the least margin is 1 - max
    gaps = np.abs(samples)
    gaps -= 0.5
    np.abs(gaps, out=gaps)
    min_margin = 1.0 - float(gaps.max())

    vertices = ((np.arange(1 << d)[:, None] >> np.arange(d)[None, :]) & 1) * 2.0 - 1.0
    ball_centers = rng.uniform(-2.0, 2.0, size=(n_centers, d))
    max_in_ball = 0
    rows = max(1, _BLOCK_ENTRIES >> d)
    for lo in range(0, n_centers, rows):
        inside = cdist(ball_centers[lo : lo + rows], vertices, metric="chebyshev") < 1.0
        max_in_ball = max(max_in_ball, int(np.count_nonzero(inside, axis=1).max()))

    # rows with entries +-1 and bit codes 0..2**d - 1 are the distinct sign
    # vectors, and two of them differ by exactly 2 somewhere; NaN if not shown
    codes = (vertices > 0.0).astype(np.int64) @ (1 << np.arange(d, dtype=np.int64))
    signs = np.all(np.abs(vertices) == 1.0) and np.array_equal(codes, np.arange(1 << d))
    pair_distance = 2.0 if signs else math.nan

    return VertexCoverReport(
        d=d,
        center_count=1 << d,
        samples_tested=n_samples,
        min_sample_margin=min_margin,
        samples_covered=min_margin > 0.0,  # open balls: the rule of covered()
        centers_tested=n_centers,
        max_vertices_per_ball=max_in_ball,
        vertex_pair_distance=pair_distance,
        seed=seed,
    )


def certify_maximality(dictionary: Dictionary, mu: float, n: int, seed: int) -> tuple[bool, Dictionary]:
    """Probe dictionary maximality on sphere samples, admitting counterexamples.

    A sample x with max_g |F_x(g)| <= mu shows the dictionary is not maximal;
    it is admitted (when that keeps the coherence bound, i.e. also
    |F_g(x)| <= mu for every g) and the clean-sample count restarts. Returns
    (True, dictionary) after n consecutive clean samples, or (False, the
    dictionary as augmented so far) at the first counterexample that fails
    the two-sided admission test: augmentation cannot repair the dictionary.
    n must be a positive integer.
    """
    n = _count(n, "sample count")
    core = _Admission(dictionary.space, mu, dictionary.vectors)
    rng = np.random.default_rng(seed)
    clean = 0
    while clean < n:
        count = min(_MAXIMALITY_BATCH, n - clean)
        xs = sphere_from_rng(core.space, count, rng)
        fxs = core.functionals(xs)
        bad = np.nonzero(core.one_sided(fxs) <= mu)[0]
        if bad.size == 0:
            clean += count
            continue
        i = int(bad[0])
        if not core.admit(xs[i], fxs[i]):
            return False, core.dictionary(dictionary.trials_used)
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
    ascent finds reliably, so this closes the gap: round k builds the cover
    (build_cover: Dictionary -> BallCovering), runs the ascent from fresh
    restarts drawn with seed + k, and admits every violating endpoint that
    keeps the coherence bound (an uncovered sphere point always satisfies
    the one-sided bound max_g |F_x(g)| < mu; in the Euclidean case it is
    automatically two-sided admissible). Certified when clean_rounds
    consecutive rounds find no violation; returns (False, dictionary) if a
    violation is not admissible or 500 rounds pass without that.

    A clean round leaves the cover as it is, so after one the rounds still
    needed run as one ascent with their restarts stacked. Their results are
    read in round order; at the first round with a violation the later
    rounds are dropped and the next round starts on the augmented cover.
    This gives the rounds and the dictionary of running every round alone.
    A clean_rounds, restarts or steps that is not a positive integer (0,
    -1, 1.5, NaN or inf) is a ValueError, raised before any cover or draw.
    """
    clean_rounds = _count(clean_rounds, "clean_rounds")
    restarts, steps = _count(restarts, "restarts"), _count(steps, "steps")
    core = _Admission(dictionary.space, mu, dictionary.vectors)
    clean = 0
    round_index = 0
    while round_index < _HARDEN_MAX_ROUNDS:
        current = core.dictionary(dictionary.trials_used)
        cov = build_cover(current)
        count = 1 if clean == 0 else min(clean_rounds - clean, _HARDEN_MAX_ROUNDS - round_index)
        seeds = range(seed + round_index, seed + round_index + count)
        all_pts, all_vals = _ascend(cov, restarts, steps, seeds)
        for lo in range(0, count * restarts, restarts):
            round_index += 1
            pts, vals = all_pts[lo : lo + restarts], all_vals[lo : lo + restarts]
            violating = np.nonzero(~covered(cov, cov.radius - vals, ADVERSARIAL_TOL))[0]
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
                if not core.admit(x, fx[0]):
                    return False, core.dictionary(dictionary.trials_used)
            break  # the later stacked rounds ran on the cover before these admissions
    return False, core.dictionary(dictionary.trials_used)


def certified_dictionary_cover(space: LpSpace, mu: float, seed: int, build_cover):
    """The one dictionary pipeline behind the dict-* covers, at fixed budgets.

    Greedy build at seed; certify_maximality on 4000 samples at seed + 1;
    harden_dictionary with 50 restarts x 100 steps and 3 clean rounds at
    seed + 2; certify_sampling of build_cover(dictionary) on 2000 ball and
    2000 sphere points at seed + 3. Each step goes on with the dictionary the
    step before left, even one it could not certify. Returns (cover,
    dictionary, maximal, hardened, report); the cover is certified only when
    hardened and report.passed.
    """
    maximal, dictionary = certify_maximality(greedy_maximal_dictionary(space, mu, seed), mu, 4000, seed + 1)
    hardened, dictionary = harden_dictionary(
        dictionary, mu, build_cover, restarts=50, steps=100, seed=seed + 2, clean_rounds=3
    )
    cov = build_cover(dictionary)
    return cov, dictionary, maximal, hardened, certify_sampling(cov, 2000, 2000, seed + 3)


def simplex_dichotomy_check(points) -> np.ndarray:
    """Per-point dichotomy for the unit-radius simplex cover in l2.

    With a = 1/(2d): either some coordinate y_k > a/2 puts the point strictly
    inside the unit ball at a e_k, or the squared distance to the center
    -a (1, ..., 1) is at most 1 - 1/(4d) + PASS_TOL. Returns a boolean row
    per point.
    """
    y = np.atleast_2d(np.asarray(points, dtype=float))
    d = y.shape[1]
    a = 1.0 / (2.0 * d)
    sq = np.sum(y * y, axis=1)
    dist_axis_sq = sq[:, None] - 2.0 * a * y + a * a
    case_axis = np.any((y > 0.5 * a) & (dist_axis_sq < 1.0), axis=1)
    dist_last_sq = sq + 2.0 * a * np.sum(y, axis=1) + d * a * a
    case_last = dist_last_sq <= 1.0 - 1.0 / (4.0 * d) + PASS_TOL
    return case_axis | case_last
