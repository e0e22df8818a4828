import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ballcover.coverings import (
    BallCovering,
    axis_cover,
    basis_cover,
    dictionary_cover_banach,
    dictionary_cover_l2,
    etf_cover,
    iterate_cover,
    simplex_cover_shrunk,
    simplex_cover_unit,
)
from ballcover.dictionaries import Dictionary, coherence_banach
from ballcover.frames import etf_from_hadamard
from ballcover.hadamard import sylvester
from ballcover.spaces import (
    LpSpace,
    ball_from_rng,
    norm,
    norming_coords,
    norms,
    sample_sphere,
    smoothness_majorant_for,
    sphere_from_rng,
)
from ballcover.verify import (
    _BLOCK_ENTRIES,
    ADVERSARIAL_TOL,
    _ascend,
    adversarial_search,
    certify_maximality,
    PASS_TOL,
    _norm_gradient,
    certify_sampling,
    covered,
    harden_dictionary,
    linf_vertex_check,
    min_distances,
    nearest,
    simplex_dichotomy_check,
    uncovered_witness,
)


def _cdist(p, xs, centers):
    if math.isinf(p):
        return cdist(xs, centers, metric="chebyshev")
    return cdist(xs, centers, metric="minkowski", p=p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 3.5, 4.0, math.inf])
def test_nearest_matches_cdist(p):
    rng = np.random.default_rng(70)
    d, m = 6, 50
    centers = rng.standard_normal((m, d))
    # at least two full blocks on every path, then a partial last block
    n = 2 * (_BLOCK_ENTRIES // m) + 7
    xs = rng.standard_normal((n, d))
    index, dist = nearest(LpSpace(d, p), xs, centers)
    ref = _cdist(p, xs, centers)
    best = ref.min(axis=1)
    assert np.max(np.abs(dist - best) / best) <= 1e-14
    two = np.sort(ref, axis=1)[:, :2]
    clear = two[:, 1] - two[:, 0] > 1e-12
    assert clear.mean() > 0.99
    np.testing.assert_array_equal(index[clear], np.argmin(ref, axis=1)[clear])


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, math.inf])
def test_nearest_tie_breaks_to_lowest_index(p):
    index, dist = nearest(LpSpace(2, p), [[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])
    assert index[0] == 0
    assert dist[0] == 1.0
    # x_1 = 0 is as far from a e_1 as from -a e_1, in the p = 2 and 4 score
    # as in the power sums, for centers as close to the origin as the covers'
    d, a = 8, 1.0 / 256.0
    xs = ball_from_rng(LpSpace(d, p), 300, np.random.default_rng(93))
    xs[:, 0] = 0.0
    pair = np.zeros((2, d))
    pair[:, 0] = [a, -a]
    index, dist = nearest(LpSpace(d, p), xs, pair)
    assert (index == 0).all()
    assert dist.tobytes() == nearest(LpSpace(d, p), xs, pair[:1])[1].tobytes()


def _coordinate_loop_nearest(p, xs, centers):
    # finite p: power sums accumulated one coordinate at a time over (rows,
    # centers) arrays, the order of the kernel's exact blocks and of its
    # distance to the center the p = 2 and 4 score selects
    coords = np.ascontiguousarray(centers.T)
    sums = np.zeros((xs.shape[0], centers.shape[0]))
    term = np.empty_like(sums)
    for k in range(xs.shape[1]):
        np.subtract(xs[:, k, None], coords[k], out=term)
        if p in (2.0, 4.0):
            np.square(term, out=term)
            if p == 4.0:
                np.square(term, out=term)
        else:
            np.abs(term, out=term)
            np.power(term, p, out=term)
        sums += term
    index = sums.argmin(axis=1)
    return index, sums[np.arange(xs.shape[0]), index] ** (1.0 / p)


@pytest.mark.parametrize("p", [1.5, 3.0, 3.5, 4.0])
def test_nearest_matches_coordinate_loop_bit_for_bit(p):
    rng = np.random.default_rng(72)
    d, m = 6, 40
    centers = rng.standard_normal((m, d))
    centers[17] = centers[5]  # a tie, which goes to the lower index
    # three full blocks of terms and a partial one; one block of p = 4 scores
    n = 3 * (_BLOCK_ENTRIES // (d * m)) + 5
    xs = rng.standard_normal((n, d))
    xs[:4] = centers[5] + 1e-3 * rng.standard_normal((4, d))
    index, dist = nearest(LpSpace(d, p), xs, centers)
    ref_index, ref_dist = _coordinate_loop_nearest(p, xs, centers)
    np.testing.assert_array_equal(index, ref_index)
    np.testing.assert_array_equal(dist, ref_dist)
    np.testing.assert_array_equal(index[:4], 5)


@pytest.mark.parametrize("p", [1.5, 3.0, 3.5, 4.0])
def test_nearest_single_center_sums_in_coordinate_order(p):
    # one row against one center leaves a lone column of terms, which numpy
    # would sum pairwise rather than in coordinate order
    rng = np.random.default_rng(73)
    d = 12
    centers = rng.standard_normal((1, d))
    xs = centers + rng.standard_normal((16, d))
    for rows in [xs[i : i + 1] for i in range(16)] + [xs]:
        index, dist = nearest(LpSpace(d, p), rows, centers)
        ref_index, ref_dist = _coordinate_loop_nearest(p, rows, centers)
        np.testing.assert_array_equal(index, ref_index)
        np.testing.assert_array_equal(dist, ref_dist)


def _assert_distance_free_of_cancellation(p):
    # the GEMM score (|c|^2 - 2 x.c at p = 2) loses about 1e-16 * |c|^p
    # absolute, which would swamp a distance of 1e-7; the returned distance must not
    rng = np.random.default_rng(71)
    d = 8
    centers = rng.standard_normal((40, d))
    centers *= 1.9 / np.linalg.norm(centers, axis=1)[:, None]
    offsets = rng.standard_normal((30, d))
    offsets *= rng.uniform(1e-9, 1e-7, size=(30, 1)) / np.linalg.norm(offsets, axis=1)[:, None]
    xs = centers[:30] + offsets
    index, dist = nearest(LpSpace(d, p), xs, centers)
    np.testing.assert_array_equal(index, np.arange(30))
    best = _cdist(p, xs, centers).min(axis=1)
    assert np.max(np.abs(dist - best) / best) <= 1e-14


def test_nearest_euclidean_distance_free_of_cancellation():
    _assert_distance_free_of_cancellation(2.0)


def test_nearest_l4_distance_free_of_cancellation():
    _assert_distance_free_of_cancellation(4.0)


def test_nearest_shape_errors():
    for p in (2.0, 4.0):
        with pytest.raises(ValueError):
            nearest(LpSpace(2, p), [[0.0, 0.0]], np.empty((0, 2)))
        with pytest.raises(ValueError):
            nearest(LpSpace(2, p), [[0.0, 0.0]], [[0.0, 0.0, 0.0]])


def _near_origin_centers(d, a):
    # +-a e_j, the axis centers of a cover by balls of radius close to one
    return np.vstack([a * np.identity(d), -a * np.identity(d)])


def _assert_loop_bits(p, xs, centers):
    index, dist = nearest(LpSpace(centers.shape[1], p), xs, centers)
    ref_index, ref_dist = _coordinate_loop_nearest(p, xs, centers)
    assert index.tobytes() == ref_index.tobytes()
    assert dist.tobytes() == ref_dist.tobytes()
    return index


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_nearest_score_matches_coordinate_loop_near_the_origin(p):
    # the score picks the center, the distance comes from x - c: both in the
    # bits of the exact power sums, for centers as close to the origin as the
    # covers' (a = 1/256 for the d = 8 basis cover, 1/64 for dictionary covers)
    d = 8
    space = LpSpace(d, p)
    xs = ball_from_rng(space, 4000, np.random.default_rng(90))
    _assert_loop_bits(p, xs, _near_origin_centers(d, 1.0 / 256.0))
    _assert_loop_bits(p, xs, iterate_cover(basis_cover(space), 2).centers)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_nearest_far_center_never_wins(p):
    # a center whose powers overflow leaves the cover to the exact block,
    # where its terms are inf; under warnings-as-errors a warning would raise
    d = 5
    near = _near_origin_centers(d, 1.0 / 64.0)
    centers = np.vstack([[1e200] * d, near])
    xs = ball_from_rng(LpSpace(d, p), 500, np.random.default_rng(91))
    index, dist = nearest(LpSpace(d, p), xs, centers)
    ref_index, ref_dist = _coordinate_loop_nearest(p, xs, near)
    assert (index - 1).tobytes() == ref_index.tobytes()
    assert dist.tobytes() == ref_dist.tobytes()


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_nearest_non_finite_and_huge_rows_take_the_exact_block(p):
    # their scores hold a NaN or an inf (the huge row's at p = 4 only); the
    # exact block gives each of them index 0, where argmin would take a later
    # NaN or -inf, and the rows beside them keep the score's bits, with no warning
    d = 5
    centers = _near_origin_centers(d, 1.0 / 64.0)
    xs = ball_from_rng(LpSpace(d, p), 40, np.random.default_rng(92))
    xs[3] = 1e308
    xs[7] = np.nan
    xs[11, 0] = -np.inf
    xs[19, 2] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        index = _assert_loop_bits(p, xs, centers)
    assert (index[[3, 7, 11, 19]] == 0).all()


def _chebyshev_row_by_row(xs, centers):
    # every |x_k - c_k|, its max over k, and the lowest index of the least
    index = np.empty(xs.shape[0], dtype=np.intp)
    dist = np.empty(xs.shape[0])
    for r, x in enumerate(xs):
        gaps = np.abs(x - centers).max(axis=1)
        index[r] = gaps.argmin()
        dist[r] = gaps[index[r]]
    return index, dist


def _half_vertices(d):
    return 0.5 * (((np.arange(1 << d)[:, None] >> np.arange(d)[None, :]) & 1) * 2.0 - 1.0)


def _assert_chebyshev_bits(xs, centers):
    space = LpSpace(centers.shape[1], math.inf)
    index, dist = nearest(space, xs, centers)
    ref_index, ref_dist = _chebyshev_row_by_row(xs, centers)
    np.testing.assert_array_equal(index, ref_index)
    assert dist.tobytes() == ref_dist.tobytes()
    for k in range(0, xs.shape[0], 7):
        i, r = nearest(space, xs[k], centers)
        assert (i[0], r[0]) == (index[k], dist[k])
    return ref_index


def test_chebyshev_nearest_is_brute_force_bits_on_the_vertex_lattice():
    d = 12
    centers = _half_vertices(d)
    rng = np.random.default_rng(75)
    xs = rng.uniform(-1.0, 1.0, size=(600, d))
    # a zero coordinate ties the two half-vertices that differ only there
    for r in range(200):
        xs[r, rng.choice(d, 1 + r % 6, replace=False)] = 0.0
    xs[200] = 0.0  # all 4096 centers at distance 1/2
    _assert_chebyshev_bits(xs, centers)


def test_chebyshev_nearest_is_brute_force_bits_with_duplicate_centers():
    rng = np.random.default_rng(76)
    d, m = 8, 200
    centers = rng.standard_normal((m, d))
    centers[[9, 21, 33]] = centers[2]
    centers[[150, 151, 199]] = centers[5]
    xs = rng.standard_normal((1500, d))
    xs[:20] = centers[2] + 1e-3 * rng.standard_normal((20, d))
    xs[20:40] = centers[5] + 1e-3 * rng.standard_normal((20, d))
    lowest = _assert_chebyshev_bits(xs, centers)
    np.testing.assert_array_equal(lowest[:40], np.repeat([2, 5], 20))


def test_chebyshev_nearest_single_center():
    rng = np.random.default_rng(77)
    centers = rng.standard_normal((1, 5))
    xs = rng.standard_normal((40, 5))
    xs[0] = centers[0]  # distance 0
    assert (_assert_chebyshev_bits(xs, centers) == 0).all()


def test_chebyshev_nearest_propagates_nan_and_inf(monkeypatch):
    import ballcover.verify as verify

    # cdist's Chebyshev distance skips a NaN coordinate; nearest must not
    space = LpSpace(2, math.inf)
    centers = [[0.0, 0.0], [1.0, 1.0]]
    index, dist = nearest(space, [[np.nan, 0.0], [np.inf, 0.0], [0.25, 0.5]], centers)
    assert math.isnan(dist[0])
    assert dist[1] == math.inf
    assert (index[2], dist[2]) == (0, 0.5)
    # a NaN center gives every row a NaN distance; small blocks here, so
    # that three full blocks and a partial one run
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1 << 6)
    rng = np.random.default_rng(78)
    centers = rng.standard_normal((4, 2))
    centers[1, 0] = np.nan
    block_rows = verify._BLOCK_ENTRIES // centers.size
    xs = rng.standard_normal((3 * block_rows + 3, 2))
    xs[5] = centers[2]  # a NaN distance wins over even a zero one
    index, dist = nearest(space, xs, centers)
    ref_index, ref_dist = _chebyshev_row_by_row(xs, centers)
    np.testing.assert_array_equal(index, ref_index)
    np.testing.assert_array_equal(dist, ref_dist)
    assert np.isnan(dist).all()


@pytest.mark.parametrize("p", [2.0, 3.5, 4.0, math.inf])
def test_nearest_overflow_is_inf_without_a_warning(p):
    # x - c, the score and the power terms all overflow here, with a huge
    # center or a huge row; under the suite's warnings-as-errors filter a
    # warning would raise
    index, dist = nearest(LpSpace(5, p), [[1e308] * 5], [[-1e308] * 5])
    assert index.tolist() == [0] and dist.tolist() == [math.inf]
    index, dist = nearest(LpSpace(5, p), [[1e308] * 5, [0.5] * 5], [[0.25] * 5, [-0.25] * 5])
    assert index.tolist() == [0, 0] and dist[0] == (1e308 if math.isinf(p) else math.inf)


@pytest.mark.parametrize("p", [2.0, 3.5, 4.0, math.inf])
def test_certify_sampling_fails_on_a_far_center_without_raising(p):
    cov = BallCovering(LpSpace(5, p), [[1e200] * 5], 0.9, closed=True, provenance="far")
    report = certify_sampling(cov, 50, 50, seed=3)
    assert report.passed is False
    assert report.failure_witness is not None


@pytest.mark.parametrize("p", [2.0, 3.5, 4.0])
def test_adversarial_search_fails_on_a_far_center_without_raising(p):
    # the ascent's distances overflow to inf and its gradient to NaN; under
    # the suite's warnings-as-errors filter a warning would raise
    cov = BallCovering(LpSpace(5, p), [[1e200] * 5], 0.9, closed=True, provenance="far")
    point, margin = adversarial_search(cov, 3, 5, 0)
    assert margin == -math.inf
    assert not covered(cov, margin, ADVERSARIAL_TOL)
    assert point.shape == (5,)


class _CountingWorker(ThreadPoolExecutor):
    # the worker thread, there on one CPU too, counting the tasks it is given
    def __init__(self):
        super().__init__(1)
        self.tasks = 0
        self._count = threading.Lock()

    def submit(self, *args, **kwargs):
        with self._count:
            self.tasks += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def worker():
    pool = _CountingWorker()
    yield pool
    pool.shutdown()


def _nearest_digest(space, xs, centers):
    index, dist = nearest(space, xs, centers)
    return hashlib.sha256(index.astype(np.int64).tobytes() + dist.tobytes()).hexdigest()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.5, 4.0, math.inf])
def test_nearest_split_is_bit_identical(monkeypatch, worker, p):
    import ballcover.verify as verify

    # small blocks, so that every query has many; a lattice with a
    # duplicate center for ties, NaN and inf rows, and at p = inf a NaN
    # center, which sends every row through the blocks
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1 << 7)
    rng = np.random.default_rng(81)
    d = 3
    centers = rng.integers(-2, 3, size=(6, d)) * 0.5
    centers[5] = centers[0]
    xs = np.vstack([rng.standard_normal((150, d)), rng.integers(-4, 5, size=(150, d)) * 0.25])
    xs[[3, 77, 160]] = np.nan
    xs[[100, 200], 1] = np.inf
    cases = [centers]
    if math.isinf(p):
        cases.append(centers.copy())
        cases[1][2, 0] = np.nan
    space = LpSpace(d, p)
    for c in cases:
        with np.errstate(invalid="ignore"):
            monkeypatch.setattr(verify, "_worker", lambda: None)
            serial = _nearest_digest(space, xs, c)
            tasks = worker.tasks
            monkeypatch.setattr(verify, "_worker", lambda: worker)
            assert _nearest_digest(space, xs, c) == serial
        assert worker.tasks > tasks


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, math.inf])
@pytest.mark.parametrize("n_ball, n_sphere", [(300, 200), (0, 200), (300, 0)])
def test_certify_sampling_stacks_the_two_streams(monkeypatch, worker, p, n_ball, n_sphere):
    import ballcover.verify as verify

    seen = []
    measure = verify.min_distances
    monkeypatch.setattr(verify, "min_distances", lambda cov, xs: seen.append(xs.copy()) or measure(cov, xs))
    space = LpSpace(4, p)
    centers = np.random.default_rng(82).uniform(-1.0, 1.0, size=(5, 4))
    cov = BallCovering(space, centers, 0.6, closed=True, provenance="t")
    child = np.random.SeedSequence(11).spawn(2)
    expected = np.vstack(
        [
            ball_from_rng(space, n_ball, np.random.default_rng(child[0])),
            sphere_from_rng(space, n_sphere, np.random.default_rng(child[1])),
        ]
    )
    reports = []
    for pool in (None, worker):
        monkeypatch.setattr(verify, "_worker", lambda: pool)
        reports.append(certify_sampling(cov, n_ball, n_sphere, 11))
    # one task, the ball rows, and only when both streams draw
    assert worker.tasks == (1 if n_ball and n_sphere else 0)
    assert [xs.tobytes() for xs in seen] == [expected.tobytes()] * 2
    assert reports[0].samples_tested == reports[1].samples_tested == n_ball + n_sphere
    assert reports[0].worst_margin == reports[1].worst_margin


@pytest.mark.parametrize("p", [2.0, 3.5, 4.0])
def test_split_nearest_overflow_is_inf_without_a_warning(monkeypatch, worker, p):
    import ballcover.verify as verify

    # the worker's numpy error state is not the caller's unless it takes it;
    # under the suite's warnings-as-errors filter a warning there would raise
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1 << 7)
    monkeypatch.setattr(verify, "_worker", lambda: worker)
    index, dist = nearest(LpSpace(5, p), np.full((40, 5), 1e308), [[-1e308] * 5])
    assert worker.tasks == 1
    assert (index == 0).all() and (dist == math.inf).all()


def test_concurrent_callers_share_the_worker(monkeypatch, worker):
    import ballcover.verify as verify

    # more calling threads than cores, all splitting their queries and
    # sampling onto the one worker at a short switch interval: each must get
    # the serial bits, so no part reads or writes another call's rows or buffer
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1 << 9)
    rng = np.random.default_rng(83)
    covs = [
        BallCovering(LpSpace(4, p), rng.uniform(-1.0, 1.0, size=(9, 4)), 0.7, closed=True, provenance="t")
        for p in (2.0, 3.5, math.inf)
    ]

    def work(k):
        cov = covs[k % 3]
        report = certify_sampling(cov, 150, 150, k)
        return report.worst_margin, _nearest_digest(cov.space, rng_rows[k], cov.centers)

    rng_rows = [np.random.default_rng(k).uniform(-1.0, 1.0, size=(200, 4)) for k in range(6)]
    monkeypatch.setattr(verify, "_worker", lambda: None)
    expected = [work(k) for k in range(6)]
    monkeypatch.setattr(verify, "_worker", lambda: worker)
    results = [None] * 6

    def caller(k):
        results[k] = [work(k) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[e] * 5 for e in expected]
    assert worker.tasks >= 6 * 5


def test_check_point_simplex_origin():
    cov, _ = simplex_cover_unit(2)
    assert cov.radius - min_distances(cov, [[0.0, 0.0]])[0] == pytest.approx(0.75, rel=1e-15)


def test_check_point_at_center():
    cov, _ = axis_cover(3)
    margin = cov.radius - min_distances(cov, cov.centers[:1])[0]
    assert margin == pytest.approx(cov.radius, rel=1e-15)


def test_check_point_axis_e1():
    cov, _ = axis_cover(4)
    expected = cov.radius - (1.0 - 1.0 / 8.0)
    margin = cov.radius - min_distances(cov, [[1.0, 0.0, 0.0, 0.0]])[0]
    assert margin == pytest.approx(expected, rel=1e-14)


def test_check_point_dimension_mismatch():
    cov, _ = axis_cover(3)
    with pytest.raises(ValueError):
        min_distances(cov, [[1.0, 0.0]])


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_single_row_query_matches_batch(p):
    # a block of one row sums in coordinate order like a block of many, so a
    # point gets the same bits alone as in a batch
    rng = np.random.default_rng(71)
    d, m = 16, 40
    centers = rng.standard_normal((m, d))
    xs = rng.standard_normal((200, d))
    space = LpSpace(d, p)
    index, dist = nearest(space, xs, centers)
    for k in range(xs.shape[0]):
        i, r = nearest(space, xs[k], centers)
        assert i[0] == index[k]
        assert r[0] == dist[k]


def test_certify_sampling_passes_shrunk():
    cov, _ = simplex_cover_shrunk(4)
    report = certify_sampling(cov, 10000, 10000, seed=40)
    assert report.passed
    assert report.worst_margin >= -1e-12
    assert report.failure_witness is None
    assert report.samples_tested == 20000
    assert report.seed == 40


def test_certify_sampling_detects_broken_cover():
    cov, _ = simplex_cover_shrunk(4)
    broken = BallCovering(cov.space, cov.centers, cov.radius / 2.0, cov.closed, "halved")
    report = certify_sampling(broken, 1000, 1000, seed=41)
    assert not report.passed
    assert report.failure_witness is not None
    assert report.worst_margin < -1e-12


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
def test_certify_sampling_fails_on_nan_distance(closed, p):
    # BallCovering rejects non-finite centers; a NaN that reaches the kernel
    # anyway must fail the verdict, not pass it
    cov = BallCovering(LpSpace(2, p), [[0.0, 0.0]], 1.0, closed, "nan")
    cov.centers[0, 0] = np.nan
    report = certify_sampling(cov, 100, 100, seed=62)
    assert not report.passed
    assert report.failure_witness is not None


# (margin, closed verdict at PASS_TOL, at ADVERSARIAL_TOL); open covers pass above 0 only
COVERED_CASES = [
    (1e-3, True, True),
    (0.0, True, True),
    (-PASS_TOL / 2, True, True),
    (-2 * PASS_TOL, False, True),
    (-ADVERSARIAL_TOL / 2, False, True),
    (math.nan, False, False),
]


@pytest.mark.parametrize("margin, closed_default, closed_adversarial", COVERED_CASES)
def test_covered(margin, closed_default, closed_adversarial):
    closed = BallCovering(LpSpace(2, 2.0), [[0.0, 0.0]], 1.0, True, "closed")
    open_ = BallCovering(LpSpace(2, 2.0), [[0.0, 0.0]], 1.0, False, "open")
    for tol, want in ((PASS_TOL, closed_default), (ADVERSARIAL_TOL, closed_adversarial)):
        assert covered(closed, margin, tol) is want
        assert covered(open_, margin, tol) is (margin > 0.0)
    assert covered(closed, margin) is closed_default


def test_covered_array():
    margins = np.array([case[0] for case in COVERED_CASES])
    closed = BallCovering(LpSpace(2, 2.0), [[0.0, 0.0]], 1.0, True, "closed")
    open_ = BallCovering(LpSpace(2, 2.0), [[0.0, 0.0]], 1.0, False, "open")
    np.testing.assert_array_equal(covered(closed, margins), [case[1] for case in COVERED_CASES])
    np.testing.assert_array_equal(
        covered(closed, margins, ADVERSARIAL_TOL), [case[2] for case in COVERED_CASES]
    )
    for tol in (PASS_TOL, ADVERSARIAL_TOL):
        np.testing.assert_array_equal(covered(open_, margins, tol), [True] + [False] * 5)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 3.5, 4.0, 7.25])
@pytest.mark.parametrize("d", [1, 3, 8, 16, 33])
def test_norm_gradient_bits_match_the_formula(p, d):
    # the ascent's subgradient is the norming functional, with zero rows kept at zero
    space = LpSpace(d, p)
    rng = np.random.default_rng(int(10 * p) + d)
    # compared as bytes, which tell -0.0 from +0.0: the formula maps a -0.0
    # coordinate to +0.0, as np.sign(-0.0) is +0.0; rows with a 1e300
    # coordinate have length inf, their other coordinates a quotient of 0
    z = rng.standard_normal((40, d))
    z[rng.random((40, d)) < 0.1] = 0.0
    z[rng.random((40, d)) < 0.1] = -0.0
    z[[5, 17]] = 0.0
    z[9] = -0.0
    z[[21, 30], 0] = [1e300, -1e300]
    with np.errstate(over="ignore", invalid="ignore"):
        lengths = np.linalg.norm(z, ord=p, axis=1)
        ok = lengths > 0.0
        want = np.zeros_like(z)
        want[ok] = np.sign(z[ok]) * np.abs(z[ok]) ** (p - 1.0) / lengths[ok, None] ** (p - 1.0)
        got = _norm_gradient(space, z)
        coords = norming_coords(space, z[ok])
    assert lengths[21] == lengths[30] == math.inf
    assert got.tobytes() == want.tobytes()
    assert coords.tobytes() == want[ok].tobytes()


def _reference_ascend(cov, restarts, steps, seeds):
    # the ascent as a loop of the formulas: the step from x - c of the last
    # query's centers along the norming functional sign(z) |z|^(p-1) / |z|^(p-1)
    # (at p = inf the sign of the largest |z_k|), zero where |z| is 0 or NaN,
    # and one full nearest() query per step
    space, p = cov.space, cov.space.p
    x = np.vstack([sphere_from_rng(space, restarts, np.random.default_rng(s)) for s in seeds])
    best_pts = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        index, best_vals = nearest(space, x, cov.centers)
        for step in range(1, steps + 1):
            z = x - cov.centers[index]
            lengths = np.linalg.norm(z, ord=p, axis=1)
            ok = lengths > 0.0
            grad = np.zeros_like(z)
            if math.isinf(p):
                rows = np.flatnonzero(ok)
                k = np.argmax(np.abs(z[rows]), axis=1)
                grad[rows, k] = np.sign(z[rows, k])
            else:
                grad[ok] = np.sign(z[ok]) * np.abs(z[ok]) ** (p - 1.0) / lengths[ok, None] ** (p - 1.0)
            x = x + grad * (0.1 / math.sqrt(step))
            x = x / np.linalg.norm(x, ord=p, axis=1)[:, None]
            index, vals = nearest(space, x, cov.centers)
            improved = vals > best_vals
            best_vals = np.where(improved, vals, best_vals)
            best_pts = np.where(improved[:, None], x, best_pts)
    return best_pts, best_vals


@pytest.fixture(scope="module")
def dictionary_centers():
    from ballcover.dictionaries import greedy_maximal_dictionary

    cov = dictionary_cover_l2(greedy_maximal_dictionary(LpSpace(16, 2.0), 0.3, seed=1), 0.3)
    return cov.centers, cov.radius


_ASCENT_CASES = [
    (case, p) for case in ("dictionary", "own-start-rows", "far") for p in (1.5, 2.0, 3.5, 4.0, math.inf)
] + [("blocks", 2.0)]


@pytest.mark.parametrize("case, p", _ASCENT_CASES)
def test_ascend_matches_the_reference_loop_bit_for_bit(monkeypatch, dictionary_centers, case, p):
    import ballcover.verify as verify

    seeds = [5]
    if case == "dictionary":
        # the d = 16, mu = 0.3 dictionary cover's centers, three seeds stacked
        centers, radius = dictionary_centers
        seeds = [5, 6, 7]
    elif case == "own-start-rows":
        # every start row is a center, so the first step's z is zero
        centers, radius = sphere_from_rng(LpSpace(6, p), 8, np.random.default_rng(5)), 0.9
    elif case == "far":
        # every |z| overflows to inf
        centers, radius = [[1e200] * 5], 0.9
    else:
        # more rows than one block, through the split path
        centers, radius = dictionary_centers
        seeds = [5, 6, 7]
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1 << 9)
    cov = BallCovering(LpSpace(np.shape(centers)[1], p), centers, radius, closed=True, provenance=case)
    pts, vals = _ascend(cov, 8, 30, seeds)
    want_pts, want_vals = _reference_ascend(cov, 8, 30, seeds)
    assert pts.tobytes() == want_pts.tobytes()
    assert vals.tobytes() == want_vals.tobytes()


def test_ascend_gathers_the_same_bits_from_f_ordered_centers():
    # the frame cover's centers are F-ordered; the ascent gathers its rows
    # from a C-ordered copy, and must give the bits of a C-ordered cover
    cov = etf_cover(255)[0]
    assert not cov.centers.flags.c_contiguous
    copy = BallCovering(cov.space, np.ascontiguousarray(cov.centers), cov.radius, cov.closed, "c-ordered")
    assert copy.centers.flags.c_contiguous
    pts, vals = _ascend(cov, 5, 20, [3, 4])
    want_pts, want_vals = _ascend(copy, 5, 20, [3, 4])
    assert pts.tobytes() == want_pts.tobytes()
    assert vals.tobytes() == want_vals.tobytes()


def test_certify_sampling_strict_open():
    cov, _ = simplex_cover_unit(3)
    report = certify_sampling(cov, 5000, 5000, seed=42)
    assert report.passed
    assert report.worst_margin > 0.0


def test_certify_sampling_deterministic():
    cov, _ = axis_cover(4)
    a = certify_sampling(cov, 500, 500, seed=43)
    b = certify_sampling(cov, 500, 500, seed=43)
    assert a.worst_margin == b.worst_margin


def test_adversarial_on_shrunk_simplex():
    cov, _ = simplex_cover_shrunk(3)
    _, margin = adversarial_search(cov, 50, 200, seed=44)
    assert margin >= -1e-9


def test_adversarial_concentric_ball():
    space = LpSpace(3, 2.0)
    cov = BallCovering(space, [[0.0, 0.0, 0.0]], 1.0, True, "concentric")
    point, margin = adversarial_search(cov, 5, 20, seed=45)
    assert norm(space, point) == pytest.approx(1.0, abs=1e-12)
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_adversarial_axis_margin():
    cov, margin = axis_cover(8)
    point, found = adversarial_search(cov, 50, 200, seed=46)
    worst_sq = (cov.radius - found) ** 2
    assert worst_sq <= 1.0 - 3.0 / 128.0 + 1e-9


def test_witness_hand_geometry():
    z = uncovered_witness(LpSpace(2, 2.0), [[0.3, 0.0], [-0.3, 0.0]])
    np.testing.assert_allclose(np.abs(z), [0.0, 1.0], atol=1e-12)
    dists = np.linalg.norm(z[None, :] - np.array([[0.3, 0.0], [-0.3, 0.0]]), axis=1)
    assert np.min(dists) == pytest.approx(math.sqrt(1.09), rel=1e-12)


def test_witness_near_origin_centers():
    rng = np.random.default_rng(48)
    centers = 1e-13 * rng.standard_normal((3, 3))
    space = LpSpace(3, 2.0)
    z = uncovered_witness(space, centers)
    assert abs(norm(space, z) - 1.0) <= 1e-12
    assert float(np.min(norms(space, z[None, :] - centers))) >= 1.0 - 1e-12


def test_witness_p3_random_centers():
    space = LpSpace(2, 3.0)
    rng = np.random.default_rng(49)
    for _ in range(50):
        centers = ball_from_rng(space, 2, rng)
        z = uncovered_witness(space, centers)
        assert abs(norm(space, z) - 1.0) <= 1e-12
        assert float(np.min(norms(space, z[None, :] - centers))) >= 1.0 - 1e-9


def test_witness_affine_hull_distance():
    space = LpSpace(4, 2.0)
    rng = np.random.default_rng(50)
    for _ in range(20):
        centers = ball_from_rng(space, 4, rng)
        z = uncovered_witness(space, centers)
        # the least-squares residual of z - c_0 against the differences
        dirs = (centers[1:] - centers[0]).T
        v = z - centers[0]
        residual = v - dirs @ np.linalg.lstsq(dirs, v, rcond=None)[0]
        assert np.linalg.norm(residual) >= 1.0 - 1e-9


def test_witness_single_center():
    # d = 1: no differences, so every direction annihilates them and the
    # witness is the unit point on the far side of the center
    z = uncovered_witness(LpSpace(1, 2.0), [[0.3]])
    assert z.tolist() == [-1.0]


def test_witness_identical_centers():
    # degenerate affine hull: any annihilator direction works
    space = LpSpace(3, 2.0)
    centers = np.tile([[0.2, 0.1, 0.0]], (3, 1))
    z = uncovered_witness(space, centers)
    assert float(np.min(norms(space, z[None, :] - centers))) >= 1.0 - 1e-12


def test_witness_errors():
    with pytest.raises(ValueError):
        uncovered_witness(LpSpace(2, math.inf), [[0.0, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError):
        uncovered_witness(LpSpace(3, 2.0), [[0.0, 0.0, 0.0]])
    # c_1 - c_0 loses the small center's coordinates, and the candidate
    # fails the construction's own distance check
    with pytest.raises(ValueError, match="witness construction failed"):
        uncovered_witness(LpSpace(2, 2.0), [[1e17, 1e17], [0.0, 0.5]])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            uncovered_witness(LpSpace(2, 2.0), [[bad, 0.0], [0.0, 0.5]])


def test_simplex_dichotomy_samples():
    for d in (2, 8):
        space = LpSpace(d, 2.0)
        pts = np.vstack(
            [
                ball_from_rng(space, 2000, np.random.default_rng(51)),
                sample_sphere(space, 2000, seed=52),
                np.zeros((1, d)),
            ]
        )
        assert np.all(simplex_dichotomy_check(pts))


def test_linf_vertex_check_small_dims():
    for d in (1, 2, 3):
        report = linf_vertex_check(d, n_samples=2000, n_centers=50, seed=53)
        assert report.center_count == 2 ** d
        assert report.samples_covered
        assert report.min_sample_margin > 0.0
        assert report.max_vertices_per_ball <= 1
        assert report.vertex_pair_distance == 2.0


def test_linf_vertex_check_matches_per_center_loop(monkeypatch):
    import ballcover.verify as verify

    # small blocks, so that the ball centers split over several of them
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1 << 8)
    n_samples, n_centers = 50, 40
    for d in range(1, 13):
        report = linf_vertex_check(d, n_samples=n_samples, n_centers=n_centers, seed=74 + d)
        rng = np.random.default_rng(74 + d)
        ball_from_rng(LpSpace(d, math.inf), n_samples, rng)  # the draws made before the centers
        ball_centers = rng.uniform(-2.0, 2.0, size=(n_centers, d))
        vertices = ((np.arange(1 << d)[:, None] >> np.arange(d)[None, :]) & 1) * 2.0 - 1.0
        expected = max(
            int(np.count_nonzero(np.max(np.abs(vertices - c[None, :]), axis=1) < 1.0)) for c in ball_centers
        )
        assert report.max_vertices_per_ball == expected


def test_linf_vertex_check_guard():
    with pytest.raises(ValueError):
        linf_vertex_check(21)


@pytest.mark.parametrize("counts", [{"n_samples": 0}, {"n_samples": -1}])
def test_linf_vertex_check_needs_a_sample(counts):
    with pytest.raises(ValueError, match="need at least one sample"):
        linf_vertex_check(3, **counts)


@pytest.mark.parametrize("counts", [{"n_centers": 0}, {"n_centers": -1}])
def test_linf_vertex_check_needs_a_ball_center(counts):
    # part (b) would otherwise pass having tested no center
    with pytest.raises(ValueError, match="need at least one ball center"):
        linf_vertex_check(3, **counts)


def _half_vertices(d):
    return 0.5 * (((np.arange(1 << d)[:, None] >> np.arange(d)[None, :]) & 1) * 2.0 - 1.0)


@pytest.mark.parametrize("d", range(1, 13))
def test_linf_vertex_margin_is_the_nearest_center_margin(d):
    # part (a) assigns each sample its center sign(x)/2 instead of searching;
    # its margin is that of the nearest-center query over all 2**d centers
    space = LpSpace(d, math.inf)
    n_samples = 300
    for seed in (3, 40, 500 + d):
        report = linf_vertex_check(d, n_samples=n_samples, n_centers=5, seed=seed)
        xs = ball_from_rng(space, n_samples, np.random.default_rng(seed))
        centers = _half_vertices(d)
        expected = 1.0 - nearest(space, xs, centers)[1].max()
        assert report.min_sample_margin.hex() == expected.hex()
        if d <= 8:
            # every center in turn, the distance as max_k |x_k - c_k|
            least = np.full(n_samples, np.inf)
            for c in centers:
                np.minimum(least, np.max(np.abs(xs - c), axis=1), out=least)
            assert report.min_sample_margin.hex() == float(1.0 - least.max()).hex()


def test_linf_vertex_margin_at_a_zero_coordinate(monkeypatch):
    import ballcover.verify as verify

    # x_k = 0 lies at 1/2 from both signs' centers, and every other
    # coordinate at most 1/2 from its own: the margin is 1/2 exactly
    xs = np.array([[0.0, 0.3, -0.9], [0.0, 0.0, 0.0], [-0.0, 1.0, -1.0], [0.7, 0.0, -0.2]])
    monkeypatch.setattr(verify, "ball_from_rng", lambda space, n, rng: xs[:n].copy())
    for n in range(1, xs.shape[0] + 1):
        report = linf_vertex_check(3, n_samples=n, n_centers=4, seed=0)
        assert report.min_sample_margin == 0.5
        assert report.samples_covered
        assert 1.0 - nearest(LpSpace(3, math.inf), xs[:n], _half_vertices(3))[1].max() == 0.5


@pytest.mark.parametrize(
    ("d", "n_samples", "n_centers", "seed", "margin"),
    [
        # the selftest's linf-vertices check at seeds 0, 1 and 7
        (2, 2000, 50, 0, "0x1.000571489cc83p-1"),
        (2, 2000, 50, 1, "0x1.000973514b557p-1"),
        (2, 2000, 50, 7, "0x1.0019bf7a0628cp-1"),
        (6, 2000, 50, 0, "0x1.0004083b39176p-1"),
        (6, 2000, 50, 1, "0x1.000093cd156b8p-1"),
        (6, 2000, 50, 7, "0x1.00052199c3d3bp-1"),
        # the certify-bulk benchmark's check
        (12, 4000, 100, 1, "0x1.00008564131d0p-1"),
    ],
)
def test_linf_vertex_margin_pinned(d, n_samples, n_centers, seed, margin):
    # recorded when part (a) still queried a k-d tree of the 2**d centers
    report = linf_vertex_check(d, n_samples=n_samples, n_centers=n_centers, seed=seed)
    assert report.min_sample_margin.hex() == margin
    assert report.samples_covered and report.max_vertices_per_ball == 1


def test_linf_vertex_check_calls_through_verify_cdist(monkeypatch):
    import ballcover.verify as verify

    # part (b) calls the module's cdist name, so a wrapper patched there
    # (as the benchmark's tracer patches it) sees every block
    calls = []
    original = verify.cdist

    def spy(xa, xb, **kwargs):
        calls.append((xa.shape, xb.shape, kwargs))
        return original(xa, xb, **kwargs)

    monkeypatch.setattr(verify, "cdist", spy)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1 << 8)
    report = linf_vertex_check(4, n_samples=10, n_centers=40, seed=2)
    assert [shape for shape, _, _ in calls] == [(16, 4)] * 2 + [(8, 4)]
    assert all(xb == (16, 4) and kwargs == {"metric": "chebyshev"} for _, xb, kwargs in calls)
    assert report.max_vertices_per_ball == 1


def test_certify_maximality_etf_no_augmentation():
    # max_k <x, phi_k> >= ||x||/(2d) = 1/6 > 1/8 on the sphere, so no
    # counterexample can appear
    frame = etf_from_hadamard(sylvester(2))
    d = Dictionary(LpSpace(frame.dim, 2.0), frame.matrix.T.copy())
    passed, augmented = certify_maximality(d, 1.0 / 8.0, 10000, seed=54)
    assert passed
    assert len(augmented) == len(d)


def test_certify_maximality_augments_obvious_gap():
    d = Dictionary(space=LpSpace(2, 2.0), vectors=[[1.0, 0.0]])
    passed, augmented = certify_maximality(d, 0.5, 100, seed=55)
    assert passed
    assert len(augmented) > 1
    assert coherence_banach(augmented) <= 0.5


@pytest.mark.parametrize("n", [math.nan, math.inf, 1.5, 0, -1])
def test_certify_maximality_refuses_a_bad_sample_count_before_drawing(monkeypatch, n):
    # refused before any draw: past an `n < 1` check, NaN certifies having
    # drawn nothing, and 1.5 and inf never stop drawing
    import ballcover.verify as verify

    def no_draws(*args, **kwargs):
        raise AssertionError("drew sphere points before validating n")

    monkeypatch.setattr(verify, "sphere_from_rng", no_draws)
    d = Dictionary(LpSpace(4, 2.0), np.eye(4)[:1])
    with pytest.raises(ValueError, match="sample count"):
        certify_maximality(d, 0.5, n, seed=1)


def test_certify_maximality_hard_failure_carries_dictionary(monkeypatch):
    # l4 at mu = 0.5 has one-sided counterexamples that are not two-sided
    # admissible; the verdict is False with the dictionary augmented so far
    space = LpSpace(8, 4.0)
    from ballcover.dictionaries import _Admission, greedy_maximal_dictionary
    from ballcover.spaces import norming_coords

    refused = []
    admit = _Admission.admit

    def spy(core, x, fx):
        ok = admit(core, x, fx)
        if not ok:
            refused.append(x.copy())
        return ok

    monkeypatch.setattr(_Admission, "admit", spy)
    d = greedy_maximal_dictionary(space, 0.5, seed=21)
    passed, augmented = certify_maximality(d, 0.5, 50000, seed=22)
    assert not passed
    assert isinstance(augmented, Dictionary)
    assert np.array_equal(augmented.vectors[: len(d)], d.vectors)
    assert coherence_banach(augmented) <= 0.5 + 1e-12
    # the offender is a genuine one-sided counterexample that fails the reverse test
    assert len(refused) == 1 and refused[0].shape == (8,)
    x = refused[0]
    fx = norming_coords(space, x[None, :])[0]
    assert float(np.max(np.abs(augmented.vectors @ fx))) <= 0.5
    assert float(np.max(np.abs(norming_coords(space, augmented.vectors) @ x))) > 0.5


def _serial_maximality(dictionary, mu, n, seed):
    # certify_maximality as a loop of its own: batches of min(1024, n - clean)
    # samples, each admitting at most its first counterexample
    from ballcover.dictionaries import _Admission

    core = _Admission(dictionary.space, mu, dictionary.vectors)
    rng = np.random.default_rng(seed)
    clean = 0
    while clean < n:
        count = min(1024, n - clean)
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


def _etf_dictionary():
    frame = etf_from_hadamard(sylvester(2))
    return Dictionary(LpSpace(frame.dim, 2.0), frame.matrix.T.copy())


def _greedy_dictionary(d, p, mu, seed):
    from ballcover.dictionaries import greedy_maximal_dictionary

    return greedy_maximal_dictionary(LpSpace(d, p), mu, seed)


# (dictionary, mu, samples, seed, verdict, whether the dictionary grows)
_MAXIMALITY_CASES = [
    (_etf_dictionary, 1.0 / 8.0, 10000, 54, True, False),  # no counterexample can appear
    (lambda: Dictionary(LpSpace(2, 2.0), [[1.0, 0.0]]), 0.5, 100, 55, True, True),  # the obvious gap
    # at d = 3 a batch holds counterexamples that stay admissible after its first
    (lambda: Dictionary(LpSpace(3, 2.0), [[1.0, 0.0, 0.0]]), 0.5, 100, 55, True, True),
    (lambda: _greedy_dictionary(8, 2.0, 0.4, 11), 0.4, 20000, 12, True, True),
    (lambda: _greedy_dictionary(8, 4.0, 0.5, 21), 0.5, 50000, 22, False, False),  # a refused admission
]


@pytest.mark.parametrize(
    "make, mu, n, seed, verdict, grows", _MAXIMALITY_CASES, ids=["etf", "gap", "gap-d3", "l2-greedy", "l4-refused"]
)
def test_certify_maximality_matches_the_serial_loop(make, mu, n, seed, verdict, grows):
    d = make()
    ref_ok, ref_d = _serial_maximality(d, mu, n, seed)
    assert (ref_ok, len(ref_d) > len(d)) == (verdict, grows)
    ok, augmented = certify_maximality(d, mu, n, seed)
    assert ok == ref_ok
    assert augmented.vectors.tobytes() == ref_d.vectors.tobytes()


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_admission_leaves_the_input_vectors_unchanged(p):
    # the admission core may start from a view of the input's vectors; an
    # admission must grow a new array, never write into that one
    space = LpSpace(3, p)
    d = Dictionary(space, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    before = d.vectors.tobytes()
    _, augmented = certify_maximality(d, 0.5, 100, seed=55)
    assert len(augmented) > len(d)
    assert d.vectors.tobytes() == before
    majorant = smoothness_majorant_for(space)
    if p == 2.0:
        cover = lambda dd: dictionary_cover_l2(dd, 0.5)  # noqa: E731
    else:
        cover = lambda dd: dictionary_cover_banach(dd, 0.5, majorant)  # noqa: E731
    _, hardened = harden_dictionary(d, 0.5, cover, restarts=10, steps=50, seed=3, clean_rounds=1)
    assert len(hardened) > len(d)
    assert d.vectors.tobytes() == before


def test_sampling_and_adversarial_agree():
    # same verdict for the margin constructions at default budgets
    from ballcover.coverings import basis_cover, etf_cover

    cases = [
        simplex_cover_shrunk(3)[0],
        etf_cover(3)[0],
        axis_cover(4)[0],
        basis_cover(LpSpace(4, 4.0)),
    ]
    for cov in cases:
        report = certify_sampling(cov, 5000, 5000, seed=60)
        _, margin = adversarial_search(cov, 50, 200, seed=61)
        assert report.passed
        assert margin >= -1e-9


def test_harden_dictionary_l2():
    space = LpSpace(8, 2.0)
    from ballcover.dictionaries import greedy_maximal_dictionary

    d = greedy_maximal_dictionary(space, 0.4, seed=11)
    ok, d = certify_maximality(d, 0.4, 20000, seed=12)
    assert ok
    certified, hardened = harden_dictionary(
        d, 0.4, lambda dd: dictionary_cover_l2(dd, 0.4), seed=13
    )
    assert certified
    assert coherence_banach(hardened) <= 0.4
    cov = dictionary_cover_l2(hardened, 0.4)
    _, margin = adversarial_search(cov, 50, 200, seed=14)
    assert margin >= -1e-9


@pytest.mark.parametrize("mu", [math.nan, 0.0, 1.0, 1.5])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_admission_rejects_bad_mu_before_drawing(monkeypatch, mu, p):
    import ballcover.dictionaries as dictionaries
    import ballcover.verify as verify

    def no_draws(*args, **kwargs):
        raise AssertionError("drew sphere points before validating mu")

    monkeypatch.setattr(dictionaries, "sphere_from_rng", no_draws)
    monkeypatch.setattr(verify, "sphere_from_rng", no_draws)
    space = LpSpace(2, p)
    d = Dictionary(space=space, vectors=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="mu"):
        dictionaries.greedy_maximal_dictionary(space, mu, seed=0)
    with pytest.raises(ValueError, match="mu"):
        certify_maximality(d, mu, 1000, seed=1)
    with pytest.raises(ValueError, match="mu"):
        harden_dictionary(d, mu, lambda dd: no_draws(), seed=2)



def _serial_harden(dictionary, mu, build_cover, restarts, steps, seed, clean_rounds):
    # harden_dictionary with one ascent per round; also returns the rounds'
    # outcomes: "c" clean, "v" violated, "F" a refused admission
    from ballcover.dictionaries import _Admission

    core = _Admission(dictionary.space, mu, dictionary.vectors)
    log = []
    clean = 0
    for round_index in range(500):
        current = core.dictionary(dictionary.trials_used)
        cov = build_cover(current)
        pts, vals = _ascend(cov, restarts, steps, [seed + round_index])
        violating = np.nonzero(vals > cov.radius + ADVERSARIAL_TOL)[0]
        if violating.size == 0:
            log.append("c")
            clean += 1
            if clean >= clean_rounds:
                return True, current, "".join(log)
            continue
        log.append("v")
        clean = 0
        for i in violating[np.argsort(-vals[violating])]:
            x = pts[i] / norm(core.space, pts[i])
            fx = core.functionals(x[None, :])
            if float(core.one_sided(fx)[0]) > mu:
                continue
            if not core.admit(x, fx[0]):
                log.append("F")
                return False, core.dictionary(dictionary.trials_used), "".join(log)
    return False, core.dictionary(dictionary.trials_used), "".join(log)


# (p, mu, greedy seed, vectors kept, clean rounds, a pattern the rounds must show)
_HARDEN_CASES = [
    (2.0, 0.4, 3, None, 3, "ccv"),  # a violation in the second of two stacked rounds
    (2.0, 0.4, 11, None, 3, "cvv"),  # one in the first, then a round on the augmented cover
    (2.0, 0.4, 3, None, 1, "vc"),
    (4.0, 0.5, 0, 6, 3, "cv"),  # a violation in the first stacked round
    (4.0, 0.5, 2, 4, 3, "vF"),
]


@pytest.mark.parametrize("p, mu, seed, keep, clean_rounds, pattern", _HARDEN_CASES)
def test_harden_dictionary_matches_serial_rounds(p, mu, seed, keep, clean_rounds, pattern):
    from ballcover.dictionaries import greedy_maximal_dictionary

    space = LpSpace(8, p)
    if p == 2.0:
        build = lambda dd: dictionary_cover_l2(dd, mu)  # noqa: E731
    else:
        majorant = smoothness_majorant_for(space)
        build = lambda dd: dictionary_cover_banach(dd, mu, majorant)  # noqa: E731
    d = greedy_maximal_dictionary(space, mu, seed)
    if keep is not None:
        d = Dictionary(space=space, vectors=d.vectors[:keep])
    ref_ok, ref_d, log = _serial_harden(d, mu, build, 20, 50, seed, clean_rounds)
    assert pattern in log
    ok, hardened = harden_dictionary(d, mu, build, restarts=20, steps=50, seed=seed, clean_rounds=clean_rounds)
    assert ok == ref_ok
    np.testing.assert_array_equal(hardened.vectors, ref_d.vectors)


_BAD_COUNTS = [math.nan, math.inf, 1.5, 0, -1]


def test_harden_dictionary_rejects_empty_budgets(monkeypatch):
    # past a bare `< 1` check, NaN and 1.5 fail late with a TypeError and inf
    # runs every round; each budget is refused before any cover or draw
    import ballcover.verify as verify

    d = Dictionary(space=LpSpace(2, 2.0), vectors=[[1.0, 0.0]])
    builds = []

    def no_draws(*args, **kwargs):
        raise AssertionError("drew sphere points before validating the budgets")

    monkeypatch.setattr(verify, "sphere_from_rng", no_draws)
    for budget in ("clean_rounds", "restarts", "steps"):
        for bad in _BAD_COUNTS:
            with pytest.raises(ValueError, match=f"{budget} must be a positive integer"):
                harden_dictionary(d, 0.5, builds.append, **{budget: bad})
    assert builds == []


def test_adversarial_search_rejects_a_bad_budget_before_drawing(monkeypatch):
    import ballcover.verify as verify

    def no_draws(*args, **kwargs):
        raise AssertionError("drew sphere points before validating the budgets")

    monkeypatch.setattr(verify, "sphere_from_rng", no_draws)
    cov = axis_cover(2)[0]
    for bad in _BAD_COUNTS:
        with pytest.raises(ValueError, match="restarts must be a positive integer"):
            adversarial_search(cov, bad, 10, 0)
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            adversarial_search(cov, 10, bad, 0)
