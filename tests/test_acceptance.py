"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ballcover.bounds import volumetric_bounds
from ballcover.coverings import (
    axis_cover,
    basis_cover,
    dictionary_cover_banach,
    dictionary_cover_l2,
    etf_cover,
    iterate_cover,
    simplex_cover_shrunk,
    simplex_cover_unit,
)
from ballcover.dictionaries import greedy_maximal_dictionary
from ballcover.frames import etf_from_hadamard, verify_frame_identities
from ballcover.hadamard import sylvester, verify_hadamard
from ballcover.spaces import (
    LpSpace,
    ball_from_rng,
    sample_sphere,
    smoothness_majorant_for,
    solve_step_size,
)
from ballcover.verify import (
    adversarial_search,
    certify_maximality,
    certify_sampling,
    harden_dictionary,
    linf_vertex_check,
    simplex_dichotomy_check,
    uncovered_witness,
)

SEED = 20240811


def _line(name):
    print(f"[PASS] {name}")


def _ball_sphere(d, n, seed, p=2.0):
    space = LpSpace(d, p)
    ball = ball_from_rng(space, n, np.random.default_rng(seed))
    return np.vstack([ball, sample_sphere(space, n, seed + 1)])


def _min_sq_dists(centers, points):
    best = np.full(points.shape[0], np.inf)
    for c in centers:
        best = np.minimum(best, np.sum((points - c[None, :]) ** 2, axis=1))
    return best


def test_hadamard_exactness():
    start = time.perf_counter()
    for k in range(13):
        h = sylvester(k)
        assert h.entries.dtype == np.int64
        assert verify_hadamard(h.entries), f"order 2^{k} failed the exact check"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _line(f"hadamard exactness k=0..12 ({elapsed:.2f}s)")


def test_etf_gram_and_identities():
    start = time.perf_counter()
    for k in range(1, 8):  # orders 2, 4, ..., 128
        frame = etf_from_hadamard(sylvester(k))
        n = frame.dim
        gram = frame.matrix.T @ frame.matrix
        off = gram - np.diag(np.diag(gram))
        mask = ~np.eye(n + 1, dtype=bool)
        assert np.max(np.abs(off[mask] + 1.0 / n)) <= 1e-12
        assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-12
        for x in sample_sphere(LpSpace(n, 2.0), 100, SEED + k):
            assert max(verify_frame_identities(frame, x)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _line(f"equiangular frames: Gram -1/(m-1) and identity residuals ({elapsed:.2f}s)")


def test_unit_simplex_dichotomy():
    start = time.perf_counter()
    for d in (1, 2, 4, 8, 16, 32, 64):
        pts = _ball_sphere(d, 10000, SEED + d)
        assert np.all(simplex_dichotomy_check(pts)), f"dichotomy failed at d={d}"
        cov, _ = simplex_cover_unit(d)
        assert len(cov) == d + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _line(f"unit-radius simplex dichotomy d=1..64 ({elapsed:.2f}s)")


def test_shrunk_simplex_margin():
    for d in (2, 4, 8, 16, 32, 64):
        a = 2.0 / (5.0 * d + 1.0)
        cov, _ = simplex_cover_shrunk(d)
        pts = _ball_sphere(d, 10000, SEED + 100 + d)
        assert np.all(_min_sq_dists(cov.centers, pts) <= 1.0 - a * a + 1e-12)
        _, margin = adversarial_search(cov, 50, 200, SEED + 200 + d)
        worst_sq = (cov.radius - margin) ** 2
        assert worst_sq <= 1.0 - a * a + 1e-9, f"adversarial beat the bound at d={d}"
    _line("shrunk simplex margin 1-a^2, sampling + adversarial, d=2..64")


def test_etf_cover_margin():
    for d in (1, 3, 7, 15, 31):
        cov, margin = etf_cover(d)
        assert margin == pytest.approx(1.0 / (64.0 * d * d), rel=1e-15)
        pts = _ball_sphere(d, 10000, SEED + 300 + d)
        assert np.all(_min_sq_dists(cov.centers, pts) <= 1.0 - 1.0 / (64.0 * d * d) + 1e-12)
    _line("frame cover margin 1 - 1/(64 d^2), d in {1,3,7,15,31}")


def _euclidean_pipeline(d, mu, seed):
    space = LpSpace(d, 2.0)
    dictionary = greedy_maximal_dictionary(space, mu, seed)
    certified, dictionary = certify_maximality(dictionary, mu, 20000, seed + 1)
    assert certified, "sampling certification did not pass"
    hardened, dictionary = harden_dictionary(
        dictionary,
        mu,
        lambda dd: dictionary_cover_l2(dd, mu),
        restarts=200,
        clean_rounds=8,
        seed=seed + 2,
    )
    assert hardened, "adversarial hardening did not converge"
    cov = dictionary_cover_l2(dictionary, mu)
    assert cov.radius == pytest.approx(math.sqrt(1.0 - mu * mu), rel=1e-15)
    report = certify_sampling(cov, 10000, 10000, seed + 3)
    assert report.passed, f"coverage sampling failed: worst {report.worst_margin}"
    _, margin = adversarial_search(cov, 50, 200, seed + 4)
    assert margin >= -1e-9, f"adversarial found an uncovered point: margin {margin}"
    return len(dictionary)


def test_euclidean_dictionary_pipeline():
    start = time.perf_counter()
    n8 = _euclidean_pipeline(8, 0.4, 11)
    t8 = time.perf_counter() - start
    assert t8 < 120.0
    start = time.perf_counter()
    n16 = _euclidean_pipeline(16, 0.3, 41)
    t16 = time.perf_counter() - start
    assert t16 < 120.0
    _line(
        f"euclidean dictionary pipeline d=8 (N={n8}, {t8:.1f}s) and d=16 (N={n16}, {t16:.1f}s)"
    )


def test_banach_dictionary_pipeline():
    space = LpSpace(8, 4.0)
    mu = 0.5
    majorant = smoothness_majorant_for(space)
    a = solve_step_size(majorant, mu)
    assert a == pytest.approx(1.0 / 64.0, rel=1e-15)  # mu/(8p)
    dictionary = greedy_maximal_dictionary(space, mu, seed=21)
    # certification may legitimately report an unrepairable counterexample in
    # an asymmetric space: one-sided maximality can be unreachable under
    # two-sided admission; record the verdict and certify the coverage
    maximal, dictionary = certify_maximality(dictionary, mu, 20000, seed=22)
    hardened, dictionary = harden_dictionary(
        dictionary,
        mu,
        lambda dd: dictionary_cover_banach(dd, mu, majorant),
        restarts=100,
        clean_rounds=5,
        seed=23,
    )
    assert hardened, "adversarial hardening did not converge"
    cov = dictionary_cover_banach(dictionary, mu, majorant)
    assert cov.radius == pytest.approx(1.0 - 1.0 / 256.0, rel=1e-15)
    assert cov.radius >= 0.5 + a  # build-time small-norm requirement
    report = certify_sampling(cov, 10000, 10000, seed=24)
    assert report.passed, f"coverage sampling failed: worst {report.worst_margin}"
    _line(
        "l4 dictionary pipeline d=8 mu=0.5: radius 1 - 1/256 covers 2e4 samples "
        f"(maximality certified: {maximal}; N={len(dictionary)})"
    )


def test_axis_basis_iterate_covers():
    for d in (1, 4, 16, 64):
        cov, _ = axis_cover(d)
        a = 0.25 / math.sqrt(d)
        assert cov.radius == pytest.approx(
            max(0.5 + a, math.sqrt(1.0 - 3.0 / (16.0 * d))), rel=1e-15
        )
        report = certify_sampling(cov, 10000, 10000, SEED + 400 + d)
        assert report.passed, f"axis cover failed at d={d}"
    space = LpSpace(4, 4.0)
    bcov = basis_cover(space)
    a4 = solve_step_size(smoothness_majorant_for(space), 0.25)
    assert bcov.radius == pytest.approx(1.0 - a4 * 0.25 / 2.0, rel=1e-15)
    report = certify_sampling(bcov, 10000, 10000, SEED + 500)
    assert report.passed
    base, _ = axis_cover(2)
    iterated = iterate_cover(base, 2)
    assert len(iterated) == 16
    assert iterated.radius == pytest.approx(base.radius ** 2, rel=1e-15)
    report = certify_sampling(iterated, 5000, 5000, SEED + 600)
    assert report.passed
    _line("axis covers d in {1,4,16,64}, l4 basis cover, iterated axis cover (16 balls)")


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


def test_select_positive_entry_hand_cases():
    assert select_positive_entry([1.0, -1.0, 0.0]) == 0
    assert select_positive_entry([0.5, -0.5]) == 0
    assert select_positive_entry([-0.5, 0.5]) == 1


def test_select_positive_entry_threshold():
    y = np.array([1.0, -1.0, 0.0])
    k = select_positive_entry(y)
    assert y[k] >= np.linalg.norm(y) / (2 * (y.size - 1))


def test_select_positive_entry_errors():
    with pytest.raises(ValueError):
        select_positive_entry([0.0, 0.0])
    with pytest.raises(ValueError):
        select_positive_entry([1.0, 1.0])
    with pytest.raises(ValueError):
        select_positive_entry([1.0])


def test_select_positive_entry_random_property():
    rng = np.random.default_rng(47)
    for n in range(2, 51):
        y = rng.standard_normal((200, n))
        y -= y.mean(axis=1, keepdims=True)
        for row in y:
            if np.linalg.norm(row) == 0.0:
                continue
            k = select_positive_entry(row)
            assert row[k] >= np.linalg.norm(row) / (2 * (n - 1))


def test_zero_sum_selector():
    rng = np.random.default_rng(SEED)
    for n in range(2, 51):
        y = rng.standard_normal((10000, n))
        y -= y.mean(axis=1, keepdims=True)
        lengths = np.linalg.norm(y, axis=1)
        keep = lengths > 0
        thresholds = lengths / (2.0 * (n - 1))
        for row, thr in zip(y[keep], thresholds[keep]):
            k = select_positive_entry(row)
            assert row[k] >= thr
    _line("zero-sum selector inequality, 1e4 draws per N=2..50")


def test_uncovered_witness_grid():
    from ballcover.spaces import ball_from_rng, norm, norms

    for d in (2, 4, 8):
        for p in (2.0, 3.0, 1.5):
            space = LpSpace(d, p)
            rng = np.random.default_rng(SEED + 10 * d + int(10 * p))
            for _ in range(200):
                centers = ball_from_rng(space, d, rng)
                z = uncovered_witness(space, centers)
                assert abs(norm(space, z) - 1.0) <= 1e-12
                assert float(np.min(norms(space, z[None, :] - centers))) >= 1.0 - 1e-9
                if p == 2.0:
                    # distance to the affine hull: the least-squares residual
                    # of z - c_0 against the differences
                    dirs = (centers[1:] - centers[0]).T
                    v = z - centers[0]
                    residual = v - dirs @ np.linalg.lstsq(dirs, v, rcond=None)[0]
                    assert np.linalg.norm(residual) >= 1.0 - 1e-9
    _line("uncovered witness: 200 center sets per (d, p) in {2,4,8} x {2,3,1.5}")


def test_cube_vertex_covering():
    for d in range(1, 13):
        report = linf_vertex_check(d, n_samples=10000, n_centers=100, seed=SEED + d)
        assert report.center_count == 2 ** d
        assert report.samples_covered and report.min_sample_margin > 0.0
        assert report.max_vertices_per_ball <= 1
    _line("linf cube: 2^d half-vertex centers cover; one vertex per open ball, d=1..12")


def test_bounds_and_step_sizes():
    from ballcover.spaces import SmoothnessMajorant, solve_step_size_bisect

    for d in range(1, 51):
        for eps in np.linspace(0.02, 1.0, 50):
            vb = volumetric_bounds(d, float(eps))
            assert vb.log_lower <= vb.log_upper + 1e-12
    checked = 0
    # quadratic majorants (p/2) u^2 for all listed p, power majorants u^p / p
    # where the exponent stays in (1, 2]; closed form against bisection
    cases = [(p / 2.0, 2.0) for p in (1.5, 2.0, 4.0, 8.0)]
    cases += [(1.0 / p, p) for p in (1.5, 2.0)]
    for gamma, q in cases:
        majorant = SmoothnessMajorant(gamma, q)
        for mu in (0.05, 0.1, 0.25, 0.5):
            a = solve_step_size(majorant, mu)
            bisected = solve_step_size_bisect(majorant.value, mu)
            assert abs(a - bisected) <= 1e-10 * a
            checked += 1
    # lp conventions against the specialized closed forms mu/(8p) and
    # (p mu / 2^(p+2))^(1/(p-1))
    for p in (1.5, 2.0, 4.0, 8.0):
        space = LpSpace(4, p)
        majorant = smoothness_majorant_for(space)
        for mu in (0.05, 0.1, 0.25, 0.4, 0.5):
            a = solve_step_size(majorant, mu)
            if p >= 2.0:
                expected = mu / (8.0 * p)
            else:
                expected = (p * mu / 2.0 ** (p + 2.0)) ** (1.0 / (p - 1.0))
            assert abs(a - expected) <= 1e-10 * expected
            checked += 1
    assert checked >= 20
    _line("volumetric bounds on 50x50 grid; step-size closed forms on 44-point grid")


def test_selftest_reproducible():
    cmd = [sys.executable, "-m", "ballcover", "selftest", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()[:1000]
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["all_passed"] is True
    _line("selftest byte-identical across runs with a fixed seed")
