import math

import numpy as np
import pytest

from ballcover.coverings import (
    STRICT_OPEN,
    UNIFORM,
    BallCovering,
    CoverMargin,
    axis_cover,
    banach_simplex_search,
    basis_cover,
    dictionary_cover_banach,
    dictionary_cover_l2,
    etf_cover,
    iterate_cover,
    simplex_cover_shrunk,
    simplex_cover_unit,
)
from ballcover.dictionaries import Dictionary
from ballcover.frames import etf_from_hadamard
from ballcover.hadamard import sylvester
from ballcover.spaces import (
    LpSpace,
    SmoothnessMajorant,
    sample_ball,
    sample_sphere,
    smoothness_majorant_for,
)


def _samples(d, n, seed, p=2.0):
    space = LpSpace(d, p)
    return np.vstack([sample_ball(space, n, seed), sample_sphere(space, n, seed + 1)])


def _min_sq_dists(cov, points):
    best = np.full(points.shape[0], np.inf)
    for c in cov.centers:
        best = np.minimum(best, np.sum((points - c[None, :]) ** 2, axis=1))
    return best


def test_simplex_unit_centers_d2():
    cov, margin = simplex_cover_unit(2)
    np.testing.assert_allclose(cov.centers, [[0.25, 0.0], [0.0, 0.25], [-0.25, -0.25]])
    assert cov.radius == 1.0
    assert not cov.closed
    assert margin.kind == STRICT_OPEN
    assert margin.value == pytest.approx(1.0 / 8.0)


def test_simplex_unit_interval_d1():
    # 1-D oracle: open unit intervals around +-1/2 cover [-1, 1]
    cov, _ = simplex_cover_unit(1)
    grid = np.linspace(-1.0, 1.0, 10001)[:, None]
    dist = np.min(np.abs(grid - cov.centers.T), axis=1)
    assert np.all(dist < 1.0)


def test_simplex_unit_distance_d3():
    cov, _ = simplex_cover_unit(3)
    y = np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(y - cov.centers[2]) == pytest.approx(5.0 / 6.0, rel=1e-15)


def test_simplex_unit_center_count():
    for d in (1, 2, 5, 16):
        cov, _ = simplex_cover_unit(d)
        assert len(cov) == d + 1


def test_simplex_shrunk_parameters_d2():
    cov, margin = simplex_cover_shrunk(2)
    a = 2.0 / 11.0
    assert cov.closed
    assert cov.radius == pytest.approx(math.sqrt(1.0 - a * a), rel=1e-15)
    assert margin.kind == UNIFORM
    assert margin.value == pytest.approx(a * a, rel=1e-15)


def test_simplex_shrunk_sampling_margin_d4():
    # sampling oracle: squared distance to the nearest center <= 1 - a^2 + 1e-12
    cov, margin = simplex_cover_shrunk(4)
    pts = _samples(4, 10000, seed=20)
    assert np.all(_min_sq_dists(cov, pts) <= 1.0 - margin.value + 1e-12)


def test_simplex_shrunk_margin_monotone():
    values = [simplex_cover_shrunk(d)[1].value for d in range(1, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_etf_cover_d3():
    cov, margin = etf_cover(3)
    frame = etf_from_hadamard(sylvester(2))
    np.testing.assert_allclose(cov.centers, frame.matrix.T / 24.0)
    assert cov.radius == pytest.approx(math.sqrt(1.0 - 1.0 / 576.0), rel=1e-15)
    assert margin.value == pytest.approx(1.0 / 576.0, rel=1e-15)


def test_etf_cover_d1_interval():
    cov, _ = etf_cover(1)
    grid = np.linspace(-1.0, 1.0, 10001)[:, None]
    dist = np.min(np.abs(grid - cov.centers.T), axis=1)
    assert np.all(dist <= cov.radius + 1e-15)


def test_etf_cover_radius_dominates_small_norm():
    for d in (1, 3, 7, 15, 31):
        cov, _ = etf_cover(d)
        assert cov.radius >= 0.5 + 1.0 / (8.0 * d)
        assert len(cov) == d + 1


def test_etf_cover_sampling_d7():
    cov, margin = etf_cover(7)
    pts = _samples(7, 10000, seed=21)
    assert np.all(_min_sq_dists(cov, pts) <= 1.0 - margin.value + 1e-12)


def test_etf_cover_unavailable_order():
    with pytest.raises(ValueError):
        etf_cover(4)


def test_dict_cover_l2_interval():
    d = Dictionary(space=LpSpace(1, 2.0), vectors=[[1.0]])
    cov = dictionary_cover_l2(d, 0.5)
    np.testing.assert_allclose(sorted(cov.centers[:, 0]), [-0.5, 0.5])
    assert cov.radius == pytest.approx(math.sqrt(0.75), rel=1e-15)
    grid = np.linspace(-1.0, 1.0, 10001)[:, None]
    dist = np.min(np.abs(grid - cov.centers.T), axis=1)
    assert np.all(dist <= cov.radius + 1e-15)


def test_dict_cover_l2_etf():
    d = etf_from_hadamard(sylvester(2)).as_dictionary()
    cov = dictionary_cover_l2(d, 0.25)
    assert len(cov) == 8
    assert cov.radius == pytest.approx(math.sqrt(15.0) / 4.0, rel=1e-15)
    assert np.all(np.any(np.isclose(cov.centers[:, None, :], -cov.centers[None, :, :]).all(axis=2), axis=1))


def test_dict_cover_l2_radius_limit():
    d = Dictionary(space=LpSpace(2, 2.0), vectors=np.identity(2))
    cov = dictionary_cover_l2(d, 1e-8)
    assert cov.radius <= 1.0
    assert 1.0 - cov.radius <= 1e-15


def test_dict_cover_l2_validation():
    d = Dictionary(space=LpSpace(2, 4.0), vectors=np.identity(2))
    with pytest.raises(ValueError):
        dictionary_cover_l2(d, 0.5)
    d2 = Dictionary(space=LpSpace(2, 2.0), vectors=np.identity(2))
    with pytest.raises(ValueError):
        dictionary_cover_l2(d2, 0.9)  # beyond 1/sqrt(2)


def test_dict_cover_banach_radii():
    # p = 2 with gamma = 1: a = mu/16 = 1/32, radius 1 - 1/128
    d2 = Dictionary(space=LpSpace(2, 2.0), vectors=np.identity(2))
    cov = dictionary_cover_banach(d2, 0.5, SmoothnessMajorant(1.0, 2.0))
    assert cov.radius == pytest.approx(1.0 - 1.0 / 128.0, rel=1e-15)
    # p = 4: a = mu/(8p) = 1/64, radius 1 - 1/256
    d4 = Dictionary(space=LpSpace(2, 4.0), vectors=np.identity(2))
    cov4 = dictionary_cover_banach(d4, 0.5, smoothness_majorant_for(LpSpace(2, 4.0)))
    assert cov4.radius == pytest.approx(1.0 - 1.0 / 256.0, rel=1e-15)
    np.testing.assert_allclose(np.sort(np.abs(cov4.centers).max(axis=1)), np.full(4, 1.0 / 64.0))
    # p = 1.5: a = (p mu / 2^(p+2))^(1/(p-1))
    p = 1.5
    d15 = Dictionary(space=LpSpace(2, p), vectors=np.identity(2))
    mu = 0.25
    cov15 = dictionary_cover_banach(d15, mu, smoothness_majorant_for(LpSpace(2, p)))
    a = (p * mu / 2.0 ** (p + 2.0)) ** (1.0 / (p - 1.0))
    assert cov15.radius == pytest.approx(1.0 - 0.5 * mu * a, rel=1e-14)


def test_axis_cover_d4():
    cov, margin = axis_cover(4)
    assert len(cov) == 8
    assert cov.radius == pytest.approx(math.sqrt(61.0 / 64.0), rel=1e-15)
    assert margin.value == pytest.approx(3.0 / 64.0, rel=1e-15)
    # center set closed under negation
    assert np.all(np.any(np.isclose(cov.centers[:, None, :], -cov.centers[None, :, :]).all(axis=2), axis=1))


def test_axis_cover_d1_interval():
    cov, _ = axis_cover(1)
    assert cov.radius == pytest.approx(max(0.75, math.sqrt(13.0 / 16.0)), rel=1e-15)
    grid = np.linspace(-1.0, 1.0, 10001)[:, None]
    dist = np.min(np.abs(grid - cov.centers.T), axis=1)
    assert np.all(dist <= cov.radius + 1e-15)


def test_axis_cover_sampling_d16():
    cov, margin = axis_cover(16)
    pts = _samples(16, 10000, seed=22)
    sq = _min_sq_dists(cov, pts)
    assert np.all(np.sqrt(sq) <= cov.radius + 1e-12)


def test_basis_cover_p2_d2():
    cov = basis_cover(LpSpace(2, 2.0))
    # mu = 1/2, gamma = 1: a = 1/32, radius 1 - 1/128
    assert cov.radius == pytest.approx(1.0 - 1.0 / 128.0, rel=1e-15)
    assert len(cov) == 4
    np.testing.assert_allclose(np.abs(cov.centers).max(axis=1), np.full(4, 1.0 / 32.0))


def test_basis_cover_p4_d4():
    cov = basis_cover(LpSpace(4, 4.0))
    # mu = 1/4, gamma = 2: a = 1/128, radius 1 - 1/1024
    assert cov.radius == pytest.approx(1.0 - 1.0 / 1024.0, rel=1e-15)
    np.testing.assert_allclose(np.abs(cov.centers).max(axis=1), np.full(8, 1.0 / 128.0))


def test_basis_cover_d1():
    cov = basis_cover(LpSpace(1, 2.0))
    # single-coordinate pigeonhole: mu = 1, centers +-a
    a = 1.0 / 16.0
    np.testing.assert_allclose(sorted(cov.centers[:, 0]), [-a, a])


def test_basis_cover_custom_basis_and_validation():
    basis = np.array([[0.0, 1.0], [1.0, 0.0]])
    cov = basis_cover(LpSpace(2, 2.0), 1.0, basis=basis)
    assert len(cov) == 4
    with pytest.raises(ValueError):
        basis_cover(LpSpace(2, 2.0), 0.5)
    with pytest.raises(ValueError):
        basis_cover(LpSpace(2, math.inf))


def test_iterate_identity():
    cov, _ = axis_cover(2)
    assert iterate_cover(cov, 1) is cov


def test_iterate_axis2_m2():
    cov, _ = axis_cover(2)
    it = iterate_cover(cov, 2)
    assert len(it) == 16
    assert it.radius == cov.radius ** 2  # multiplicative exactly in the representation
    assert it.closed == cov.closed
    assert cov.radius == pytest.approx(math.sqrt(1.0 - 3.0 / 32.0), rel=1e-15)
    # spot-check the affine composition against a direct enumeration
    direct = np.array([c1 + cov.radius * c2 for c1 in cov.centers for c2 in cov.centers])
    np.testing.assert_allclose(np.sort(it.centers, axis=0), np.sort(direct, axis=0))


def test_iterate_count_and_radius_formula():
    cov, _ = axis_cover(1)
    it = iterate_cover(cov, 3)
    assert len(it) == 8
    assert it.radius == cov.radius ** 3


def test_iterate_guards():
    open_cov, _ = simplex_cover_unit(2)
    with pytest.raises(ValueError):
        iterate_cover(open_cov, 2)  # radius 1 cannot iterate
    cov, _ = axis_cover(4)
    with pytest.raises(ValueError):
        iterate_cover(cov, 9)  # 8^9 > guard
    with pytest.raises(ValueError):
        iterate_cover(cov, 0)


def test_iterate_dedup():
    space = LpSpace(1, 2.0)
    cov = BallCovering(space, [[0.0], [0.0]], 0.5, True, "dup")
    it = iterate_cover(cov, 2)
    assert len(it) == 4


def test_covering_validation():
    space = LpSpace(2, 2.0)
    with pytest.raises(ValueError):
        BallCovering(space, [[0.0, 0.0]], 0.0, True, "bad radius")
    with pytest.raises(ValueError):
        BallCovering(space, [[0.0, 0.0]], 1.5, True, "bad radius")
    with pytest.raises(ValueError):
        BallCovering(space, [[0.0, 0.0, 0.0]], 0.5, True, "bad shape")
    with pytest.raises(ValueError):
        BallCovering(space, [[5.0, 0.0]], 0.5, True, "unreachable").check_reach()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BallCovering(space, [[bad, 0.0]], 0.5, True, "non-finite")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_reach_rejects_centers_poisoned_after_construction(bad):
    cov, _ = axis_cover(3)
    cov.centers[1, 2] = bad
    with pytest.raises(ValueError, match="cannot reach"):
        cov.check_reach()


def test_margin_validation():
    with pytest.raises(ValueError):
        CoverMargin("bogus", 0.1)
    with pytest.raises(ValueError):
        CoverMargin(UNIFORM, -0.1)


@pytest.mark.parametrize("kind", [STRICT_OPEN, UNIFORM])
def test_margin_rejects_nan(kind):
    with pytest.raises(ValueError, match="nonnegative"):
        CoverMargin(kind, math.nan)


def test_banach_simplex_search_euclidean_consistency():
    space = LpSpace(2, 2.0)
    a, cov = banach_simplex_search(space, smoothness_majorant_for(space), 4000, seed=30)
    assert a is not None and a >= 0.25  # a = 1/(2d) is guaranteed to work
    assert len(cov) == 3


def test_banach_simplex_search_l4():
    space = LpSpace(2, 4.0)
    a, cov = banach_simplex_search(space, smoothness_majorant_for(space), 4000, seed=31)
    assert a is not None and a > 0.0
    pts = _samples(2, 1000, seed=32, p=4.0)
    dists = np.min(
        np.array([np.linalg.norm(pts - c[None, :], ord=4.0, axis=1) for c in cov.centers]), axis=0
    )
    assert np.all(dists < 1.0)


def test_banach_simplex_search_d8():
    space = LpSpace(8, 2.0)
    a, cov = banach_simplex_search(space, smoothness_majorant_for(space), 4000, seed=33)
    assert a is not None and a >= 1.0 / 16.0


def test_banach_simplex_search_large_d_skips_unreachable_steps():
    # at d = 17 the a = 1/2 layout puts the last center beyond reach; the
    # search must walk down the grid instead of failing
    space = LpSpace(17, 2.0)
    a, cov = banach_simplex_search(space, smoothness_majorant_for(space), 2000, seed=34)
    assert a is not None and a >= 1.0 / 34.0
    assert len(cov) == 18
