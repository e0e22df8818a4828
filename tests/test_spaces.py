import math

import numpy as np
import pytest

import ballcover.spaces as spaces
from ballcover.spaces import (
    LpSpace,
    SmoothnessMajorant,
    ball_from_rng,
    norm,
    norming_coords,
    norms,
    sample_sphere,
    smoothness_majorant_for,
    sphere_from_rng,
    solve_step_size,
    solve_step_size_bisect,
)


def test_space_validation():
    with pytest.raises(ValueError):
        LpSpace(0, 2.0)
    with pytest.raises(ValueError):
        LpSpace(3, 1.0)
    assert LpSpace(3, math.inf).q == 1.0
    assert LpSpace(3, 2.0).q == 2.0
    assert LpSpace(3, 4.0).q == pytest.approx(4.0 / 3.0, rel=1e-15)
    space = LpSpace(np.int64(3), np.float64(4.0))
    assert space == LpSpace(3, 4.0) and type(space.d) is int and type(space.p) is float


@pytest.mark.parametrize("d, p", [(True, 2.0), (None, 2.0), ("3", 2.0), (math.inf, 2.0), (math.nan, 2.0),
                                  (3, None), (3, "2"), (3, True)])
def test_space_rejects_non_numbers(d, p):
    with pytest.raises(ValueError):
        LpSpace(d, p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 3.5, 4.0, math.inf])
def test_norms_bit_identical_to_linalg(p):
    rng = np.random.default_rng(30)
    xs = rng.standard_normal((60, 7)) * 10.0 ** rng.integers(-5, 5, size=(60, 1))
    xs[[3, 41]] = 0.0
    for rows in (xs, np.asfortranarray(xs)):
        np.testing.assert_array_equal(norms(LpSpace(7, p), rows), np.linalg.norm(xs, ord=p, axis=1))


def _old_sphere_from_rng(space, n, rng):
    # the sampler as it normalised its rows with np.linalg.norm(keepdims=True)
    d, p = space.d, space.p
    if math.isinf(p):
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        return x / np.max(np.abs(x), axis=1, keepdims=True)
    mag = rng.gamma(1.0 / p, 1.0, size=(n, d)) ** (1.0 / p)
    sgn = rng.integers(0, 2, size=(n, d)) * 2.0 - 1.0
    x = sgn * mag
    return x / np.linalg.norm(x, ord=p, axis=1, keepdims=True)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.5, 4.0, math.inf])
@pytest.mark.parametrize("d", [1, 8, 33])
def test_sphere_from_rng_bits_match_linalg_normalisation(p, d):
    space = LpSpace(d, p)
    for seed in (0, 1, 97):
        np.testing.assert_array_equal(
            sphere_from_rng(space, 300, np.random.default_rng(seed)),
            _old_sphere_from_rng(space, 300, np.random.default_rng(seed)),
        )


def _old_ball_from_rng(space, n, rng):
    x = _old_sphere_from_rng(space, n, rng)
    return x * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / space.d)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.5, 4.0, math.inf])
@pytest.mark.parametrize("d", [1, 8, 33])
def test_sampler_in_blocks_keeps_the_bits_and_the_stream(monkeypatch, p, d):
    # blocks of 1 to 32 rows: the draws go in the formulas' order across
    # blocks, so the rows and the generator's state after them are the same
    monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", 1 << 7)
    space = LpSpace(d, p)
    for new, old in ((sphere_from_rng, _old_sphere_from_rng), (ball_from_rng, _old_ball_from_rng)):
        for n in (0, 1, 45):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            assert new(space, n, rng).tobytes() == old(space, n, ref).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("entries", [1 << 18, 1 << 7])
def test_sampler_signs_replay_the_integer_draw(monkeypatch, p, entries):
    # the sign of each coordinate is 2 * integers(0, 2) - 1, drawn after
    # every magnitude, for sphere and ball rows alike (radii are positive)
    monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", entries)
    space, n = LpSpace(7, p), 120
    for sample in (sphere_from_rng, ball_from_rng):
        x = sample(space, n, np.random.default_rng(5))
        replay = np.random.default_rng(5)
        replay.standard_gamma(1.0 / p, size=(n, 7))
        signs = 2 * replay.integers(0, 2, size=(n, 7)) - 1
        np.testing.assert_array_equal(np.copysign(1.0, x), signs)


def test_norm_pythagorean():
    assert norm(LpSpace(2, 2.0), [3.0, 4.0]) == 5.0


def test_norm_linf_max_modulus():
    assert norm(LpSpace(3, math.inf), [1.0, -1.0, 0.5]) == 1.0


def test_norm_p4():
    # direct evaluation of (1 + 1)^(1/4)
    assert norm(LpSpace(2, 4.0), [1.0, 1.0]) == pytest.approx(2.0 ** 0.25, rel=1e-15)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm(LpSpace(3, 2.0), [1.0, 2.0])


def _functional(space, x):
    return norming_coords(space, np.asarray(x, dtype=float)[None, :])[0]


def test_norming_functional_euclidean():
    f = _functional(LpSpace(2, 2.0), [0.0, 2.0])
    np.testing.assert_allclose(f, [0.0, 1.0], atol=1e-15)


def test_norming_functional_p4():
    space = LpSpace(2, 4.0)
    f = _functional(space, [1.0, 1.0])
    np.testing.assert_allclose(f, [2.0 ** -0.75, 2.0 ** -0.75], rtol=1e-14)
    assert float(f @ [1.0, 1.0]) == pytest.approx(2.0 ** 0.25, rel=1e-14)
    assert np.linalg.norm(f, ord=space.q) == pytest.approx(1.0, abs=1e-14)


def test_norming_functional_sign_handling():
    space = LpSpace(2, 3.0)
    f = _functional(space, [1.0, -1.0])
    np.testing.assert_allclose(f, [2.0 ** (-2.0 / 3.0), -(2.0 ** (-2.0 / 3.0))], rtol=1e-14)
    assert np.linalg.norm(f, ord=space.q) == pytest.approx(1.0, abs=1e-14)


def test_norming_functional_rejections():
    with pytest.raises(ValueError):
        _functional(LpSpace(2, 2.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        _functional(LpSpace(2, math.inf), [1.0, 0.0])


def test_norming_functional_random_property():
    # |F(x) - ||x||| <= 1e-12 ||x|| and | ||F||_q - 1 | <= 1e-12 over random draws
    rng = np.random.default_rng(5)
    ps = [1.5, 2.0, 3.0, 4.0, 8.0]
    for _ in range(1000):
        p = ps[rng.integers(0, len(ps))]
        d = int(rng.integers(1, 9))
        space = LpSpace(d, p)
        x = rng.standard_normal(d) * 10.0 ** rng.integers(-2, 3)
        if norm(space, x) == 0.0:
            continue
        f = _functional(space, x)
        nx = norm(space, x)
        assert abs(float(f @ x) - nx) <= 1e-12 * nx
        assert abs(np.linalg.norm(f, ord=space.q) - 1.0) <= 1e-12


def test_majorant_branches():
    m2 = smoothness_majorant_for(LpSpace(3, 2.0))
    assert (m2.gamma, m2.q_exp) == (1.0, 2.0)
    m15 = smoothness_majorant_for(LpSpace(3, 1.5))
    assert m15.gamma == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert m15.q_exp == 1.5
    m4 = smoothness_majorant_for(LpSpace(3, 4.0))
    assert (m4.gamma, m4.q_exp) == (2.0, 2.0)
    with pytest.raises(ValueError):
        smoothness_majorant_for(LpSpace(3, math.inf))


def test_majorant_validation():
    with pytest.raises(ValueError):
        SmoothnessMajorant(0.0, 2.0)
    with pytest.raises(ValueError):
        SmoothnessMajorant(1.0, 2.5)


def _sandwich_upper(space, maj, x, y, u):
    # ||x|| + u F_x(y) + 2 ||x|| omega(|u| ||y|| / ||x||), the upper end of the sandwich
    nx = norm(space, x)
    return nx + u * float(_functional(space, x) @ y) + 2.0 * nx * maj.value(abs(u) * norm(space, y) / nx)


def test_smoothness_bound_zero_step():
    space = LpSpace(2, 2.0)
    maj = smoothness_majorant_for(space)
    b = _sandwich_upper(space, maj, [1.0, 0.0], [0.0, 1.0], 0.0)
    assert b == pytest.approx(1.0, abs=1e-15)


def test_smoothness_bound_dominates():
    space = LpSpace(2, 2.0)
    maj = smoothness_majorant_for(space)  # omega(u) = u^2
    x = np.array([1.0, 0.0])
    b = _sandwich_upper(space, maj, x, x, 0.1)
    assert b == pytest.approx(1.0 + 0.1 + 2.0 * 0.01, rel=1e-14)
    assert norm(space, 1.1 * x) <= b


def test_smoothness_sandwich_random():
    # 0 <= ||x+uy|| - ||x|| - u F_x(y) <= 2 ||x|| omega(u ||y|| / ||x||) + 1e-12
    rng = np.random.default_rng(17)
    for p in (1.5, 2.0, 3.0, 4.0):
        space = LpSpace(4, p)
        maj = smoothness_majorant_for(space)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            x /= norm(space, x)
            y /= norm(space, y)
            f = _functional(space, x)
            for u in (0.01, 0.1, 0.5):
                gap = norm(space, x + u * y) - norm(space, x) - u * float(f @ y)
                assert gap >= -1e-12
                assert gap <= 2.0 * norm(space, x) * maj.value(u) + 1e-12


def test_solve_step_size_closed_form():
    # a = mu / (16 gamma) for q = 2
    assert solve_step_size(SmoothnessMajorant(0.5, 2.0), 0.25) == pytest.approx(0.03125, rel=1e-15)
    # p >= 2 convention: gamma = p/2 gives a = mu/(8p); p = 2, mu = 1/2
    assert solve_step_size(SmoothnessMajorant(1.0, 2.0), 0.5) == pytest.approx(1.0 / 32.0, rel=1e-15)


def test_solve_step_size_cap():
    assert solve_step_size(SmoothnessMajorant(1e-9, 2.0), 1.0) == 1.0


def test_solve_step_size_invalid():
    with pytest.raises(ValueError):
        solve_step_size(SmoothnessMajorant(1.0, 2.0), 0.0)


def test_step_size_root_property():
    # |a mu - 4 omega(2a)| <= 1e-10 a mu whenever a < 1
    for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
        for q in (1.25, 1.5, 2.0):
            maj = SmoothnessMajorant(gamma, q)
            for mu in (0.05, 0.25, 0.5, 1.0):
                a = solve_step_size(maj, mu)
                if a < 1.0:
                    assert abs(a * mu - 4.0 * maj.value(2.0 * a)) <= 1e-10 * a * mu


def test_bisection_agrees_with_closed_form():
    # 20-point grid including the lp conventions for p in {1.5, 2, 4, 8}
    cases = []
    for p in (1.5, 2.0, 4.0, 8.0):
        if p < 2.0:
            cases.append((1.0 / p, p))
        else:
            cases.append((p / 2.0, 2.0))
    cases += [(0.5, 2.0), (2.0, 1.75)]
    mus = (0.1, 0.25, 0.4, 0.5)
    checked = 0
    for gamma, q in cases:
        maj = SmoothnessMajorant(gamma, q)
        for mu in mus:
            closed = solve_step_size(maj, mu)
            bisected = solve_step_size_bisect(maj.value, mu)
            assert abs(closed - bisected) <= 1e-10 * closed
            checked += 1
    assert checked >= 20


def test_sample_sphere_norms():
    space = LpSpace(5, 4.0)
    xs = sample_sphere(space, 1000, seed=3)
    n = np.linalg.norm(xs, ord=4.0, axis=1)
    assert np.max(np.abs(n - 1.0)) <= 1e-12


def test_sample_sphere_coordinate_symmetry():
    n = 10000
    xs = sample_sphere(LpSpace(3, 2.0), n, seed=4)
    assert np.max(np.abs(xs.mean(axis=0))) <= 5.0 / math.sqrt(n)


def test_sample_ball_containment():
    space = LpSpace(4, 2.0)
    xs = ball_from_rng(space, 1000, np.random.default_rng(5))
    assert np.all(np.linalg.norm(xs, axis=1) <= 1.0 + 1e-12)
    cube = ball_from_rng(LpSpace(3, math.inf), 100, np.random.default_rng(6))
    assert np.all(np.abs(cube) <= 1.0 + 1e-12)


def test_sample_ball_radius_fraction():
    # area ratio in d = 2: P(||x|| <= 1/2) = 1/4
    xs = ball_from_rng(LpSpace(2, 2.0), 100000, np.random.default_rng(7))
    frac = np.mean(np.linalg.norm(xs, axis=1) <= 0.5)
    assert abs(frac - 0.25) <= 0.01


def test_sampling_deterministic():
    space = LpSpace(3, 3.0)
    assert np.array_equal(sample_sphere(space, 50, seed=9), sample_sphere(space, 50, seed=9))
    ball = [ball_from_rng(space, 50, np.random.default_rng(9)) for _ in range(2)]
    assert np.array_equal(ball[0], ball[1])
    assert not np.array_equal(sample_sphere(space, 50, seed=9), sample_sphere(space, 50, seed=10))
