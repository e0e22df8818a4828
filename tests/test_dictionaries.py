import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover import dictionaries
from ballcover.dictionaries import (
    DUPLICATE_TOL,
    GREEDY_BLOCK,
    Dictionary,
    coherence_banach,
    coherence_matrix,
    greedy_maximal_dictionary,
    numeric_rank,
)
from ballcover.frames import etf_from_hadamard
from ballcover.hadamard import sylvester
from ballcover.serialize import dictionary_from_dict
from ballcover.spaces import LpSpace, norming_coords, norms, sample_sphere, sphere_from_rng


def _dict2(vectors, p=2.0):
    vectors = np.asarray(vectors, dtype=float)
    return Dictionary(space=LpSpace(vectors.shape[1], p), vectors=vectors)


def test_dictionary_validation():
    with pytest.raises(ValueError):
        _dict2([[1.0, 1.0]])  # not unit norm
    with pytest.raises(ValueError):
        _dict2([[1.0, 0.0], [1.0, 0.0]])  # duplicate
    with pytest.raises(ValueError, match="finite"):
        _dict2([[math.nan, 0.0], [0.0, 1.0]])
    assert len(_dict2([[1.0, 0.0]])) == 1


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 5),
    p=st.sampled_from([1.5, 2.0, 4.0, math.inf]),
    bad=_NON_FINITE,
    data=st.data(),
)
def test_dictionary_rejects_non_finite(n, d, p, bad, data):
    space = LpSpace(d, p)
    v = sample_sphere(space, n, seed=n * 10 + d)
    v[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))] = bad
    with pytest.raises(ValueError, match="finite"):
        Dictionary(space=space, vectors=v)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), d=st.integers(1, 4), bad=_NON_FINITE, data=st.data())
def test_dictionary_from_dict_rejects_non_finite(n, d, bad, data):
    vectors = sample_sphere(LpSpace(d, 4.0), n, seed=n * 10 + d).tolist()
    vectors[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, d - 1))] = bad
    obj = {"space": {"d": d, "p": 4.0}, "vectors": vectors, "trials": None}
    with pytest.raises(ValueError, match="finite"):
        dictionary_from_dict(obj)


def test_coherence_orthonormal():
    assert coherence_banach(_dict2(np.identity(3))) == 0.0


def test_coherence_known_pair():
    d = _dict2([[1.0, 0.0], [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)]])
    assert coherence_banach(d) == pytest.approx(2.0 ** -0.5, rel=1e-14)


def test_coherence_etf_order4():
    frame = etf_from_hadamard(sylvester(2))
    d = Dictionary(LpSpace(frame.dim, 2.0), frame.matrix.T.copy())
    assert coherence_banach(d) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_coherence_errors():
    with pytest.raises(ValueError):
        coherence_banach(_dict2([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        coherence_banach(
            Dictionary(space=LpSpace(2, math.inf), vectors=np.identity(2))
        )


def test_banach_equals_euclidean_at_p2():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.standard_normal((5, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        g = v @ v.T
        np.fill_diagonal(g, 0.0)
        assert coherence_banach(_dict2(v)) == pytest.approx(np.max(np.abs(g)), abs=1e-12)


def test_banach_disjoint_supports():
    assert coherence_banach(_dict2(np.identity(2), p=4.0)) == 0.0


def test_banach_asymmetric_pair():
    # g1 = e1, g2 = (1,1)/2^(1/3) in l3: F_{g1}(g2) = 2^(-1/3),
    # F_{g2}(g1) = 2^(-2/3); coherence takes the larger direction
    g2 = np.array([1.0, 1.0]) / 2.0 ** (1.0 / 3.0)
    d = _dict2([[1.0, 0.0], g2], p=3.0)
    assert coherence_banach(d) == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-12)


def test_sign_flip_invariance():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((6, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    base = coherence_banach(_dict2(v))
    flipped = v * rng.choice([-1.0, 1.0], size=(6, 1))
    assert coherence_banach(_dict2(flipped)) == pytest.approx(base, abs=1e-14)
    perm = v[rng.permutation(6)]
    assert coherence_banach(_dict2(perm)) == pytest.approx(base, abs=1e-14)


def test_coherence_matrix_identity():
    c = coherence_matrix(_dict2(np.identity(4)))
    np.testing.assert_allclose(c, np.identity(4), atol=1e-14)
    assert numeric_rank(c) == 4


def test_coherence_matrix_etf():
    frame = etf_from_hadamard(sylvester(2))
    d = Dictionary(LpSpace(frame.dim, 2.0), frame.matrix.T.copy())
    c = coherence_matrix(d)
    assert np.max(np.abs(np.diag(c) - 1.0)) <= 1e-12
    off = c - np.diag(np.diag(c))
    assert np.max(np.abs(off[off != 0] + 1.0 / 3.0)) <= 1e-12
    assert numeric_rank(c) == 3


def test_coherence_matrix_rank_bound():
    # numeric rank <= d for random overcomplete dictionaries, p != 2 included
    rng = np.random.default_rng(10)
    for trial in range(20):
        p = (2.0, 3.0, 4.0)[trial % 3]
        d = 3
        space = LpSpace(d, p)
        v = sample_sphere(space, 6, seed=100 + trial)
        mat = coherence_matrix(Dictionary(space=space, vectors=v))
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[d] <= 1e-9 * s[0]
        assert numeric_rank(mat) <= d


def test_coherence_matrix_bounded_by_coherence():
    space = LpSpace(3, 4.0)
    v = sample_sphere(space, 5, seed=11)
    d = Dictionary(space=space, vectors=v)
    c = coherence_matrix(d)
    off = c - np.diag(np.diag(c))
    assert np.max(np.abs(off)) <= coherence_banach(d) + 1e-12


def test_greedy_small_dimension():
    space = LpSpace(2, 2.0)
    d = greedy_maximal_dictionary(space, 0.1, seed=1)
    assert len(d) >= 2
    assert coherence_banach(d) <= 0.1
    assert d.trials_used is not None and d.trials_used >= len(d)


def test_greedy_one_dimensional():
    d = greedy_maximal_dictionary(LpSpace(1, 2.0), 0.5, seed=2)
    assert len(d) == 1
    assert abs(abs(d.vectors[0, 0]) - 1.0) <= 1e-12


def test_greedy_d8_size_and_coherence():
    space = LpSpace(8, 2.0)
    d = greedy_maximal_dictionary(space, 0.4, seed=3)
    m = coherence_banach(d)
    assert m <= 0.4
    assert len(d) >= 9  # mu >= 1/d admits at least a simplex frame
    fitted_c1 = math.log(len(d)) / (8 * 0.16 * math.log(5.0))
    assert fitted_c1 > 0.0
    assert len(d) <= math.exp(fitted_c1 * 8 * 0.16 * math.log(5.0)) + 1e-9


def test_greedy_banach():
    space = LpSpace(4, 4.0)
    d = greedy_maximal_dictionary(space, 0.5, seed=4)
    assert len(d) >= 2
    assert coherence_banach(d) <= 0.5


def test_greedy_validation():
    with pytest.raises(ValueError):
        greedy_maximal_dictionary(LpSpace(2, 2.0), 1.5, seed=0)
    with pytest.raises(ValueError):
        greedy_maximal_dictionary(LpSpace(2, math.inf), 0.5, seed=0)


def test_greedy_deterministic():
    space = LpSpace(3, 2.0)
    a = greedy_maximal_dictionary(space, 0.5, seed=7)
    b = greedy_maximal_dictionary(space, 0.5, seed=7)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.trials_used == b.trials_used


def _replay_greedy(space, mu, seed, saturation):
    # one candidate at a time, in the order of the same blocks of draws
    rng = np.random.default_rng(seed)
    vecs, trials, rejected = [], 0, 0
    while True:
        for x in sphere_from_rng(space, GREEDY_BLOCK, rng):
            if rejected == saturation:
                return np.asarray(vecs), trials
            trials += 1
            fx = norming_coords(space, x[None, :])[0]
            admit = all(
                abs(fx @ g) <= mu and abs(norming_coords(space, g[None, :])[0] @ x) <= mu
                for g in vecs
            )
            if admit and vecs:
                admit = float(np.min(norms(space, np.asarray(vecs) - x))) >= DUPLICATE_TOL
            if admit:
                vecs.append(x)
                rejected = 0
            else:
                rejected += 1


@pytest.mark.parametrize(
    "d, p, mu, saturation",
    [(4, 2.0, 0.5, 40), (6, 2.0, 0.3, 700), (4, 4.0, 0.5, 40), (5, 4.0, 0.5, 700)],
)
@pytest.mark.parametrize("seed", [0, 5])
def test_greedy_replays_one_at_a_time(monkeypatch, d, p, mu, saturation, seed):
    space = LpSpace(d, p)
    monkeypatch.setattr(dictionaries, "SATURATION_TRIALS", saturation)
    got = greedy_maximal_dictionary(space, mu, seed)
    vecs, trials = _replay_greedy(space, mu, seed, saturation)
    assert np.array_equal(got.vectors, vecs)
    assert got.trials_used == trials
    assert type(got.trials_used) is int
    if saturation < GREEDY_BLOCK:
        assert trials % GREEDY_BLOCK != 0  # the stop lands mid-block
    else:
        assert trials > 2 * GREEDY_BLOCK  # the build crosses block boundaries
