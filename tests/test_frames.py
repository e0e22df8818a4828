import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover.frames import GRAM_TOL, TightFrame, etf_from_hadamard, verify_frame_identities
from ballcover.hadamard import HadamardMatrix, sylvester
from ballcover.spaces import LpSpace, sample_sphere


def _gram(frame):
    return frame.matrix.T @ frame.matrix


def _gram_target(n):
    return (1.0 + 1.0 / n) * np.identity(n + 1) - np.full((n + 1, n + 1), 1.0 / n)


def test_order2_frame():
    frame = etf_from_hadamard(sylvester(1))
    assert frame.dim == 1
    np.testing.assert_allclose(frame.matrix, [[1.0, -1.0]])
    assert float(frame.matrix[:, 0] @ frame.matrix[:, 1]) == -1.0


def test_order4_gram():
    frame = etf_from_hadamard(sylvester(2))
    g = _gram(frame)
    assert np.max(np.abs(np.diag(g) - 1.0)) <= 1e-12
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off[off != 0] + 1.0 / 3.0)) <= 1e-12


def test_order8_gram():
    g = _gram(etf_from_hadamard(sylvester(3)))
    assert np.max(np.abs(g - _gram_target(7))) <= 1e-12


@pytest.mark.parametrize("k", range(1, 8))
def test_gram_closed_form(k):
    frame = etf_from_hadamard(sylvester(k))
    assert np.max(np.abs(_gram(frame) - _gram_target(frame.dim))) <= 1e-12
    assert frame.gram_deviation() == np.max(np.abs(_gram(frame) - _gram_target(frame.dim)))
    assert frame.gram_deviation() <= GRAM_TOL


def test_identities_basis_vector():
    frame = etf_from_hadamard(sylvester(2))
    x = np.array([1.0, 0.0, 0.0])
    assert max(verify_frame_identities(frame, x)) <= 1e-10


def test_identities_zero_vector():
    frame = etf_from_hadamard(sylvester(2))
    ra, rb, rc = verify_frame_identities(frame, np.zeros(3))
    assert ra == 0.0
    assert rb <= 1e-12
    assert rc == 0.0


@pytest.mark.parametrize("k", range(1, 9))
def test_identities_random(k):
    frame = etf_from_hadamard(sylvester(k))
    for x in sample_sphere(LpSpace(frame.dim, 2.0), 100, seed=k):
        assert max(verify_frame_identities(frame, x)) <= 1e-10


def test_perturbed_frame_detected():
    frame = etf_from_hadamard(sylvester(2))
    broken = frame.matrix.copy()
    broken[:, 0] *= 1.1
    bad = TightFrame(dim=3, matrix=broken)
    x = sample_sphere(LpSpace(3, 2.0), 1, seed=0)[0]
    assert verify_frame_identities(bad, x)[0] > 1e-3
    assert not bad.gram_deviation() <= GRAM_TOL


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_validate_rejects_non_finite(k, bad, data):
    frame = etf_from_hadamard(sylvester(k))
    broken = frame.matrix.copy()
    broken[data.draw(st.integers(0, frame.dim - 1)), data.draw(st.integers(0, frame.dim))] = bad
    bad_frame = TightFrame(dim=frame.dim, matrix=broken)
    assert not bad_frame.gram_deviation() <= GRAM_TOL


def test_requires_all_ones_first_row():
    flipped = sylvester(2).entries.copy()
    flipped[:, 1] *= -1
    with pytest.raises(ValueError):
        etf_from_hadamard(HadamardMatrix(flipped))
