import numpy as np
import pytest

from ballcover import hadamard
from ballcover.hadamard import (
    HadamardMatrix,
    sylvester,
    verify_hadamard,
)


def test_base_cases():
    assert np.array_equal(sylvester(0).entries, [[1]])
    assert np.array_equal(sylvester(1).entries, [[1, 1], [1, -1]])


def test_order8_integer_product():
    # independent oracle: exact integer matrix product
    h = sylvester(3).entries
    assert np.array_equal(h.T @ h, 8 * np.identity(8, dtype=np.int64))


def test_sylvester_verified_range():
    for k in range(9):
        h = sylvester(k)
        assert h.order == 2 ** k
        assert verify_hadamard(h.entries)
        assert np.all(h.entries[0] == 1)


def test_verify_rejects():
    assert not verify_hadamard([[1, 1], [1, 1]])
    assert not verify_hadamard(np.ones((12, 12), dtype=np.int64))
    assert not verify_hadamard(np.ones((2, 3)))
    assert not verify_hadamard([[2, 0], [0, 2]])


@pytest.mark.parametrize("bad", [0.0, 2.0, 1.5, np.nan])
def test_verify_refuses_an_entry_off_plus_minus_one(bad):
    m = sylvester(2).entries.astype(float)
    m[1, 2] = bad
    assert not verify_hadamard(m)


def test_verify_refuses_orthogonal_entries_off_plus_minus_one():
    # 2 I has M^T M = 4 I at order 4, so only the entry test refuses it
    assert not verify_hadamard(2 * np.identity(4, dtype=np.int64))


def test_constructor_rejects_invalid():
    with pytest.raises(ValueError):
        HadamardMatrix(np.ones((4, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        HadamardMatrix(np.ones((3, 3), dtype=np.int64))


def test_sign_and_permutation_invariance():
    # row/column negation and permutation preserve the Hadamard property
    rng = np.random.default_rng(3)
    h = sylvester(4).entries
    for _ in range(20):
        m = h * rng.choice([-1, 1], size=16)[None, :]
        m = m * rng.choice([-1, 1], size=16)[:, None]
        m = m[rng.permutation(16)][:, rng.permutation(16)]
        assert verify_hadamard(m)


def test_size_guards():
    with pytest.raises(ValueError):
        sylvester(21)


@pytest.fixture
def refuse_allocation(monkeypatch):
    """Arm a patch under which building or checking a matrix fails, so that a
    guard must act before either."""

    def refuse(*args, **kwargs):
        raise AssertionError("a guarded order was allocated or checked")

    def arm():
        monkeypatch.setattr(np, "block", refuse)
        monkeypatch.setattr(hadamard, "_gram", refuse)

    return arm


def test_orders_above_the_guard_fail_without_allocating(refuse_allocation):
    refuse_allocation()
    with pytest.raises(ValueError):
        sylvester(14)


def test_constructor_and_sylvester_read_the_guard(monkeypatch, refuse_allocation):
    entries = sylvester(3).entries
    monkeypatch.setattr(hadamard, "MAX_ORDER", 4)
    refuse_allocation()
    with pytest.raises(ValueError):
        sylvester(3)
    with pytest.raises(ValueError, match="guard"):
        HadamardMatrix(entries)
