import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # sylvester's one allocation is the np.empty array it fills in place
        monkeypatch.setattr(np, "empty", refuse)
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


def _oracle(m) -> bool:
    # independent of verify_hadamard: +-1 values and the exact integer product
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        return False
    if not np.isin(m, (-1, 1)).all():
        return False
    z = m.astype(np.int64)
    return bool(np.array_equal(z.T @ z, m.shape[0] * np.identity(m.shape[0], dtype=np.int64)))


@pytest.fixture
def core_orders(monkeypatch):
    """Record the order of every core the exact Gram product is taken of."""
    orders = []
    gram = hadamard._gram

    def recorded(entries):
        orders.append(entries.shape[0])
        return gram(entries)

    monkeypatch.setattr(hadamard, "_gram", recorded)
    return orders


def _paley(q: int) -> np.ndarray:
    # Paley's first construction for a prime q = 3 mod 4: order q + 1
    squares = {x * x % q for x in range(1, q)}
    chi = np.array([0] + [1 if x in squares else -1 for x in range(1, q)], dtype=np.int64)
    jacobsthal = chi[(np.arange(q)[None, :] - np.arange(q)[:, None]) % q]
    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:], s[1:, 0], s[1:, 1:] = 1, -1, jacobsthal
    return s + np.identity(q + 1, dtype=np.int64)


def test_paley_order12_is_checked_whole(core_orders):
    m = _paley(11)
    assert _oracle(m)
    assert verify_hadamard(m) is True
    assert core_orders == [12]  # no doubling form, so nothing peels


def test_doubling_form_over_a_non_hadamard_core_fails(core_orders):
    m = np.ones((2, 2), dtype=np.int64)
    for _ in range(2):
        m = np.block([[m, m], [m, -m]])
    assert not _oracle(m)
    assert verify_hadamard(m) is False
    assert core_orders == [2]  # two levels peel; the core fails its product


def test_sylvester_peels_to_one_entry(core_orders):
    h = sylvester(6).entries
    core_orders.clear()  # the constructor's own check
    assert verify_hadamard(h) is True
    assert core_orders == [1]


@pytest.mark.parametrize("size", [16, 8, 4, 2])
@pytest.mark.parametrize("quadrant", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_one_flipped_entry_fails_at_every_level(size, quadrant):
    half = size // 2
    for offset in sorted({0, half - 1}):
        m = sylvester(4).entries.copy()
        i, j = quadrant[0] * half + offset, quadrant[1] * half + offset
        m[i, j] = -m[i, j]
        assert not _oracle(m)
        assert verify_hadamard(m) is False


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.float32, np.float64])
def test_bool_unsigned_and_float_input_give_a_bool(dtype):
    h = sylvester(3).entries
    # -1 becomes 255 in uint8 and True in bool, so only all-ones matrices keep +-1 values
    cases = [h, h[:1, :1], np.ones((2, 2), dtype=np.int64), np.abs(h), -h, np.zeros((2, 2), dtype=np.int64)]
    cases = [c.astype(dtype) for c in cases]
    for m in cases:
        verdict = verify_hadamard(m)
        assert type(verdict) is bool
        assert verdict == _oracle(m)


def test_sylvester_equals_the_block_recursion():
    h = np.array([[1]], dtype=np.int64)
    for k in range(11):
        built = sylvester(k).entries
        assert built.dtype == np.int64
        assert np.array_equal(built, h)
        h = np.block([[h, h], [h, -h]])


_SIGNS = st.sampled_from([-1, 1])


@st.composite
def _plus_minus_one(draw):
    # a random +-1 core doubled a random number of times, so that some draws
    # peel; then maybe one entry flipped, and maybe the rows permuted
    k = draw(st.integers(0, 4))
    if draw(st.booleans()):
        m = sylvester(draw(st.integers(0, 4 - k))).entries.copy()  # a Hadamard core
    else:
        n = draw(st.integers(1, 16 >> k))
        m = np.array(draw(st.lists(_SIGNS, min_size=n * n, max_size=n * n)), dtype=np.int64).reshape(n, n)
    for _ in range(k):
        m = np.block([[m, m], [m, -m]])
    if draw(st.booleans()):
        i, j = draw(st.integers(0, m.shape[0] - 1)), draw(st.integers(0, m.shape[0] - 1))
        m[i, j] = -m[i, j]
    if draw(st.booleans()):
        m = m[draw(st.permutations(range(m.shape[0])))]
    return m


@settings(max_examples=400, deadline=None)
@given(m=_plus_minus_one())
def test_verify_agrees_with_the_integer_product(m):
    assert verify_hadamard(m) is _oracle(m)
