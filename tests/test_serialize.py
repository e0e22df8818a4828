import io
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ballcover import serialize
from ballcover.cli import run_selftest
from ballcover.coverings import axis_cover, etf_cover, iterate_cover
from ballcover.dictionaries import Dictionary
from ballcover.frames import etf_from_hadamard
from ballcover.hadamard import sylvester
from ballcover.serialize import (
    covering_from_dict,
    covering_to_dict,
    dictionary_from_dict,
    dictionary_to_dict,
    dump,
    dumps,
    space_from_dict,
    space_to_dict,
)
from ballcover.spaces import LpSpace


def test_space_roundtrip():
    for p in (2.0, 1.5, math.inf):
        space = LpSpace(3, p)
        again = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
        assert again == space


def test_covering_roundtrip_exact():
    cov, _ = axis_cover(3)
    blob = dumps(covering_to_dict(cov))
    again = covering_from_dict(json.loads(blob))
    assert np.array_equal(again.centers, cov.centers)
    assert again.radius == cov.radius
    assert again.closed == cov.closed
    assert again.provenance == cov.provenance
    assert again.space == cov.space


def test_iterated_covering_roundtrip():
    cov = iterate_cover(axis_cover(2)[0], 2)
    again = covering_from_dict(json.loads(dumps(covering_to_dict(cov))))
    assert np.array_equal(again.centers, cov.centers)
    assert again.radius == cov.radius


@pytest.mark.parametrize("closed", ["false", "true", 0, 1, None])
def test_covering_loader_rejects_non_boolean_closed(closed):
    blob = covering_to_dict(axis_cover(2)[0])
    blob["closed"] = closed
    with pytest.raises(ValueError, match="closed"):
        covering_from_dict(blob)


def test_loaders_reject_non_integral_dimension():
    blob = covering_to_dict(axis_cover(2)[0])
    blob["space"]["d"] = 2.9
    with pytest.raises(ValueError, match="dimension"):
        covering_from_dict(blob)
    d = Dictionary(space=LpSpace(2, 4.0), vectors=np.identity(2), trials_used=None)
    blob = dictionary_to_dict(d)
    blob["space"]["d"] = 2.9
    with pytest.raises(ValueError, match="dimension"):
        dictionary_from_dict(blob)


def test_dictionary_roundtrip():
    d = Dictionary(space=LpSpace(2, 4.0), vectors=np.identity(2), trials_used=17)
    again = dictionary_from_dict(json.loads(dumps(dictionary_to_dict(d))))
    assert np.array_equal(again.vectors, d.vectors)
    assert again.trials_used == 17
    assert again.space == d.space


def test_dumps_deterministic_and_sorted():
    text = dumps({"b": 1, "a": [1.5, 2.25]})
    assert text == dumps({"a": [1.5, 2.25], "b": 1})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def _dump_text(obj) -> str:
    fh = io.StringIO()
    dump(obj, fh)
    return fh.getvalue()


# the artefact text as a string, and streamed into a file
_WRITERS = (dumps, _dump_text)


def _written(obj) -> list[str]:
    return [write(obj) for write in _WRITERS]


# values that are equal under == but print differently, or print as NaN/Infinity
_PITFALLS = [0.0, -0.0, 1, 1.0, True, False, math.nan, math.inf, -math.inf, 2**63, -(2**64) - 1, None]
_STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00", " ", "é", "日本", "\U0001f600"]))
_SCALARS = st.one_of(
    st.sampled_from(_PITFALLS),
    st.integers(),
    st.floats(),
    _STRINGS,
)
# flat lists drawn from a few values, so they hold the repeats that runs are made of
_RUNS = st.one_of(
    st.lists(st.sampled_from([-1, 1])),
    st.lists(st.sampled_from([0.5, -0.25, 1e-300])),
    st.lists(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5]), min_size=2),
    st.lists(st.sampled_from(_PITFALLS[:6]), min_size=2),
    st.lists(st.sampled_from(_PITFALLS), min_size=1),
    st.lists(st.integers(), min_size=1).map(lambda xs: xs * 3),
    st.lists(st.floats(), min_size=1).map(lambda xs: xs * 3),
    st.lists(_SCALARS),
)
_KEYS = [_STRINGS, st.integers(), st.floats(), st.booleans(), st.none()]
_TREES = st.recursive(
    st.one_of(_SCALARS, _RUNS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        *(st.dictionaries(key, children, max_size=4) for key in _KEYS),
    ),
    max_leaves=30,
)


@pytest.mark.parametrize("c_make_encoder", [json.encoder.c_make_encoder, None], ids=["c", "python"])
@settings(max_examples=300, deadline=None)
@given(obj=_TREES)
def test_dumps_equals_json_indent(c_make_encoder, obj):
    with mock.patch.object(json.encoder, "c_make_encoder", c_make_encoder):
        assert _written(obj) == [_reference(obj)] * 2


# array leaves of every dtype dumps writes from the array, or through tolist
_DTYPES = [np.int8, np.int64, np.uint64, np.float32, np.float64, np.bool_]
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)


def _arrays(dtype):
    if dtype == np.bool_:
        return hnp.arrays(dtype, _SHAPES)
    if np.dtype(dtype).kind == "f":
        floats = st.one_of(st.sampled_from([v for v in _PITFALLS if type(v) is float] + [1e-300, 1e16]), st.floats())
        # drawn as float64, so float32 arrays also hold the values that round
        return hnp.arrays(np.float64, _SHAPES, elements=floats).map(lambda a: _cast(a, dtype))
    info = np.iinfo(dtype)
    # the extremes make value ranges wider than the size
    ints = st.one_of(st.sampled_from([info.min, info.max, 0, 1]), st.integers(info.min, info.max))
    return hnp.arrays(dtype, _SHAPES, elements=ints)


def _cast(a, dtype):
    with np.errstate(over="ignore"):
        return a.astype(dtype)


_ARRAY_TREES = st.recursive(
    st.one_of(_SCALARS, _RUNS, st.sampled_from(_DTYPES).flatmap(_arrays)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_STRINGS, children, max_size=4),
    ),
    max_leaves=10,
)


@pytest.mark.parametrize("c_make_encoder", [json.encoder.c_make_encoder, None], ids=["c", "python"])
@settings(max_examples=300, deadline=None)
@given(obj=_ARRAY_TREES)
def test_dumps_equals_json_with_array_leaves(c_make_encoder, obj):
    with mock.patch.object(json.encoder, "c_make_encoder", c_make_encoder):
        assert _written(obj) == [_reference(obj)] * 2


@pytest.mark.parametrize(
    "a",
    [
        np.arange(36).reshape(3, 4, 3),
        np.arange(24.0).reshape(2, 1, 3, 4) - 11.5,
        np.arange(14).reshape(2, 7) % 3,
        np.linspace(-1.0, 1.0, 17),
    ],
    ids=["int-3d", "float-4d", "long-rows", "flat"],
)
def test_dumps_joins_rows_in_blocks(monkeypatch, a):
    whole = dumps({"a": a})
    # five entries a block: one row in each, rows of 7 overrun it
    monkeypatch.setattr(serialize, "_BLOCK_ENTRIES", 5)
    assert _written({"a": a}) == [whole] * 2
    assert whole == _reference({"a": a})


def test_dumps_writes_subclasses_and_strided_arrays_as_json_does():
    masked = np.ma.masked_array([1.0, -0.0, 2.0], mask=[True, False, False])
    cases = [masked, np.arange(12).reshape(3, 4).T, np.arange(10.0)[::3], np.array([1.5, -2.0], dtype=">f8")]
    for a in cases:
        assert _written([a]) == [_reference([a])] * 2


_GOLDEN = {
    "sylvester-10": lambda: {"order": 1024, "rows": sylvester(10).entries.tolist()},
    "sylvester-10-array": lambda: {"order": 1024, "rows": sylvester(10).entries},
    "etf-frame-256-array": lambda: {"vectors": etf_from_hadamard(sylvester(8)).matrix.T},
    "etf-cover-255": lambda: covering_to_dict(etf_cover(255)[0]),
    "iterated-axis-16": lambda: covering_to_dict(iterate_cover(axis_cover(16)[0], 2)),
    "selftest-7": lambda: run_selftest(7),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_dumps_golden_payloads(name):
    obj = _GOLDEN[name]()
    assert _written(obj) == [_reference(obj)] * 2


@pytest.mark.parametrize(
    "obj", [{(1, 2): 0}, {1: 0, "a": 1}, [object()], {"a": {1, 2}}, [[1], np.int64(3)]]
)
def test_dumps_rejects_what_json_rejects(obj):
    for write in (_reference, *_WRITERS):
        with pytest.raises(TypeError):
            write(obj)


@pytest.mark.parametrize("kind", ["list", "dict"])
def test_dumps_nests_as_deep_as_json(kind):
    # one frame per level, as in json: a depth past half the recursion limit
    # still writes, where two frames per level overflowed
    obj = 1
    for _ in range(sys.getrecursionlimit() // 2 + 100):
        obj = [obj] if kind == "list" else {"k": obj}
    assert _written(obj) == [_reference(obj)] * 2


def test_dump_streams_an_array_block_by_block():
    # no piece holds the whole text: the order-1024 rows arrive in 16 blocks of 64 rows
    obj = {"order": 1024, "rows": sylvester(10).entries}
    pieces = []
    dump(obj, mock.Mock(write=pieces.append))
    text = "".join(pieces)
    assert text == dumps(obj)
    assert max(map(len, pieces)) < len(text) / 15
