import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover.cli import run_selftest
from ballcover.coverings import axis_cover, etf_cover, iterate_cover
from ballcover.dictionaries import Dictionary
from ballcover.hadamard import sylvester
from ballcover.serialize import (
    covering_from_dict,
    covering_to_dict,
    dictionary_from_dict,
    dictionary_to_dict,
    dumps,
    report_to_dict,
    space_from_dict,
    space_to_dict,
)
from ballcover.spaces import LpSpace
from ballcover.verify import certify_sampling


def test_space_roundtrip():
    for p in (2.0, 1.5, math.inf):
        space = LpSpace(3, p)
        again = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
        assert again == space


def test_covering_roundtrip_exact():
    cov, _ = axis_cover(3)
    blob = json.dumps(covering_to_dict(cov, seed=5))
    again = covering_from_dict(json.loads(blob))
    assert np.array_equal(again.centers, cov.centers)
    assert again.radius == cov.radius
    assert again.closed == cov.closed
    assert again.provenance == cov.provenance
    assert again.space == cov.space


def test_iterated_covering_roundtrip():
    cov = iterate_cover(axis_cover(2)[0], 2)
    again = covering_from_dict(json.loads(json.dumps(covering_to_dict(cov))))
    assert np.array_equal(again.centers, cov.centers)
    assert again.radius == cov.radius


def test_dictionary_roundtrip():
    d = Dictionary(space=LpSpace(2, 4.0), vectors=np.identity(2), trials_used=17)
    again = dictionary_from_dict(json.loads(json.dumps(dictionary_to_dict(d, seed=1))))
    assert np.array_equal(again.vectors, d.vectors)
    assert again.trials_used == 17
    assert again.space == d.space


def test_report_dict_excludes_elapsed_by_default():
    cov, _ = axis_cover(2)
    report = certify_sampling(cov, 100, 100, seed=3)
    out = report_to_dict(report)
    assert "elapsed" not in out
    assert out["passed"] is True
    assert out["seed"] == 3


def test_dumps_deterministic_and_sorted():
    text = dumps({"b": 1, "a": [1.5, 2.25]})
    assert text == dumps({"a": [1.5, 2.25], "b": 1})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
        assert dumps(obj) == _reference(obj)


_GOLDEN = {
    "sylvester-10": lambda: {"order": 1024, "rows": sylvester(10).entries.tolist()},
    "etf-cover-255": lambda: covering_to_dict(etf_cover(255)[0], seed=1),
    "iterated-axis-16": lambda: covering_to_dict(iterate_cover(axis_cover(16)[0], 2), seed=1),
    "selftest-7": lambda: run_selftest(7),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_dumps_golden_payloads(name):
    obj = _GOLDEN[name]()
    assert dumps(obj) == _reference(obj)


@pytest.mark.parametrize(
    "obj", [{(1, 2): 0}, {1: 0, "a": 1}, [object()], {"a": {1, 2}}, [[1], np.int64(3)]]
)
def test_dumps_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _reference(obj)
    with pytest.raises(TypeError):
        dumps(obj)


@pytest.mark.parametrize("kind", ["list", "dict"])
def test_dumps_nests_as_deep_as_json(kind):
    # one frame per level, as in json: a depth past half the recursion limit
    # still writes, where two frames per level overflowed
    obj = 1
    for _ in range(sys.getrecursionlimit() // 2 + 100):
        obj = [obj] if kind == "list" else {"k": obj}
    assert dumps(obj) == _reference(obj)
