"""JSON interchange for the geometric objects.

Floats serialize through repr (json's default), which round-trips exactly;
p is written as a number or the string "inf".

Artefact text is ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` byte
for byte; ``dumps`` only produces it faster. That json call formats every
element in Python, while the payloads are mostly long runs of a few distinct
numbers (Hadamard rows, frame vectors, centers). So a flat list whose items
are all exact ints or all exact floats, with at most half of them distinct,
is written as one run in which each distinct value is formatted once. Other
flat lists go through json's encoder with the same item separator, and dicts
and nested lists are written level by level around them, as pieces joined
once at the end. Set and dict order never reaches the text, so it does not
depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from operator import countOf, itemgetter

import numpy as np

from .coverings import BallCovering
from .dictionaries import Dictionary
from .spaces import LpSpace, _real

__all__ = [
    "space_to_dict",
    "space_from_dict",
    "covering_to_dict",
    "covering_from_dict",
    "dictionary_to_dict",
    "dictionary_from_dict",
    "report_to_dict",
    "dumps",
]


def space_to_dict(space: LpSpace) -> dict:
    return {"d": space.d, "p": "inf" if math.isinf(space.p) else space.p}


def _object(obj, what: str) -> dict:
    # a JSON array or scalar would fail on its first key with a TypeError
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _floats(value, what: str) -> np.ndarray:
    # float() raises TypeError for a JSON object among the entries
    try:
        return np.asarray(value, dtype=float)
    except TypeError:
        raise ValueError(f"{what} must be an array of numbers") from None


def space_from_dict(obj) -> LpSpace:
    # d and p go to LpSpace as read, which rejects a non-integral dimension and non-numbers
    p = _object(obj, "space")["p"]
    return LpSpace(obj["d"], math.inf if p == "inf" else p)


def covering_to_dict(cov: BallCovering) -> dict:
    return {
        "space": space_to_dict(cov.space),
        "centers": cov.centers.tolist(),
        "radius": cov.radius,
        "closed": cov.closed,
        "provenance": cov.provenance,
    }


def covering_from_dict(obj) -> BallCovering:
    # no reach check on load: files may carry iterated covers
    closed = _object(obj, "covering")["closed"]
    if not isinstance(closed, bool):
        # bool("false") is True, and a closed cover passes at a weaker margin
        raise ValueError(f"closed must be true or false, got {closed!r}")
    radius = obj["radius"]
    if not _real(radius):
        raise ValueError(f"radius must be a number, got {radius!r}")
    provenance = obj["provenance"]
    if not isinstance(provenance, str):
        raise ValueError(f"provenance must be a string, got {provenance!r}")
    return BallCovering(
        space=space_from_dict(obj["space"]),
        centers=_floats(obj["centers"], "centers"),
        radius=radius,
        closed=closed,
        provenance=provenance,
    )


def dictionary_to_dict(dictionary: Dictionary) -> dict:
    return {
        "space": space_to_dict(dictionary.space),
        "vectors": dictionary.vectors.tolist(),
        "trials": dictionary.trials_used,
    }


def dictionary_from_dict(obj) -> Dictionary:
    _object(obj, "dictionary")
    return Dictionary(
        space=space_from_dict(obj["space"]),
        vectors=_floats(obj["vectors"], "vectors"),
        trials_used=obj.get("trials"),
    )


def report_to_dict(report) -> dict:
    """A verify.CoverageReport's fields, the witness as a list; no timing, so artefacts are byte-identical."""
    out = asdict(report)
    if report.failure_witness is not None:
        out["failure_witness"] = report.failure_witness.tolist()
    return out


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    Equal to ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, and raises
    TypeError where that call does. Each level of nesting costs one Python
    frame, as it does in that call, so both raise RecursionError at about the
    same depth, a little under ``sys.getrecursionlimit()``. A container that
    holds itself raises RecursionError here; json raises ValueError.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append the text of obj to out; nl is a newline and the indentation of
    the line on which obj starts."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        # json sorts the (key, value) items too, so mixed key types raise alike
        for key, value in sorted(obj.items()):
            out.append(sep + _key(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("[" + inner)
        text = _flat(obj, sep)
        if text is None:
            _write(obj[0], inner, out)
            for v in obj[1:]:
                out.append(sep)
                _write(v, inner, out)
        else:
            out.append(text)
        out.append(nl + "]")
    else:
        out.append(json.dumps(obj))


def _key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)  # json quotes the scalar's text: 1.5 -> "1.5", True -> "true"
    return json.dumps(key)


def _flat(items, sep: str) -> str | None:
    """The items of a non-empty list joined by sep, or None if one of them is
    a container."""
    kind = type(items[0])
    # exact types keep True and 1.0 out of int runs, and 1 out of float runs
    if (kind is int or kind is float) and countOf(map(type, items), kind) == len(items):
        distinct = set(items)
        # 0.0 == -0.0 and non-finite floats print as NaN/Infinity, so such
        # float runs are left to json
        if 2 * len(distinct) <= len(items) and (
            kind is int or all(v and math.isfinite(v) for v in distinct)
        ):
            text = {v: repr(v) for v in distinct}
            # len(items) >= 2 here, so the getter returns a tuple
            return sep.join(itemgetter(*items)(text))
    elif any(isinstance(v, (list, tuple, dict)) for v in items):
        return None
    return json.JSONEncoder(separators=(sep, ": ")).encode(items)[1:-1]
