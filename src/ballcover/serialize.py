"""JSON interchange for the geometric objects.

Floats serialize through repr (json's default), which round-trips exactly;
p is written as a number or the string "inf".

Artefact text is ``json.dumps(obj, indent=2, sort_keys=True,
default=np.ndarray.tolist) + "\n"`` byte for byte; ``dumps`` only produces
it faster, and ``dump`` writes the same text to a file. The payloads keep
their bulk (Hadamard rows, frame vectors, centers) as numpy arrays, which
hold long runs of a few distinct numbers.
An integer or float array with at least one axis and one element is written
from the array itself: json formats each distinct value once, each element
takes the text of its value followed by the separator its position needs,
and the pieces are joined in blocks of whole rows. Every other array (bool,
0-d or empty arrays, and other dtypes) is written as its ``tolist()``. Dicts
and lists are written level by level around them. One writer passes the
pieces to an emit callable: ``dumps`` joins them once at the end, and
``dump`` writes each to its file as it comes, so the largest piece held is
one block. Keys are sorted and no set is built, so the text does not depend
on PYTHONHASHSEED.
"""

from __future__ import annotations

import json
import math
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
    "dump",
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
        "centers": cov.centers,
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
        "vectors": dictionary.vectors,
        "trials": dictionary.trials_used,
    }


def dictionary_from_dict(obj) -> Dictionary:
    _object(obj, "dictionary")
    return Dictionary(
        space=space_from_dict(obj["space"]),
        vectors=_floats(obj["vectors"], "vectors"),
        trials_used=obj.get("trials"),
    )


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    Equal to ``json.dumps(obj, indent=2, sort_keys=True,
    default=np.ndarray.tolist) + "\n"``, and raises TypeError where that call
    does: a numpy array is written as its ``tolist()`` would be, and its
    subclasses as the base array. Each level of nesting costs one Python
    frame, as it does in that call, so both raise RecursionError at about the
    same depth, a little under ``sys.getrecursionlimit()``. A container that
    holds itself raises RecursionError here; json raises ValueError.
    """
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def dump(obj, fh) -> None:
    """Write the text of ``dumps(obj)`` to the text file fh, piece by piece.

    The pairing of ``json.dump`` with ``json.dumps``: the same writer emits
    the same pieces, so no text of the whole object is built. An object
    dumps refuses raises here too, after the pieces before it are written.
    """
    _write(obj, "\n", fh.write)
    fh.write("\n")


def _write(obj, nl: str, emit) -> None:
    """Pass the text of obj to emit, in pieces; nl is a newline and the
    indentation of the line on which obj starts."""
    if isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        # json sorts the (key, value) items too, so mixed key types raise alike
        for key, value in sorted(obj.items()):
            emit(sep + _key(key) + ": ")
            _write(value, inner, emit)
            sep = "," + inner
        emit(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            emit(sep)
            _write(v, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    elif isinstance(obj, np.ndarray):
        kind = obj.dtype.kind
        if obj.ndim and obj.size and (kind in "iu" or kind == "f" and obj.dtype.itemsize <= 8):
            _write_array(obj.view(np.ndarray), nl, emit)
        else:
            # json's default: the base class's tolist, also for subclasses
            _write(np.ndarray.tolist(obj), nl, emit)
    else:
        emit(json.dumps(obj))


# elements per joined block; whole rows are joined, at least one per block
_BLOCK_ENTRIES = 1 << 16


def _write_array(a: np.ndarray, nl: str, emit) -> None:
    """Pass the text of a non-empty integer or float array with ndim >= 1 to
    emit, one block of whole rows at a time."""
    texts, codes = _texts(a.reshape(-1))
    ndim = a.ndim
    inner = [nl + "  " * k for k in range(ndim + 1)]
    opens = ["[" + inner[k] for k in range(1, ndim + 1)]
    closes = [inner[k] + "]" for k in reversed(range(ndim))]
    # after an element at which the last j axes end: close j lists, then a
    # comma and open j again; after the last element, close all of them
    seps = ["".join(closes[:j]) + "," + inner[ndim - j] + "".join(opens[ndim - j :]) for j in range(ndim)]
    seps.append("".join(closes))
    # piece code * (ndim + 1) + j is the code's text followed by separator j
    pieces = np.array([t + s for t in texts for s in seps], dtype=object)
    codes *= ndim + 1
    grid = codes.reshape(a.shape)  # a view: codes is a new contiguous array
    for j in range(1, ndim + 1):
        grid[(...,) + (-1,) * j] += 1  # at the last j axes' ends, one more
    emit("".join(opens))
    step = max(1, _BLOCK_ENTRIES // a.shape[-1]) * a.shape[-1]
    for start in range(0, a.size, step):
        emit("".join(pieces.take(codes[start : start + step]).tolist()))


def _texts(flat: np.ndarray) -> tuple[list[str], np.ndarray]:
    """json's text of each value code of a 1-d integer or float array, and
    each element's code; json formats each distinct value once."""
    if flat.dtype.kind == "f":
        # by bit pattern: 0.0 and -0.0 print differently, and NaN != NaN
        bits, codes = np.unique(flat.view(f"i{flat.dtype.itemsize}"), return_inverse=True)
        return _json_items(bits.view(flat.dtype).tolist()), codes.reshape(-1)
    least = flat.min()
    low, high = int(least), int(flat.max())
    if high - low >= flat.size:
        values, codes = np.unique(flat, return_inverse=True)
        return _json_items(values.tolist()), codes.reshape(-1)
    # the code is the offset from the minimum, computed with wraparound in
    # intp: exact, as it is below the size; codes no element has get no text
    codes = np.subtract(flat, least, dtype=np.intp, casting="unsafe")
    present = np.flatnonzero(np.bincount(codes)).tolist()
    texts = [""] * (high - low + 1)
    for k, text in zip(present, _json_items([low + k for k in present])):
        texts[k] = text
    return texts, codes


def _json_items(values: list) -> list[str]:
    # no int or float text holds ", "
    return json.dumps(values)[1:-1].split(", ")


def _key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)  # json quotes the scalar's text: 1.5 -> "1.5", True -> "true"
    return json.dumps(key)
