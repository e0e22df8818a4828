"""Span tracer for the benchmark's traced run.

The tracer replaces each public function of the ballcover modules with a
wrapper that records a span, at every module attribute that refers to the
function, so that calls between library modules are seen as well as the
benchmark's own calls. A span is one row ``[name, start, end, parent, op, rows]``
kept in memory; ``parent`` indexes the enclosing span (-1 for none),
``op`` is the op id of the workload (or "setup") and ``rows`` counts the
rows of the call's array argument. Spans are written out by the caller when
the run ends.

Nothing here changes the library: the wrappers are installed on the module
objects at run time and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = (
    "spaces",
    "hadamard",
    "frames",
    "dictionaries",
    "coverings",
    "verify",
    "bounds",
    "serialize",
    "cli",
)


def _dictionary_growth(args, kwargs, outcome):
    # result is (flag, Dictionary); MaximalityRepairError carries .dictionary
    before = args[0] if args else kwargs["dictionary"]
    after = outcome.dictionary if isinstance(outcome, Exception) else outcome[1]
    return len(after) - len(before)


# Counters taken from a call's arguments and outcome, per span name. The
# outcome is the return value, or the exception the call raised.
COUNTERS = {
    "verify.harden_dictionary": {"admitted": _dictionary_growth},
    "verify.certify_maximality": {"augmented": _dictionary_growth},
    "dictionaries.greedy_maximal_dictionary": {
        "admitted": lambda args, kwargs, out: len(out),
        "trials": lambda args, kwargs, out: out.trials_used,
    },
    "serialize.dumps": {"bytes": lambda args, kwargs, out: len(out.encode("utf-8"))},
}


def _rows(args, result) -> int:
    # rows of the first array argument; else of the array (or covering) returned
    for value in args:
        if isinstance(value, np.ndarray):
            return int(value.shape[0]) if value.ndim > 1 else 1
    if isinstance(result, np.ndarray):
        return int(result.shape[0]) if result.ndim > 1 else 1
    centers = getattr(result, "centers", None)
    return int(centers.shape[0]) if isinstance(centers, np.ndarray) else 0


class Tracer:
    """Records nested spans around wrapped calls; one tracer per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.op = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str):
        """Return fn wrapped so that each call records a span called name."""
        counters = COUNTERS.get(name, {})
        tally = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
            self.spans.append(span)
            self._stack.append(index)
            outcome = None
            span[1] = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                span[5] = _rows(args, outcome)
                # a raised error has no counts, except MaximalityRepairError,
                # which carries the dictionary as augmented so far
                if not isinstance(outcome, Exception) or hasattr(outcome, "dictionary"):
                    for key, count in counters.items():
                        tally[key] = tally.get(key, 0) + count(args, kwargs, outcome)

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the listed ballcover modules."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(fn, f"{short}.{attr}")
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        # the scipy boundary: the cdist name that ballcover.verify calls
        verify = importlib.import_module(f"{package.__name__}.verify")
        self._patch(verify, "cdist", self.wrap(verify.cdist, "verify.cdist"))

    def _patch(self, module, attr, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original function."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, total_s, self_s and the name's counters.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _, rows) in enumerate(self.spans):
            layer = out.setdefault(name, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["rows"] += rows
            layer["total_s"] += end - start
            layer["self_s"] += end - start - child_time[index]
        for name, tally in self.counts.items():
            if tally:
                out.setdefault(name, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}).update(tally)
        return out

    def count_children(self, child: str, parent: str) -> int:
        """Number of spans called child whose direct parent span is called parent."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)
