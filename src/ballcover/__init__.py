"""Explicit coverings of unit balls in finite-dimensional lp spaces.

Constructions (simplex, tight-frame, incoherent-dictionary, axis/basis,
iterated), numerical certification against proof-level margins, constructive
uncovered-point witnesses, and covering-number bound evaluators.
"""

from . import bounds, coverings, dictionaries, frames, hadamard, serialize, spaces, verify

__version__ = "0.1.0"
