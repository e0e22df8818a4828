"""Explicit coverings of the unit ball: simplex layouts, frame and dictionary
covers, axis/basis covers, and covering composition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import Dictionary
from .frames import etf_from_hadamard
from .hadamard import sylvester
from .spaces import (
    LpSpace,
    SmoothnessMajorant,
    norms,
    smoothness_majorant_for,
    solve_step_size,
)

__all__ = [
    "BallCovering",
    "simplex_cover_unit",
    "simplex_cover_shrunk",
    "etf_cover",
    "dictionary_cover_l2",
    "dictionary_cover_banach",
    "axis_cover",
    "basis_cover",
    "iterate_cover",
]

MAX_ITERATED_CENTERS = 10_000_000
REACH_TOL = 1e-9


@dataclass(frozen=True)
class BallCovering:
    """A family of equal-radius lp balls intended to cover the unit ball."""

    space: LpSpace
    centers: np.ndarray
    radius: float
    closed: bool
    provenance: str

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radius", float(self.radius))
        if c.shape[0] < 1 or c.shape[1] != self.space.d:
            raise ValueError(f"expected (N, {self.space.d}) centers, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("centers must be finite")
        if not 0.0 < self.radius <= 1.0:
            raise ValueError(f"radius must lie in (0, 1], got {self.radius}")

    def __len__(self) -> int:
        return self.centers.shape[0]

    def check_reach(self) -> "BallCovering":
        """Raise if some ball cannot touch the unit ball (||c|| > 1 + radius + REACH_TOL).

        Enforced by the single-stage constructors; iterated covers may carry
        unreachable composed centers and skip this check.
        """
        worst = float(np.max(norms(self.space, self.centers)))
        if not (worst <= 1.0 + self.radius + REACH_TOL):
            raise ValueError(
                f"center at norm {worst} cannot reach the unit ball at radius {self.radius}"
            )
        return self


def _simplex_centers(d: int, a: float) -> np.ndarray:
    return np.vstack([a * np.identity(d), np.full((1, d), -a)])


def simplex_cover_unit(d: int) -> tuple[BallCovering, float]:
    """d+1 open unit balls covering B_2: centers e_j/(2d) and -(1/(2d)) sum_j e_j.

    Strict-open cover with a dichotomy: any y in B_2 either has a coordinate
    y_k > 1/(4d), which puts it strictly inside ball k, or lies within
    squared distance 1 - 1/(4d) of the last center. Returns (cover, 1/(4d)),
    the slack of that second branch; the cover itself has no uniform slack.
    """
    space = LpSpace(d, 2.0)
    a = 1.0 / (2.0 * d)
    cov = BallCovering(
        space, _simplex_centers(d, a), 1.0, closed=False, provenance=f"simplex-unit(d={d})"
    ).check_reach()
    return cov, 1.0 / (4.0 * d)


def simplex_cover_shrunk(d: int) -> tuple[BallCovering, float]:
    """Simplex layout with a = 2/(5d+1) and closed radius sqrt(1 - a^2).

    Every point of B_2 sits within squared distance 1 - a^2 of some center:
    a coordinate above a beats that bound at the matching axis center, and
    the remaining points land within it at the last center. Returns
    (cover, a^2).
    """
    space = LpSpace(d, 2.0)
    a = 2.0 / (5.0 * d + 1.0)
    cov = BallCovering(
        space,
        _simplex_centers(d, a),
        math.sqrt(1.0 - a * a),
        closed=True,
        provenance=f"simplex-shrunk(d={d})",
    ).check_reach()
    return cov, a * a


def etf_cover(d: int) -> tuple[BallCovering, float]:
    """d+1 closed balls at (1/(8d)) phi_j for an equiangular tight frame phi.

    Needs d+1 to be an available Hadamard order (a power of two here). For
    ||x|| >= 1/2 some frame coefficient reaches 1/(4d), capping the squared
    distance at 1 - 1/(64 d^2); points with ||x|| < 1/2 sit within 1/2 + a of
    every center, and the radius is checked to dominate that branch too.
    Returns (cover, 1/(64 d^2)).
    """
    k = (d + 1).bit_length() - 1
    if d < 1 or (1 << k) != d + 1:
        raise ValueError(f"d + 1 = {d + 1} is not an available Hadamard order (need a power of two)")
    frame = etf_from_hadamard(sylvester(k))
    a = 1.0 / (8.0 * d)
    margin = 1.0 / (64.0 * d * d)
    radius = math.sqrt(1.0 - margin)
    if radius < 0.5 + a:
        raise AssertionError("radius must dominate the small-norm branch")
    cov = BallCovering(
        LpSpace(d, 2.0), a * frame.matrix.T, radius, closed=True, provenance=f"etf(d={d}, a={a!r})"
    ).check_reach()
    return cov, margin


def _symmetric_cover(space: LpSpace, vectors, a: float, radius: float, provenance: str) -> BallCovering:
    # closed balls at +-a v for the rows v of vectors, checked for reach
    centers = np.vstack([a * vectors, -a * vectors])
    return BallCovering(space, centers, radius, closed=True, provenance=provenance).check_reach()


def dictionary_cover_l2(dictionary: Dictionary, mu: float) -> BallCovering:
    """2N closed balls at +-mu g_j with radius sqrt(1 - mu^2).

    Covers B_2 provided the dictionary is maximal for mu (no unit vector has
    all |<x, g>| below mu); maximality is certified separately by sampling.
    Requires mu <= 1/sqrt(2), where the squared-distance chain tops out at
    1 - mu^2.
    """
    if dictionary.space.p != 2.0:
        raise ValueError("requires p = 2")
    if not 0.0 < mu <= 2.0 ** -0.5:
        raise ValueError(f"mu must lie in (0, 1/sqrt(2)], got {mu}")
    return _symmetric_cover(
        dictionary.space,
        dictionary.vectors,
        mu,
        math.sqrt(1.0 - mu * mu),
        f"dict-l2(N={len(dictionary)}, mu={mu!r})",
    )


def _smooth_cover(space: LpSpace, vectors, mu: float, majorant, provenance) -> BallCovering:
    # closed balls at +-a(mu) v with radius 1 - mu a(mu)/2, refused below the
    # small-norm requirement 1/2 + a; provenance(a) names the cover
    a = solve_step_size(majorant, mu)
    radius = 1.0 - 0.5 * mu * a
    if radius < 0.5 + a:
        raise ValueError(f"radius {radius} is below the small-norm requirement 1/2 + {a}")
    return _symmetric_cover(space, vectors, a, radius, provenance(a))


def dictionary_cover_banach(
    dictionary: Dictionary, mu: float, majorant: SmoothnessMajorant
) -> BallCovering:
    """2N closed balls at +-a(mu) g_j with radius 1 - mu a(mu)/2.

    a(mu) solves a*mu = 4*omega(2a). The smoothness chain covers points with
    ||x|| >= 1/2; the build-time requirement radius >= 1/2 + a(mu) covers the
    rest and rejects parameter combinations that violate it.
    """
    if not dictionary.space.smooth:
        raise ValueError("requires 1 < p < inf")
    return _smooth_cover(
        dictionary.space,
        dictionary.vectors,
        mu,
        majorant,
        lambda a: f"dict-banach(N={len(dictionary)}, mu={mu!r}, a={a!r})",
    )


def axis_cover(d: int) -> tuple[BallCovering, float]:
    """2d closed balls at +-e_j/(4 sqrt(d)) in l2.

    For ||x|| >= 1/2 some coordinate magnitude reaches 1/(2 sqrt(d)) and the
    squared distance to the matching signed center drops by 3/(16d); smaller
    points sit within 1/2 + a of any center. Radius: max of the two branches.
    Returns (cover, 3/(16d)).
    """
    space = LpSpace(d, 2.0)
    a = 0.25 / math.sqrt(d)
    margin = 3.0 / (16.0 * d)
    radius = max(0.5 + a, math.sqrt(1.0 - margin))
    return _symmetric_cover(space, np.identity(d), a, radius, f"axis(d={d}, a={a!r})"), margin


def basis_cover(space: LpSpace) -> BallCovering:
    """2d closed balls at +-a e_j with mu = 1/d and a the step-size root.

    Deterministic pigeonhole guarantee: expanding x in the standard basis
    (basis constant K = 1 in lp) shows some |F_x(e_k)| >= 1/d, so radius
    1 - a mu / 2 suffices for ||x|| >= 1/2 and the build-time requirement
    radius >= 1/2 + a covers the rest. The provenance names K = 1.0.
    """
    if not space.smooth:
        raise ValueError("requires 1 < p < inf")
    mu = 1.0 / space.d
    return _smooth_cover(
        space,
        np.identity(space.d),
        mu,
        smoothness_majorant_for(space),
        lambda a: f"basis(d={space.d}, K=1.0, mu={mu!r}, a={a!r})",
    )


def iterate_cover(cov: BallCovering, m: int) -> BallCovering:
    """Compose a radius-r covering with itself m times: radius r**m, N**m centers.

    Centers are the affine sums c_1 + r c_2 + ... + r**(m-1) c_m, repeats
    kept, so the count is exactly N**m. Composition can produce centers whose
    balls no longer meet the unit ball, which is harmless for coverage, so
    the reach check is skipped here.
    """
    # phrased as LpSpace checks d, so that NaN and inf fail before int()
    if not (1 <= m < math.inf and int(m) == m):
        raise ValueError(f"m must be a positive integer, got {m}")
    m = int(m)
    if m == 1:
        return cov
    if cov.radius >= 1.0:
        raise ValueError("iteration needs radius < 1")
    n = len(cov)
    if n ** m > MAX_ITERATED_CENTERS:
        raise ValueError(f"{n}**{m} centers exceed the {MAX_ITERATED_CENTERS} guard")
    acc = cov.centers
    for _ in range(m - 1):
        acc = (cov.centers[:, None, :] + cov.radius * acc[None, :, :]).reshape(-1, cov.space.d)
    return BallCovering(
        cov.space, acc, cov.radius ** m, cov.closed, f"iterate({cov.provenance}, m={m})"
    )

