"""Geometry of finite-dimensional lp spaces.

Norms, norming functionals, power-type smoothness majorants, the step-size
equation a*mu = 4*omega(2a), and seeded sampling of lp spheres and balls.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpSpace",
    "SmoothnessMajorant",
    "norm",
    "norms",
    "norming_coords",
    "smoothness_majorant_for",
    "solve_step_size",
    "solve_step_size_bisect",
    "sample_sphere",
    "sphere_from_rng",
    "ball_from_rng",
]

BISECT_ITERS = 200
# float64 entries per block of rows, in the sampler and the nearest-center
# kernel, so that a block's temporaries fit together in a 2 MiB L2 cache
_BLOCK_ENTRIES = 1 << 18


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class LpSpace:
    """R^d with the lp norm; p in (1, inf].

    p = inf is supported for norms, sampling and the cube-vertex arguments
    only; the smoothness machinery (norming functionals, majorants) rejects
    it since l_inf is not smooth.
    """

    d: int
    p: float

    def __post_init__(self):
        # a bool is an int, and None or a string would raise TypeError or be
        # parsed by int() and float(); phrased so that NaN and inf fail
        if not (_real(self.d) and 1 <= self.d < math.inf and int(self.d) == self.d):
            raise ValueError(f"dimension must be a positive integer, got {self.d!r}")
        if not _real(self.p):
            raise ValueError(f"norm exponent must be a number, got {self.p!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "p", float(self.p))
        if not self.p > 1.0:
            raise ValueError(f"norm exponent must exceed 1, got {self.p}")

    @property
    def q(self) -> float:
        """Dual exponent: 1/p + 1/q = 1, with q = 1 for p = inf."""
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    @property
    def smooth(self) -> bool:
        """True when the space has unique norming functionals (p < inf)."""
        return math.isfinite(self.p)


def norm(space: LpSpace, x) -> float:
    """lp norm of a single vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.d,):
        raise ValueError(f"expected a vector of length {space.d}, got shape {x.shape}")
    if math.isinf(space.p):
        return float(np.max(np.abs(x)))
    return float(np.linalg.norm(x, ord=space.p))


def norms(space: LpSpace, xs) -> np.ndarray:
    """Row-wise lp norms of an (n, d) array.

    The ufunc calls of np.linalg.norm(xs, ord=p, axis=1), with the same
    result bits, without its argument handling.
    """
    return _norms(space.p, np.asarray(xs, dtype=float))


def _norms(p: float, xs: np.ndarray) -> np.ndarray:
    if math.isinf(p):
        return np.max(np.abs(xs), axis=1)
    if p == 2.0:
        return np.sqrt(np.add.reduce(xs * xs, axis=1))
    out = np.abs(xs)
    out **= p
    out = np.add.reduce(out, axis=1)
    out **= 1.0 / p
    return out


def norming_coords(space: LpSpace, xs) -> np.ndarray:
    """Row-wise norming-functional coordinates for nonzero rows of xs.

    For x in lp with 1 < p < inf the unique norming functional has
    coordinates sign(x_i) |x_i|^(p-1) / ||x||_p^(p-1); it has unit lq norm
    and attains F(x) = ||x||_p. Zero coordinates map to zero.
    """
    if not space.smooth:
        raise ValueError("norming functionals require p < inf")
    xs = np.asarray(xs, dtype=float)
    nrm = norms(space, xs)
    if np.any(nrm == 0.0):
        raise ValueError("norming functional of the zero vector is undefined")
    return _norming(space.p, xs, nrm)


def _norming(p: float, xs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    # sign(x) |x|^(p-1) / length^(p-1) per row, one rounding per operation
    # as in the formula
    out = np.abs(xs)
    out **= p - 1.0
    out *= np.sign(xs)
    out /= (lengths ** (p - 1.0))[:, None]
    return out


@dataclass(frozen=True)
class SmoothnessMajorant:
    """Power majorant omega(u) = gamma * u**q_exp of a modulus of smoothness.

    omega(u)/u decreases to 0 as u -> 0, which holds automatically for
    q_exp > 1.
    """

    gamma: float
    q_exp: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not 1.0 < self.q_exp <= 2.0:
            raise ValueError("power must lie in (1, 2]")

    def value(self, u: float) -> float:
        return self.gamma * float(u) ** self.q_exp


def smoothness_majorant_for(space: LpSpace) -> SmoothnessMajorant:
    """Power majorant of the lp modulus of smoothness.

    u**p / p for 1 < p < 2 and (p/2) u**2 for p >= 2 (the latter dominates
    the sharp (p-1)/2 coefficient).
    """
    p = space.p
    if not (1.0 < p < math.inf):
        raise ValueError(f"smoothness majorants require 1 < p < inf, got {p}")
    if p < 2.0:
        return SmoothnessMajorant(gamma=1.0 / p, q_exp=p)
    return SmoothnessMajorant(gamma=p / 2.0, q_exp=2.0)


def solve_step_size(majorant: SmoothnessMajorant, mu: float) -> float:
    """Positive root of a*mu = 4*omega(2a), capped at 1.

    For omega(u) = gamma u**q the root is (mu / (gamma 2**(q+2)))**(1/(q-1));
    roots above 1 (and parameters with no root) fall back to 1.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
    g, q = majorant.gamma, majorant.q_exp
    a = (mu / (g * 2.0 ** (q + 2.0))) ** (1.0 / (q - 1.0))
    return min(a, 1.0)


def solve_step_size_bisect(omega, mu: float) -> float:
    """Bisection solver of 4*omega(2a) = a*mu on [1e-15, 1] for callable majorants.

    Agrees with the closed form for power majorants; returns 1.0 when the
    residual is still negative at a = 1 (no root at or below 1).
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")

    def resid(a: float) -> float:
        return 4.0 * omega(2.0 * a) - a * mu

    lo, hi = 1e-15, 1.0
    if resid(hi) <= 0.0:
        return 1.0
    if resid(lo) >= 0.0:
        # root sits below the bracket; omega(u)/u has not vanished at this scale
        return lo
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if resid(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sphere_from_rng(space: LpSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows distributed by cone measure on the unit lp sphere, drawn from rng.

    Coordinates are drawn with density proportional to exp(-|t|^p) (signed
    Gamma(1/p) variates raised to 1/p) and the rows normalized; for p = inf
    the rows are uniform on the cube scaled by their max modulus.
    """
    out = np.empty((n, space.d))
    _fill(space, out, rng, ball=False)
    return out


def ball_from_rng(space: LpSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows uniform in the closed unit lp ball, drawn from rng: sphere rows
    as sphere_from_rng draws them, scaled by radii U^(1/d) drawn after them."""
    out = np.empty((n, space.d))
    _fill(space, out, rng, ball=True)
    return out


def _fill(space: LpSpace, out: np.ndarray, rng: np.random.Generator, ball: bool) -> None:
    # The one sampler: fills the C-contiguous (n, d) array out in place with
    # the rows of sphere_from_rng, or of ball_from_rng. It draws from rng in
    # the order of the formulas -- every magnitude (uniform(-1, 1) is -1 + 2 U
    # for p = inf), then every sign, then every radius -- and each draw goes
    # in the same order in blocks of rows, so the bits are the formulas'.
    # A block of rows is a quarter of the kernel's, so that it, its int64
    # signs and the norms' temporary fit the L2 cache together, and a thread
    # that fills part of a caller's array allocates little.
    p, d = space.p, space.d
    rows = max(1, _BLOCK_ENTRIES // (4 * d))
    if math.isinf(p):
        rng.random(out=out)
        out *= 2.0
        out -= 1.0
    else:
        rng.standard_gamma(1.0 / p, out=out)
        out **= 1.0 / p
    for lo in range(0, out.shape[0], rows):
        block = out[lo : lo + rows]
        if not math.isinf(p):
            # a draw of 0 sets the sign bit of the magnitude (>= 0, a +0.0
            # included), which is its product with 2 * 0 - 1 = -1 exactly
            signs = rng.integers(0, 2, size=block.shape)
            signs ^= 1
            signs <<= 63
            bits = block.view(np.int64)
            bits |= signs
            del signs  # before the norms' temporary, so that one block is alive
        block /= _norms(p, block)[:, None]
    if ball:
        for lo in range(0, out.shape[0], rows):
            block = out[lo : lo + rows]
            radii = rng.random((block.shape[0], 1))
            radii **= 1.0 / d
            block *= radii


def sample_sphere(space: LpSpace, n: int, seed: int) -> np.ndarray:
    """Deterministic (n, d) sample of unit-norm vectors; see sphere_from_rng."""
    if n < 1:
        raise ValueError("need at least one sample")
    return sphere_from_rng(space, n, np.random.default_rng(seed))

