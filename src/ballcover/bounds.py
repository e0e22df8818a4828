"""Covering-number and dictionary-size bound evaluators with explicit,
user-supplied constants; all arithmetic in log space."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

from .coverings import axis_cover, basis_cover
from .spaces import LpSpace

__all__ = [
    "BoundConstants",
    "VolumetricBounds",
    "BoundTableRow",
    "CSV_COLUMNS",
    "volumetric_bounds",
    "ndmu_upper",
    "ndmux_upper",
    "mu_from_delta",
    "covering_bound_table",
    "table_to_csv",
    "calibrate_c1",
]

_LOG_OVERFLOW = 700.0

CSV_COLUMNS = (
    "delta",
    "mu",
    "log_lower",
    "log_volumetric_upper",
    "log_regime_upper",
    "log_iterated",
    "regime_flag",
)


@dataclass(frozen=True)
class BoundConstants:
    """Absolute constants of the bound statements.

    Defaults are 1.0 and flagged "uncalibrated" in any output; calibration
    reports a fitted c1 without ever substituting it into guarantees.
    """

    c1: float = 1.0
    c2: float = 1.0
    calibrated: bool = False

    def __post_init__(self):
        # phrased so that NaN fails
        if not (0.0 < self.c1 < math.inf and 0.0 < self.c2 < math.inf):
            raise ValueError(f"constants must be finite and positive, got c1={self.c1} c2={self.c2}")

    @property
    def label(self) -> str:
        return "calibrated" if self.calibrated else "uncalibrated"

    def derived_polynomial_exponent(self, c3: float = 1.0) -> float:
        """Leading-order exponent c4 in the polynomial regime mu = c3/sqrt(d).

        With that mu the exponential branch evaluates to roughly
        (c2 c3^2 / 2) ln d, so the size bound is about d**c4 with
        c4 = c2 c3^2 / 2. Reported derivation, not an independent input.
        """
        return 0.5 * self.c2 * c3 * c3


def _linear(log_value: float) -> float:
    if log_value > _LOG_OVERFLOW:
        return math.inf
    return math.exp(log_value)


@dataclass(frozen=True)
class VolumetricBounds:
    lower: float
    upper: float
    log_lower: float
    log_upper: float


def volumetric_bounds(d: int, eps: float) -> VolumetricBounds:
    """Volume-comparison bounds eps**-d <= N_eps(B) <= (1 + 2/eps)**d.

    Logs are computed directly; linear values overflow to inf beyond float
    range (raw counts are only meaningful below ~1e15 anyway).
    """
    if d < 1 or int(d) != d:
        raise ValueError(f"d must be a positive integer, got {d}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    log_lower = -d * math.log(eps)
    log_upper = d * math.log1p(2.0 / eps)
    return VolumetricBounds(
        lower=_linear(log_lower),
        upper=_linear(log_upper),
        log_lower=log_lower,
        log_upper=log_upper,
    )


def ndmu_upper(d: int, mu: float, constants: BoundConstants = BoundConstants()) -> float:
    """Log of the Euclidean dictionary-size bound: c1 d mu^2 ln(2/mu).

    Stated for mu in [(2d)^-1/2, 1/2]; values below the floor are evaluated
    with a warning, values above 1/2 are rejected.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if not 0.0 < mu <= 0.5:
        raise ValueError(f"mu must lie in (0, 1/2], got {mu}")
    if mu < (2.0 * d) ** -0.5:
        warnings.warn(
            f"mu={mu} is below the stated validity floor (2d)^(-1/2); value extrapolated",
            stacklevel=2,
        )
    return constants.c1 * d * mu * mu * math.log(2.0 / mu)


def ndmux_upper(d: int, mu: float, constants: BoundConstants = BoundConstants()) -> float:
    """Log of max(c2 d, exp(c2 d mu^2 ln(2/mu))): the rank-based size cap."""
    if d < 1:
        raise ValueError("d must be positive")
    if not 0.0 < mu <= 0.5:
        raise ValueError(f"mu must lie in (0, 1/2], got {mu}")
    return max(math.log(constants.c2 * d), constants.c2 * d * mu * mu * math.log(2.0 / mu))


def mu_from_delta(space: LpSpace, delta: float) -> float:
    """Invert the radius defect delta = mu a(mu) / 2 of the smooth-space cover.

    For p >= 2 (majorant (p/2) u^2, step mu/(8p)): mu = 4 sqrt(p delta). For
    1 < p < 2 (majorant u^p / p): delta = c(p) mu^p' with
    c(p) = (p / 2^(p+2))^(1/(p-1)) / 2 and p' = p/(p-1), inverted exactly.
    """
    p = space.p
    if p >= 2.0:
        return 4.0 * math.sqrt(p * delta)
    pprime = p / (p - 1.0)
    cp = 0.5 * (p / 2.0 ** (p + 2.0)) ** (1.0 / (p - 1.0))
    return (delta / cp) ** (1.0 / pprime)


@dataclass(frozen=True)
class BoundTableRow:
    delta: float
    mu: float
    log_lower: float
    log_volumetric_upper: float
    log_regime_upper: float
    log_iterated: float
    regime_flag: str


def covering_bound_table(
    space: LpSpace, delta_grid, constants: BoundConstants = BoundConstants()
) -> list[BoundTableRow]:
    """Bound table over radius defects delta (radius 1 - delta), in log space.

    Each row carries the volumetric bounds, the p-regime bound (the p >= 2
    and 1 < p < 2 branches), the delta <-> mu conversion, and the ball count
    achieved by iterating the explicit axis/basis cover down to radius
    <= 1 - delta. Rows are flagged "polynomial" where the regime bound is
    polynomial in d (delta <= 1/(pd) for p >= 2, delta <= d**(-p'/2) for
    1 < p < 2).
    """
    if not space.smooth:
        raise ValueError("bound table requires 1 < p < inf")
    d, p = space.d, space.p
    base = axis_cover(d)[0] if p == 2.0 else basis_cover(space)
    base_radius = base.radius
    rows = []
    for delta in delta_grid:
        delta = float(delta)
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        eps = 1.0 - delta
        log_lower = -d * math.log(eps)
        log_vol = d * math.log1p(2.0 / eps)
        mu = mu_from_delta(space, delta)
        if p >= 2.0:
            exponent = 8.0 * constants.c2 * d * p * delta * math.log(1.0 / (4.0 * p * delta))
            polynomial = delta * p * d <= 1.0
        else:
            pprime = p / (p - 1.0)
            exponent = constants.c2 * d * delta ** (2.0 / pprime) * math.log(2.0 / delta)
            polynomial = delta <= d ** (-pprime / 2.0)
        log_regime = math.log(2.0) + max(math.log(constants.c2 * d), exponent)
        iterations = 1 if eps >= base_radius else math.ceil(math.log(eps) / math.log(base_radius))
        log_iterated = iterations * math.log(2.0 * d)
        rows.append(
            BoundTableRow(
                delta=delta,
                mu=mu,
                log_lower=log_lower,
                log_volumetric_upper=log_vol,
                log_regime_upper=log_regime,
                log_iterated=log_iterated,
                regime_flag="polynomial" if polynomial else "exponential",
            )
        )
    return rows


def table_to_csv(rows, path) -> None:
    """Write table rows as CSV; floats use repr so values round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    repr(row.delta),
                    repr(row.mu),
                    repr(row.log_lower),
                    repr(row.log_volumetric_upper),
                    repr(row.log_regime_upper),
                    repr(row.log_iterated),
                    row.regime_flag,
                ]
            )


def calibrate_c1(observations) -> float:
    """Smallest c1 with ln N <= c1 d mu^2 ln(2/mu) across (d, mu, N) observations.

    Fitted from greedy dictionary sizes for reporting only; never substituted
    into a guarantee.
    """
    values = []
    for d, mu, size in observations:
        if not 0.0 < mu < 2.0:
            raise ValueError(f"mu must lie in (0, 2) for the log factor, got {mu}")
        values.append(math.log(size) / (d * mu * mu * math.log(2.0 / mu)))
    if not values:
        raise ValueError("need at least one observation")
    return max(values)
