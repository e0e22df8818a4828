"""Covering-number and dictionary-size bound evaluators; all arithmetic in
log space. The paper leaves the absolute constants of its bound statements
unspecified; here they are fixed at 1.0 and labelled uncalibrated."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import astuple, dataclass, fields

from .coverings import axis_cover, basis_cover
from .spaces import LpSpace, smoothness_majorant_for, solve_step_size

__all__ = [
    "CONSTANTS",
    "VolumetricBounds",
    "BoundTableRow",
    "CSV_COLUMNS",
    "volumetric_bounds",
    "ndmu_upper",
    "ndmux_upper",
    "mu_from_delta",
    "covering_bound_table",
    "table_to_csv",
]

# the absolute constants C1 and C2 of the bound statements, as every output
# reports them; nothing in the program calibrates them
CONSTANTS = {"c1": 1.0, "c2": 1.0, "label": "uncalibrated"}


@dataclass(frozen=True)
class VolumetricBounds:
    """Natural logs of the volume-comparison bounds on N_eps(B)."""

    log_lower: float
    log_upper: float


def volumetric_bounds(d: int, eps: float) -> VolumetricBounds:
    """Volume-comparison bounds eps**-d <= N_eps(B) <= (1 + 2/eps)**d, in logs.

    The logs are computed directly, so they stay finite where the counts
    themselves exceed float range.
    """
    if d < 1 or int(d) != d:
        raise ValueError(f"d must be a positive integer, got {d}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    log_lower = -d * math.log(eps)
    log_upper = d * math.log1p(2.0 / eps)
    return VolumetricBounds(log_lower=log_lower, log_upper=log_upper)


def ndmu_upper(d: int, mu: float) -> float:
    """Log of the Euclidean dictionary-size bound: C1 d mu^2 ln(2/mu), C1 = 1.

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
    return d * mu * mu * math.log(2.0 / mu)


def ndmux_upper(d: int, mu: float) -> float:
    """Log of max(C2 d, exp(C2 d mu^2 ln(2/mu))), C2 = 1: the rank-based size cap."""
    if d < 1:
        raise ValueError("d must be positive")
    if not 0.0 < mu <= 0.5:
        raise ValueError(f"mu must lie in (0, 1/2], got {mu}")
    return max(math.log(d), d * mu * mu * math.log(2.0 / mu))


def mu_from_delta(space: LpSpace, delta: float) -> float:
    """Invert the radius defect delta = mu a(mu) / 2 of the smooth-space cover.

    a(mu) = a(1) mu^(1/(q-1)) is solve_step_size for the space's own majorant
    omega(u) = gamma u^q, so mu = (2 delta / a(1))^((q-1)/q). The cap a <= 1
    does not bind at mu = 1, since gamma 2^(q+2) > 1 for both majorants.
    """
    majorant = smoothness_majorant_for(space)
    q = majorant.q_exp
    return (2.0 * delta / solve_step_size(majorant, 1.0)) ** ((q - 1.0) / q)


@dataclass(frozen=True)
class BoundTableRow:
    delta: float
    mu: float
    log_lower: float
    log_volumetric_upper: float
    log_regime_upper: float
    log_iterated: float
    regime_flag: str


CSV_COLUMNS = tuple(f.name for f in fields(BoundTableRow))


def covering_bound_table(space: LpSpace, delta_grid) -> list[BoundTableRow]:
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
        vol = volumetric_bounds(d, eps)
        mu = mu_from_delta(space, delta)
        if p >= 2.0:
            exponent = 8.0 * d * p * delta * math.log(1.0 / (4.0 * p * delta))
            polynomial = delta * p * d <= 1.0
        else:
            pprime = p / (p - 1.0)
            exponent = d * delta ** (2.0 / pprime) * math.log(2.0 / delta)
            polynomial = delta <= d ** (-pprime / 2.0)
        log_regime = math.log(2.0) + max(math.log(d), exponent)
        iterations = 1 if eps >= base_radius else math.ceil(math.log(eps) / math.log(base_radius))
        log_iterated = iterations * math.log(len(base))
        rows.append(
            BoundTableRow(
                delta=delta,
                mu=mu,
                log_lower=vol.log_lower,
                log_volumetric_upper=vol.log_upper,
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
            writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(row)])

