import csv
import math
import sys

import numpy as np
import pytest

from ballcover.bounds import (
    CSV_COLUMNS,
    covering_bound_table,
    mu_from_delta,
    ndmu_upper,
    ndmux_upper,
    table_to_csv,
    volumetric_bounds,
)
from ballcover.spaces import LpSpace, smoothness_majorant_for, solve_step_size


def test_volumetric_hand_values():
    vb = volumetric_bounds(1, 1.0)
    assert math.exp(vb.log_lower) == pytest.approx(1.0, rel=1e-12)
    assert math.exp(vb.log_upper) == pytest.approx(3.0, rel=1e-12)
    vb = volumetric_bounds(2, 0.5)
    assert math.exp(vb.log_lower) == pytest.approx(4.0, rel=1e-12)
    assert math.exp(vb.log_upper) == pytest.approx(25.0, rel=1e-12)


def test_volumetric_eps_one_lower():
    for d in (1, 5, 50):
        assert volumetric_bounds(d, 1.0).log_lower == 0.0


def test_volumetric_overflow_to_inf():
    # the count (1 + 2/eps)**d is far beyond float range; its log is not
    vb = volumetric_bounds(5000, 0.01)
    assert vb.log_upper > math.log(sys.float_info.max)
    assert vb.log_upper == pytest.approx(5000 * math.log1p(200.0), rel=1e-15)


def test_volumetric_grid_consistency():
    for d in range(1, 51):
        for eps in np.linspace(0.02, 1.0, 50):
            vb = volumetric_bounds(d, float(eps))
            assert vb.log_lower <= vb.log_upper + 1e-12


def test_volumetric_validation():
    with pytest.raises(ValueError):
        volumetric_bounds(2, 0.0)
    with pytest.raises(ValueError):
        volumetric_bounds(2, 1.5)


def test_ndmu_hand_value():
    assert ndmu_upper(8, 0.5) == pytest.approx(2.0 * math.log(4.0), rel=1e-14)
    assert ndmu_upper(100, 0.1) == pytest.approx(math.log(20.0), rel=1e-14)


def test_ndmu_range_warning_and_errors():
    with pytest.raises(ValueError):
        ndmu_upper(8, 0.6)
    with pytest.warns(UserWarning):
        low = ndmu_upper(100, 1e-4)
    assert low < 1e-5  # value -> 0 with mu -> 0


def test_ndmux_branches():
    # d = 1: max(log 1, mu^2 log(2/mu))
    assert ndmux_upper(1, 0.5) == pytest.approx(max(0.0, 0.25 * math.log(4.0)), rel=1e-14)
    # small mu = d^-1/2: linear branch dominates for large d
    d = 100
    mu = d ** -0.5
    assert ndmux_upper(d, mu) == pytest.approx(math.log(d), rel=1e-14)
    # mu = 1/2 with large d: exponential branch dominates
    assert ndmux_upper(100, 0.5) == pytest.approx(25.0 * math.log(4.0), rel=1e-14)


def test_bound_monotonicity():
    for mu in (0.05, 0.2, 0.5):
        start = max(2, math.ceil(1.0 / (2.0 * mu * mu)))  # stay above the validity floor
        vals = [ndmu_upper(d, mu) for d in range(start, start + 50)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    for d in (4, 16):
        grid = np.linspace(0.05, 0.5, 40)
        vals = [ndmux_upper(d, float(m)) for m in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_mu_delta_roundtrip_p2():
    # delta = mu^2 / (16 p) at p = 2, mu = 1/2 gives delta = 1/128
    space = LpSpace(4, 2.0)
    delta = 0.25 / 32.0
    assert mu_from_delta(space, delta) == pytest.approx(0.5, rel=1e-14)


def test_mu_delta_roundtrip_p15():
    p = 1.5
    space = LpSpace(4, p)
    maj = smoothness_majorant_for(space)
    for mu in (0.1, 0.25, 0.5):
        a = solve_step_size(maj, mu)
        delta = 0.5 * mu * a
        assert mu_from_delta(space, delta) == pytest.approx(mu, rel=1e-10)


def test_table_p2_row_consistency():
    space = LpSpace(4, 2.0)
    rows = covering_bound_table(space, [1.0 / 128.0])
    row = rows[0]
    assert row.mu == pytest.approx(0.5, rel=1e-12)
    assert row.log_lower <= row.log_volumetric_upper
    assert row.log_iterated > 0.0


def test_table_polynomial_flag():
    p, d = 4.0, 4
    space = LpSpace(d, p)
    rows = covering_bound_table(space, [1.0 / (p * d), 0.5])
    assert rows[0].regime_flag == "polynomial"
    assert rows[1].regime_flag == "exponential"


def test_table_p15_regime():
    space = LpSpace(9, 1.5)
    pprime = 3.0
    rows = covering_bound_table(space, [9.0 ** (-pprime / 2.0), 0.3])
    assert rows[0].regime_flag == "polynomial"
    assert rows[1].regime_flag == "exponential"


def test_table_rejects_bad_grid():
    space = LpSpace(4, 2.0)
    with pytest.raises(ValueError):
        covering_bound_table(space, [0.0])
    with pytest.raises(ValueError):
        covering_bound_table(LpSpace(4, math.inf), [0.1])


def test_table_reproducible():
    space = LpSpace(6, 4.0)
    grid = np.linspace(0.01, 0.2, 7)
    assert covering_bound_table(space, grid) == covering_bound_table(space, grid)


def test_csv_export(tmp_path):
    space = LpSpace(4, 2.0)
    rows = covering_bound_table(space, np.linspace(0.01, 0.3, 5))
    path = tmp_path / "table.csv"
    table_to_csv(rows, path)
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert tuple(header) == CSV_COLUMNS
        body = list(reader)
    assert len(body) == 5
    assert float(body[0][0]) == pytest.approx(rows[0].delta)
    assert body[0][6] in ("polynomial", "exponential")
