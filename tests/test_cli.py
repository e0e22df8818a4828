import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ballcover.cli import main
from ballcover.serialize import covering_from_dict


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_hadamard_order8(tmp_path):
    out = tmp_path / "h.json"
    assert main(["hadamard", "--order", "8", "--out", str(out)]) == 0
    blob = _read(out)
    assert blob["order"] == 8
    assert blob["verified"] is True
    h = np.asarray(blob["rows"])
    assert np.array_equal(h.T @ h, 8 * np.identity(8))


def test_hadamard_unavailable_order():
    assert main(["hadamard", "--order", "7"]) == 1


def test_unknown_flag_exits_one():
    assert main(["hadamard", "--order", "8", "--bogus"]) == 1


def test_missing_subcommand_exits_one():
    assert main([]) == 1


def test_etf_order4(tmp_path):
    out = tmp_path / "etf.json"
    assert main(["etf", "--order", "4", "--out", str(out)]) == 0
    blob = _read(out)
    assert blob["dim"] == 3
    assert blob["verified"] is True
    assert len(blob["vectors"]) == 4
    assert blob["gram_max_deviation"] <= 1e-12


def test_dict_greedy_and_coherence(tmp_path):
    out = tmp_path / "dict.json"
    assert main(
        ["dict", "greedy", "--d", "4", "--p", "2", "--mu", "0.5", "--seed", "3", "--out", str(out)]
    ) == 0
    blob = _read(out)
    assert blob["seed"] == 3
    assert blob["coherence"] <= 0.5
    assert main(["dict", "coherence", "--in", str(out), "--json"]) == 0


def test_dict_coherence_rejects_nan_vector(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"space": {"d": 2, "p": 2}, "vectors": [[NaN, 0.0], [0.0, 1.0]], "trials": null}')
    out = tmp_path / "coherence.json"
    assert main(["dict", "coherence", "--in", str(path), "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_cover_build_and_verify_axis(tmp_path):
    cover_path = tmp_path / "c.json"
    assert main(
        ["cover", "build", "--construction", "axis", "--d", "4", "--p", "2", "--out", str(cover_path)]
    ) == 0
    blob = _read(cover_path)
    assert blob["space"] == {"d": 4, "p": 2.0}
    assert len(blob["centers"]) == 8
    assert blob["closed"] is True
    assert "seed" in blob
    assert main(
        ["cover", "verify", "--in", str(cover_path), "--samples", "4000", "--seed", "7", "--json"]
    ) == 0


def test_cover_verify_fails_on_shrunken_radius(tmp_path):
    cover_path = tmp_path / "c.json"
    main(["cover", "build", "--construction", "axis", "--d", "4", "--out", str(cover_path)])
    blob = _read(cover_path)
    blob["radius"] /= 2.0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(blob))
    assert main(["cover", "verify", "--in", str(broken), "--samples", "2000", "--seed", "7"]) == 2


def test_cover_verify_rejects_nan_center(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"space": {"d": 2, "p": 2}, "centers": [[NaN, 0.0]], "radius": 0.5, '
        '"closed": true, "provenance": "nan"}'
    )
    out = tmp_path / "report.json"
    assert main(["cover", "verify", "--in", str(path), "--out", str(out)]) != 0
    assert not out.exists()


def test_cover_build_iterated_roundtrip(tmp_path):
    cover_path = tmp_path / "it.json"
    assert main(
        [
            "cover",
            "build",
            "--construction",
            "simplex-shrunk",
            "--d",
            "2",
            "--iterate",
            "2",
            "--out",
            str(cover_path),
        ]
    ) == 0
    cov = covering_from_dict(_read(cover_path))
    assert len(cov) == 9
    assert main(
        ["cover", "verify", "--in", str(cover_path), "--samples", "4000", "--seed", "1"]
    ) == 0


def test_cover_build_dict_l2(tmp_path):
    cover_path = tmp_path / "dl2.json"
    assert main(
        [
            "cover",
            "build",
            "--construction",
            "dict-l2",
            "--d",
            "4",
            "--mu",
            "0.5",
            "--seed",
            "5",
            "--out",
            str(cover_path),
        ]
    ) == 0
    cov = covering_from_dict(_read(cover_path))
    assert cov.radius == pytest.approx(math.sqrt(0.75), rel=1e-14)
    assert len(cov) % 2 == 0


def test_cover_build_dict_banach(tmp_path):
    cover_path = tmp_path / "db.json"
    assert main(
        [
            "cover",
            "build",
            "--construction",
            "dict-banach",
            "--d",
            "4",
            "--p",
            "4",
            "--mu",
            "0.5",
            "--seed",
            "2",
            "--out",
            str(cover_path),
        ]
    ) == 0
    cov = covering_from_dict(_read(cover_path))
    assert cov.radius == pytest.approx(1.0 - 1.0 / 256.0, rel=1e-14)
    assert main(["cover", "verify", "--in", str(cover_path), "--samples", "4000", "--seed", "3"]) == 0


def test_cover_build_basis_l4(tmp_path):
    cover_path = tmp_path / "b.json"
    assert main(
        ["cover", "build", "--construction", "basis", "--d", "4", "--p", "4", "--out", str(cover_path)]
    ) == 0
    cov = covering_from_dict(_read(cover_path))
    assert cov.radius == pytest.approx(1.0 - 1.0 / 1024.0, rel=1e-14)


def test_cover_build_requires_matching_p():
    assert main(["cover", "build", "--construction", "axis", "--d", "4", "--p", "4"]) == 1


def test_witness_cli(tmp_path):
    centers = [[0.3, 0.0], [-0.3, 0.0]]
    centers_path = tmp_path / "centers.json"
    centers_path.write_text(json.dumps({"centers": centers}))
    out = tmp_path / "w.json"
    assert main(
        ["witness", "--d", "2", "--p", "2", "--centers", str(centers_path), "--out", str(out)]
    ) == 0
    blob = _read(out)
    assert blob["norm"] == pytest.approx(1.0, abs=1e-12)
    assert blob["min_distance"] >= 1.0 - 1e-9


def test_bounds_table_csv(tmp_path):
    csv_path = tmp_path / "t.csv"
    assert main(
        [
            "bounds",
            "table",
            "--d",
            "6",
            "--p",
            "2",
            "--delta-grid",
            "0.01:0.2:5",
            "--csv",
            str(csv_path),
        ]
    ) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "delta,mu,log_lower,log_volumetric_upper,log_regime_upper,log_iterated,regime_flag"
    assert len(lines) == 6


def test_verify_roundtrip_matches_inmemory(tmp_path):
    # build -> write -> read -> verify agrees with certifying the in-memory object
    from ballcover.coverings import axis_cover
    from ballcover.verify import certify_sampling

    cover_path = tmp_path / "c.json"
    main(["cover", "build", "--construction", "axis", "--d", "3", "--out", str(cover_path)])
    loaded = covering_from_dict(_read(cover_path))
    direct, _ = axis_cover(3)
    a = certify_sampling(loaded, 1000, 1000, seed=9)
    b = certify_sampling(direct, 1000, 1000, seed=9)
    assert a.worst_margin == b.worst_margin
    assert a.passed == b.passed


def test_selftest_byte_identical():
    cmd = [sys.executable, "-m", "ballcover", "selftest", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()[:500] + first.stderr.decode()[:500]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["all_passed"] is True
    assert report["seed"] == 7


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BALLCOVER_SEED", "123")
    out = tmp_path / "h.json"
    assert main(["hadamard", "--order", "2", "--out", str(out)]) == 0
    assert _read(out)["seed"] == 123
