import argparse
import hashlib
import itertools
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ballcover.cli import CONSTRUCTIONS, main, run_selftest
from ballcover.coverings import axis_cover
from ballcover.serialize import covering_from_dict, covering_to_dict, dumps
from ballcover.verify import certify_sampling


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


def test_out_and_json_write_the_same_bytes(tmp_path, capsys):
    # one pass per sink: the --out file and stdout each get the whole text
    cover = tmp_path / "c.json"
    assert main(["cover", "build", "--construction", "axis", "--d", "3", "--out", str(cover)]) == 0
    capsys.readouterr()
    verify = ["cover", "verify", "--in", str(cover), "--samples", "200", "--adversarial", "2", "--steps", "5"]
    for argv in (["hadamard", "--order", "1024"], verify):
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out), "--json"]) == 0
        text = out.read_bytes()
        assert capsys.readouterr().out.encode() == text
        assert text == dumps(json.loads(text)).encode()


def test_hadamard_unavailable_order(capsys):
    # hadamard and etf share one order check, reported as one error line
    for argv in (["hadamard", "--order", "7"], ["etf", "--order", "1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order ") and captured.err.count("\n") == 1


def test_hadamard_order_above_guard_fails_before_building(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("an order above the guard must be refused before any matrix is built")

    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr("ballcover.hadamard._gram", refuse)
    out = tmp_path / "h.json"
    assert main(["hadamard", "--order", "16384", "--out", str(out)]) == 1
    assert not out.exists()


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


def test_verify_artefact_excludes_elapsed_by_default(tmp_path):
    cover_path, out = tmp_path / "c.json", tmp_path / "report.json"
    assert main(["cover", "build", "--construction", "axis", "--d", "2", "--out", str(cover_path)]) == 0
    assert main(["cover", "verify", "--in", str(cover_path), "--samples", "200", "--seed", "3", "--out", str(out)]) == 0
    blob = _read(out)
    assert "elapsed" not in blob
    assert blob["passed"] is True
    assert blob["seed"] == 3


def test_verify_artefact_of_a_failing_report(tmp_path):
    # the artefact holds the report's fields, its witness as a list of floats
    cov = replace(axis_cover(2)[0], radius=0.5)
    cover_path, out = tmp_path / "c.json", tmp_path / "report.json"
    cover_path.write_text(dumps(covering_to_dict(cov)))
    assert main(["cover", "verify", "--in", str(cover_path), "--samples", "200", "--seed", "3", "--out", str(out)]) == 2
    report = certify_sampling(cov, 100, 100, seed=3)
    blob = _read(out)
    assert blob == {
        "samples_tested": 200,
        "worst_margin": report.worst_margin,
        "failure_witness": report.failure_witness.tolist(),
        "seed": 3,
        "passed": False,
        "provenance": cov.provenance,
    }
    assert len(blob["failure_witness"]) == 2
    assert all(type(v) is float for v in blob["failure_witness"])


@pytest.mark.parametrize("budget", [["--adversarial", "-3"], ["--adversarial", "2", "--steps", "-1"]])
def test_cover_verify_refuses_a_negative_ascent_budget(tmp_path, capsys, budget):
    # 0 disables the ascent; any other count reaches the ascent's own guard
    cover_path, out = tmp_path / "c.json", tmp_path / "report.json"
    assert main(["cover", "build", "--construction", "axis", "--d", "2", "--out", str(cover_path)]) == 0
    capsys.readouterr()
    assert main(["cover", "verify", "--in", str(cover_path), "--samples", "200", *budget, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    what = {"--adversarial": "restarts", "--steps": "steps"}[budget[-2]]
    assert captured.err == f"error: {what} must be a positive integer, got {budget[-1]}\n"
    assert not out.exists()


def test_cover_verify_writes_a_non_finite_margin_as_text(tmp_path):
    # every distance to the lone center overflows to inf, so both margins are
    # -inf; strict JSON has no -Infinity, so they are written as p's "inf" is
    cover = {"space": {"d": 5, "p": 4}, "centers": [[1e200] * 5], "radius": 0.9, "closed": True, "provenance": "far"}
    cover_path, out = tmp_path / "far.json", tmp_path / "report.json"
    cover_path.write_text(json.dumps(cover))
    argv = ["cover", "verify", "--in", str(cover_path), "--adversarial", "3", "--steps", "5"]
    assert main([*argv, "--out", str(out)]) == 2

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    report = json.loads(out.read_text(), parse_constant=refuse)
    assert report["worst_margin"] == "-inf" and report["adversarial"]["margin"] == "-inf"
    assert report["passed"] is False and report["adversarial"]["passed"] is False


def test_cover_verify_rejects_nan_center(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"space": {"d": 2, "p": 2}, "centers": [[NaN, 0.0]], "radius": 0.5, '
        '"closed": true, "provenance": "nan"}'
    )
    out = tmp_path / "report.json"
    assert main(["cover", "verify", "--in", str(path), "--out", str(out)]) != 0
    assert not out.exists()


_SPACE = {"d": 2, "p": 2}
_COVER = {"space": _SPACE, "centers": [[0.5, 0.0]], "radius": 0.9, "closed": True, "provenance": "x"}
_DICT = {"space": {"d": 2, "p": 4}, "vectors": [[1.0, 0.0]], "trials": None}
# case -> (command and input flag, keys replacing those of a valid file, or None
# and the whole document); a witness reads only the centers of a covering file
_MALFORMED = {
    "cover-array": ("cover verify --in", None, [1, 2]),
    "space-array": ("cover verify --in", {"space": [2, 2]}, None),
    "d-null": ("cover verify --in", {"space": {**_SPACE, "d": None}}, None),
    "d-true": ("cover verify --in", {"space": {**_SPACE, "d": True}, "centers": [[0.5]]}, None),
    "d-inf": ("cover verify --in", {"space": {**_SPACE, "d": math.inf}}, None),
    "p-null": ("cover verify --in", {"space": {**_SPACE, "p": None}}, None),
    "p-string": ("cover verify --in", {"space": {**_SPACE, "p": "2"}}, None),
    "radius-null": ("cover verify --in", {"radius": None}, None),
    "radius-string": ("cover verify --in", {"radius": "0.9"}, None),
    "centers-object": ("cover verify --in", {"centers": [{}]}, None),
    "provenance-null": ("cover verify --in", {"provenance": None}, None),
    "dict-array": ("dict coherence --in", None, []),
    "dict-d-null": ("dict coherence --in", {"space": {"d": None, "p": 4}}, None),
    "vectors-object": ("dict coherence --in", {"vectors": {}}, None),
    "witness-array": ("witness --d 2 --centers", None, [[0.5, 0.0]]),
    "witness-centers-object": ("witness --d 2 --centers", {"centers": [{}]}, None),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_is_one_error_line(tmp_path, capsys, case):
    # loader failures are usage errors, not tracebacks or loaded files
    command, changes, document = _MALFORMED[case]
    if changes is not None:
        document = {**(_DICT if command.startswith("dict") else _COVER), **changes}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "out.json"
    assert main([*command.split(), str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
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
    for m in ("0", "-5"):
        bad = tmp_path / f"it{m}.json"
        argv = ["cover", "build", "--construction", "axis", "--d", "2", "--iterate", m]
        assert main([*argv, "--out", str(bad)]) == 1
        assert not bad.exists()


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cover_build_dict_l2_survives_ascent(seed, tmp_path):
    # cover build hardens the dictionary, so neither 4000 samples nor the
    # ascent finds an uncovered point of the cover it writes
    cover_path = tmp_path / "c.json"
    argv = ["cover", "build", "--construction", "dict-l2", "--d", "6", "--mu", "0.5", "--seed", str(seed)]
    assert main([*argv, "--out", str(cover_path)]) == 0
    verify = ["cover", "verify", "--in", str(cover_path), "--samples", "4000", "--adversarial", "10", "--steps", "50"]
    assert main([*verify, "--out", str(tmp_path / "v.json")]) == 0


# the pipeline's failed steps and sampled worst margin, per seed
_UNCERTIFIED_NOTES = {
    1: "final sampling failed; sampled worst margin -0.001211233921115884",
    19: "hardening and final sampling failed; sampled worst margin -0.00017514638494076085",
}


@pytest.mark.parametrize("seed", [1, 19])
def test_cover_build_dict_banach_uncertified_exits_two(seed, tmp_path, capsys):
    # the pipeline does not certify these covers: the artefact is still
    # written, the exit code says so, and one stderr line names the failed steps
    cover_path = tmp_path / "c.json"
    argv = ["cover", "build", "--construction", "dict-banach", "--d", "4", "--p", "4", "--mu", "0.5"]
    assert main([*argv, "--seed", str(seed), "--out", str(cover_path)]) == 2
    assert capsys.readouterr().err == f"note: cover not certified: {_UNCERTIFIED_NOTES[seed]}\n"
    assert covering_from_dict(_read(cover_path)).provenance.startswith("dict-banach(N=")


@pytest.mark.parametrize("seed", [0, 7])
def test_cover_build_dictionary_matches_selftest(seed, tmp_path):
    # cover build and the selftest run one pipeline, so they grow one dictionary
    sizes = {check["name"]: check["detail"].get("dictionary_size") for check in run_selftest(seed)["checks"]}
    cases = {
        "dict-pipeline-l2": ["dict-l2", "--d", "4", "--mu", "0.5"],
        "dict-pipeline-banach": ["dict-banach", "--d", "4", "--p", "4", "--mu", "0.5"],
    }
    for check, args in cases.items():
        cover_path = tmp_path / f"{check}.json"
        argv = ["cover", "build", "--construction", *args, "--seed", str(seed), "--out", str(cover_path)]
        assert main(argv) == 0
        assert len(covering_from_dict(_read(cover_path))) == 2 * sizes[check]


def test_cover_build_basis_l4(tmp_path):
    cover_path = tmp_path / "b.json"
    assert main(
        ["cover", "build", "--construction", "basis", "--d", "4", "--p", "4", "--out", str(cover_path)]
    ) == 0
    cov = covering_from_dict(_read(cover_path))
    assert cov.radius == pytest.approx(1.0 - 1.0 / 1024.0, rel=1e-14)


@pytest.mark.parametrize("name", [name for name, (needs_p2, _) in CONSTRUCTIONS.items() if needs_p2])
def test_cover_build_requires_matching_p(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the p = 2 requirement must be checked before any work")

    monkeypatch.setattr("ballcover.cli.certified_dictionary_cover", refuse)
    argv = ["cover", "build", "--construction", name, "--d", "3", "--p", "4", "--mu", "0.5"]
    assert main(argv) == 1


# small arguments for each construction of the table
_SMOKE_ARGS = {
    "simplex": ["--d", "2"],
    "simplex-shrunk": ["--d", "2"],
    "etf": ["--d", "3"],
    "dict-l2": ["--d", "3", "--mu", "0.5"],
    "dict-banach": ["--d", "3", "--p", "4", "--mu", "0.5"],
    "axis": ["--d", "2"],
    "basis": ["--d", "3", "--p", "3"],
}


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_cover_build_every_construction(name, tmp_path):
    cover_path = tmp_path / "c.json"
    argv = ["cover", "build", "--construction", name, *_SMOKE_ARGS[name], "--seed", "4"]
    assert main([*argv, "--out", str(cover_path)]) == 0
    assert main(["cover", "verify", "--in", str(cover_path), "--samples", "2000", "--seed", "6"]) == 0


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


def test_witness_refusal_is_one_error_line(tmp_path, capsys):
    # centers 17 orders of magnitude apart defeat the construction; its own
    # check refuses the point, and main reports that as a usage error
    centers_path = tmp_path / "centers.json"
    centers_path.write_text(json.dumps({"centers": [[1e17, 1e17], [0.0, 0.5]]}))
    out = tmp_path / "w.json"
    assert main(["witness", "--d", "2", "--centers", str(centers_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: witness construction failed") and captured.err.count("\n") == 1
    assert not out.exists()


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


def test_bounds_table_out_writes_json(tmp_path, capsys):
    out = tmp_path / "b.json"
    argv = ["bounds", "table", "--d", "4", "--p", "2", "--delta-grid", "0.01:0.2:3"]
    assert main([*argv, "--seed", "6", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    blob = _read(out)
    assert blob["seed"] == 6
    assert blob["constants"] == {"c1": 1.0, "c2": 1.0, "label": "uncalibrated"}
    assert len(blob["rows"]) == 3


def test_bounds_table_golden_bytes(tmp_path, capsys):
    # pins every bit of the d = 16 table at p = 2 (the default grid), p = 4
    # and p = 1.5 (both regimes of the bound and of mu_from_delta), as CSV and
    # as JSON
    pinned = {
        "2": (
            "595c4cc2a6b541ebf1b888388f1d4a07962b8a3d080b57eb4afe47398dc22380",
            "f10770ebf34dfdf5983f68290eb20294db6fbcdf64f978a998485bf754d24b8b",
        ),
        "4": (
            "a64bafe190753de2b8ee38459e1d9185c4552b2ab638fb473870fb89283ee954",
            "b241fc135e6ae2d0600abbf9288738e5e639e9a42fbcbb926128ac8036bfffa7",
        ),
        "1.5": (
            "4934ff3124448b2b9f8b58ea15a6600e855c13ddd4434f5c3a5a7cf99b00bc0d",
            "b059ccf445e09c53164a78e99d5e50933da7822e4761f82c31590ea0be40c5a0",
        ),
    }
    for p, digests in pinned.items():
        argv = ["bounds", "table", "--d", "16", "--p", p, "--delta-grid", "0.005:0.2:20"]
        csv_path, json_path = tmp_path / f"t{p}.csv", tmp_path / f"t{p}.json"
        assert main([*argv, "--csv", str(csv_path)]) == 0
        assert capsys.readouterr().out == f"wrote {csv_path} (constants uncalibrated: C1=1.0 C2=1.0)\n"
        assert main([*argv, "--out", str(json_path)]) == 0
        assert capsys.readouterr().out == f"wrote {json_path}\n"
        assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv_path, json_path)) == digests


@pytest.mark.parametrize(
    "d, p, centers, digest",
    [
        (
            4,
            "2",
            [[0.1, 0.2, 0.3, 0.4], [-0.5, 0.1, 0.0, 0.2], [0.0, 0.0, 0.9, -0.1], [0.3, -0.3, 0.2, 0.0]],
            "017373d83597694ea1d1e5d347d61609e2d10d399ada5c56f953715ee3213324",
        ),
        (
            3,
            "3",
            [[0.1, 0.2, 0.3], [-0.5, 0.1, 0.0], [0.0, 0.0, 0.9]],
            "eec2c210da8a1a968361f6163ff9750e76d3e54084bd5c807b31c0de4dcc3e7b",
        ),
    ],
)
def test_witness_golden_bytes(tmp_path, d, p, centers, digest):
    # pins every bit of the witness artefact, at p = 2 (which also runs the
    # affine-hull check) and at p = 3
    centers_path, out = tmp_path / "c.json", tmp_path / "w.json"
    centers_path.write_text(json.dumps({"centers": centers}))
    assert main(["witness", "--d", str(d), "--p", p, "--centers", str(centers_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _half_vertex_cover_file(path):
    # the d = 4 half-vertex l_inf cover of the CI step; no construction builds one
    centers = [[s / 2 for s in v] for v in itertools.product((-1, 1), repeat=4)]
    blob = {"space": {"d": 4, "p": "inf"}, "centers": centers, "radius": 1.0, "closed": False}
    path.write_text(json.dumps({**blob, "provenance": "half-vertices(d=4)"}))


def _basis_cover_file(path):
    argv = ["cover", "build", "--construction", "basis", "--d", "7", "--p", "4", "--iterate", "2"]
    assert main([*argv, "--out", str(path)]) == 0


@pytest.mark.parametrize(
    "write_cover, digest",
    [
        (_half_vertex_cover_file, "eb360ad7981ebe616b7137cc088ced1b92fbfdfe7345d3895bab4c92dc243ce6"),
        (_basis_cover_file, "ee28f4d64d41223cffd601d9eba62731cfa9173c2baef42e78d6b591b77f7e55"),
    ],
    ids=["linf-half-vertices", "l4-basis"],
)
def test_cover_verify_adversarial_golden_bytes(tmp_path, write_cover, digest):
    # pins every bit of a sampled and ascended report at p = inf and at
    # p = 4, neither of which calls BLAS
    cover_path, out = tmp_path / "cover.json", tmp_path / "report.json"
    write_cover(cover_path)
    argv = ["cover", "verify", "--in", str(cover_path), "--samples", "4000"]
    assert main([*argv, "--adversarial", "20", "--steps", "50", "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("option", [["--c1", "1.5"], ["--c2", "2"]])
def test_bounds_table_has_no_constant_options(tmp_path, capsys, option):
    csv_path, out = tmp_path / "t.csv", tmp_path / "t.json"
    argv = ["bounds", "table", "--d", "4", "--delta-grid", "0.01:0.2:3", "--csv", str(csv_path), "--out", str(out)]
    assert main([*argv, *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not csv_path.exists() and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "build", "--construction", "axis", "--d", "4"],
        ["dict", "greedy", "--d", "4", "--mu", "0.5"],
        ["witness", "--d", "3", "--centers", "c.json"],
        ["bounds", "table", "--d", "4", "--delta-grid", "0.01:0.2:3"],
    ],
)
def test_unparsable_p_is_a_usage_error(capsys, argv):
    assert main([*argv, "--p", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid float value: 'abc'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("raw", ["inf", "Inf", "INF", "infinity"])
def test_infinite_p_is_refused(capsys, raw):
    argv = ["bounds", "table", "--d", "4", "--p", raw, "--delta-grid", "0.01:0.2:3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound table requires 1 < p < inf\n"


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


def test_selftest_fails_without_the_exact_hadamard_check(monkeypatch, capsys):
    # hadamard-exact relies on the check sylvester's matrices pass when built
    monkeypatch.setattr("ballcover.hadamard.verify_hadamard", lambda entries: False)
    assert main(["selftest"]) != 0
    assert "not Hadamard" in capsys.readouterr().err


def test_seed_defaults_to_zero_whatever_the_environment(tmp_path, monkeypatch):
    # only --seed sets the seed
    monkeypatch.setenv("BALLCOVER_SEED", "123")
    out = tmp_path / "h.json"
    assert main(["hadamard", "--order", "2", "--out", str(out)]) == 0
    assert _read(out)["seed"] == 0


def test_parser_is_built_once(tmp_path, monkeypatch):
    argv = ["hadamard", "--order", "2", "--out", str(tmp_path / "h.json")]
    assert main(argv) == 0
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert main(argv) == 0
    assert main(["etf", "--order", "4", "--out", str(tmp_path / "etf.json")]) == 0
    assert calls == []


def test_no_option_value_carries_over_between_calls(tmp_path, capsys):
    argv = ["cover", "build", "--construction", "dict-l2", "--d", "3"]
    assert main([*argv, "--mu", "0.5", "--out", str(tmp_path / "c.json")]) == 0
    capsys.readouterr()
    out = tmp_path / "again.json"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: construction 'dict-l2' needs --mu\n"
    assert not out.exists()


def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(tmp_path):
    argv = ["cover", "build", "--construction", "axis", "--d", "4"]
    assert main([*argv, "--p", "abc", "--out", str(tmp_path / "bad.json")]) == 1
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert main([*argv, "--out", str(here)]) == 0
    run = subprocess.run([sys.executable, "-m", "ballcover", *argv, "--out", str(fresh)], capture_output=True)
    assert run.returncode == 0, run.stderr.decode()[:500]
    assert here.read_bytes() == fresh.read_bytes()
