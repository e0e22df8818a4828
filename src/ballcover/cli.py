"""Command-line interface: constructions, verification, dictionary building,
witnesses, bound tables, and a deterministic self-test.

Exit codes: 0 success, 1 usage or internal error, 2 verification failure.
Every emitted artifact records the seed; timing never enters the JSON so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .bounds import BoundConstants, covering_bound_table, table_to_csv, volumetric_bounds
from .coverings import (
    axis_cover,
    basis_cover,
    dictionary_cover_banach,
    dictionary_cover_l2,
    etf_cover,
    iterate_cover,
    simplex_cover_shrunk,
    simplex_cover_unit,
)
from .dictionaries import coherence_banach, coherence_matrix, greedy_maximal_dictionary
from .frames import etf_from_hadamard, verify_frame_identities
from .hadamard import sylvester, verify_hadamard
from .serialize import (
    covering_from_dict,
    covering_to_dict,
    dictionary_from_dict,
    dictionary_to_dict,
    dumps,
    report_to_dict,
)
from .spaces import (
    LpSpace,
    SmoothnessMajorant,
    ball_from_rng,
    norm,
    sample_sphere,
    smoothness_majorant_for,
    solve_step_size,
    solve_step_size_bisect,
)
from .verify import (
    ADVERSARIAL_TOL,
    MaximalityRepairError,
    adversarial_search,
    certify_maximality,
    certify_sampling,
    harden_dictionary,
    linf_vertex_check,
    nearest,
    simplex_dichotomy_check,
    uncovered_witness,
)

ENV_SEED = "BALLCOVER_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means verification failure here)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    return int(os.environ.get(ENV_SEED, "0"))


def _emit(payload: dict, out_path: str | None, force_stdout: bool) -> None:
    text = dumps(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        if force_stdout:
            sys.stdout.write(text)
        else:
            print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


def _parse_p(raw: str) -> float:
    return math.inf if raw in ("inf", "Inf", "INF") else float(raw)


def _power_of_two_exponent(n: int) -> int | None:
    if n < 1 or (n & (n - 1)) != 0:
        return None
    return n.bit_length() - 1


def _cmd_hadamard(args) -> int:
    k = _power_of_two_exponent(args.order)
    if k is None:
        print(
            f"order {args.order} is not available (constructions cover powers of two)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    h = sylvester(k)
    # a HadamardMatrix has passed the exact check when it was constructed
    payload = {"order": h.order, "rows": h.entries.tolist(), "verified": True, "seed": args.seed}
    _emit(payload, args.out, args.json)
    return EXIT_OK


def _cmd_etf(args) -> int:
    k = _power_of_two_exponent(args.order)
    if k is None or args.order < 2:
        print(f"order {args.order} is not an available Hadamard order >= 2", file=sys.stderr)
        return EXIT_USAGE
    frame = etf_from_hadamard(sylvester(k))
    gram_dev = frame.gram_deviation()
    worst = [0.0, 0.0, 0.0]
    for x in sample_sphere(LpSpace(frame.dim, 2.0), 50, args.seed):
        res = verify_frame_identities(frame, x)
        worst = [max(w, r) for w, r in zip(worst, res)]
    payload = {
        "dim": frame.dim,
        "vectors": frame.matrix.T.tolist(),
        "gram_max_deviation": gram_dev,
        "worst_identity_residuals": worst,
        "verified": bool(gram_dev <= 1e-12 and max(worst) <= 1e-10),
        "seed": args.seed,
    }
    _emit(payload, args.out, args.json)
    return EXIT_OK if payload["verified"] else EXIT_VERIFY


def _cmd_dict_greedy(args) -> int:
    space = LpSpace(args.d, _parse_p(args.p))
    dictionary = greedy_maximal_dictionary(space, args.mu, args.seed, args.saturation)
    payload = dictionary_to_dict(dictionary, seed=args.seed)
    payload["mu"] = args.mu
    if len(dictionary) >= 2:
        payload["coherence"] = coherence_banach(dictionary)
    _emit(payload, args.out, args.json)
    return EXIT_OK


def _cmd_dict_coherence(args) -> int:
    with open(args.infile) as fh:
        dictionary = dictionary_from_dict(json.load(fh))
    payload = {
        "n": len(dictionary),
        "coherence": coherence_banach(dictionary),
        "rank": coherence_matrix(dictionary).numeric_rank(),
        "seed": args.seed,
    }
    _emit(payload, args.out, args.json)
    return EXIT_OK


def _certified_dictionary(space, mu, seed, saturation, samples):
    """Greedy build at seed, then certify_maximality at seed + 1.

    Returns (maximal, dictionary). A counterexample that cannot be admitted
    gives (False, the dictionary as augmented so far).
    """
    dictionary = greedy_maximal_dictionary(space, mu, seed, saturation)
    try:
        return certify_maximality(dictionary, mu, samples, seed + 1)
    except MaximalityRepairError as err:
        return False, err.dictionary


def _build_dictionary(args, space):
    # the certified dictionary behind the dict-* constructions
    if args.mu is None:
        raise ValueError(f"construction {args.construction!r} needs --mu")
    maximal, dictionary = _certified_dictionary(
        space, args.mu, args.seed, args.saturation, args.certify_samples
    )
    if not maximal:
        print(
            "warning: maximality certification hit an unrepairable counterexample; "
            "continuing with the dictionary augmented so far",
            file=sys.stderr,
        )
    return dictionary


# name -> (needs p = 2, builder(args, space) -> BallCovering)
CONSTRUCTIONS = {
    "simplex": (True, lambda args, space: simplex_cover_unit(args.d)[0]),
    "simplex-shrunk": (True, lambda args, space: simplex_cover_shrunk(args.d)[0]),
    "etf": (True, lambda args, space: etf_cover(args.d)[0]),
    "dict-l2": (
        True,
        lambda args, space: dictionary_cover_l2(_build_dictionary(args, space), args.mu),
    ),
    "dict-banach": (
        False,
        lambda args, space: dictionary_cover_banach(
            _build_dictionary(args, space), args.mu, smoothness_majorant_for(space)
        ),
    ),
    "axis": (True, lambda args, space: axis_cover(args.d)[0]),
    "basis": (False, lambda args, space: basis_cover(space, args.K)),
}


def _cmd_cover_build(args) -> int:
    needs_p2, build = CONSTRUCTIONS[args.construction]
    p = _parse_p(args.p)
    if needs_p2 and p != 2.0:
        raise ValueError(f"construction {args.construction!r} requires p = 2")
    cov = iterate_cover(build(args, LpSpace(args.d, p)), args.iterate)
    _emit(covering_to_dict(cov, seed=args.seed), args.out, args.json)
    return EXIT_OK


def _cmd_cover_verify(args) -> int:
    with open(args.infile) as fh:
        cov = covering_from_dict(json.load(fh))
    n_sphere = args.samples // 2
    report = certify_sampling(cov, args.samples - n_sphere, n_sphere, args.seed)
    payload = report_to_dict(report)
    payload["provenance"] = cov.provenance
    passed = report.passed
    if args.adversarial > 0:
        point, margin = adversarial_search(cov, args.adversarial, args.steps, args.seed + 1)
        adv_ok = margin > 0.0 if not cov.closed else margin >= -ADVERSARIAL_TOL
        payload["adversarial"] = {
            "restarts": args.adversarial,
            "steps": args.steps,
            "worst_point": point.tolist(),
            "margin": margin,
            "passed": adv_ok,
        }
        passed = passed and adv_ok
    payload["passed"] = passed
    _emit(payload, args.out, args.json)
    return EXIT_OK if passed else EXIT_VERIFY


def _cmd_witness(args) -> int:
    with open(args.centers) as fh:
        centers = np.asarray(json.load(fh)["centers"], dtype=float)
    space = LpSpace(args.d, _parse_p(args.p))
    z = uncovered_witness(space, centers)
    payload = {
        "witness": z.tolist(),
        "norm": norm(space, z),
        "min_distance": float(nearest(space, z, centers)[1][0]),
        "seed": args.seed,
    }
    _emit(payload, args.out, args.json)
    return EXIT_OK


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError("delta grid must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be positive")
    return np.linspace(start, stop, count)


def _cmd_bounds_table(args) -> int:
    space = LpSpace(args.d, _parse_p(args.p))
    constants = BoundConstants(
        c1=args.c1, c2=args.c2, calibrated=(args.c1 != 1.0 or args.c2 != 1.0)
    )
    rows = covering_bound_table(space, _parse_grid(args.delta_grid), constants)
    if args.csv:
        table_to_csv(rows, args.csv)
        print(f"wrote {args.csv} (constants {constants.label}: C1={constants.c1} C2={constants.c2})")
    if args.json or not args.csv:
        payload = {
            "constants": {"c1": constants.c1, "c2": constants.c2, "label": constants.label},
            "rows": [asdict(row) for row in rows],
            "seed": args.seed,
        }
        sys.stdout.write(dumps(payload))
    return EXIT_OK


def _selftest_checks(seed: int):
    space4 = LpSpace(4, 4.0)

    def hadamard_exact():
        ok = all(verify_hadamard(sylvester(k).entries) for k in range(9))
        return ok, {"orders": [2 ** k for k in range(9)]}

    def etf_gram():
        worst = 0.0
        for k in (1, 2, 3, 4, 5, 6):
            worst = max(worst, etf_from_hadamard(sylvester(k)).gram_deviation())
        return worst <= 1e-12, {"worst_gram_deviation": worst}

    def simplex_dichotomy():
        results = {}
        ok = True
        for d in (2, 8):
            cov, _ = simplex_cover_unit(d)
            report = certify_sampling(cov, 2000, 2000, seed)
            pts = np.vstack(
                [
                    np.zeros((1, d)),
                    sample_sphere(LpSpace(d, 2.0), 2000, seed + d),
                ]
            )
            dich = bool(np.all(simplex_dichotomy_check(pts)))
            ok = ok and report.passed and dich
            results[f"d{d}_worst_margin"] = report.worst_margin
        return ok, results

    def margin_covers():
        cases = {
            "simplex-shrunk-2": simplex_cover_shrunk(2)[0],
            "simplex-shrunk-8": simplex_cover_shrunk(8)[0],
            "etf-3": etf_cover(3)[0],
            "etf-7": etf_cover(7)[0],
            "axis-4": axis_cover(4)[0],
            "axis-16": axis_cover(16)[0],
            "basis-l4": basis_cover(space4),
            "iterate-axis2-m2": iterate_cover(axis_cover(2)[0], 2),
        }
        ok = True
        detail = {}
        for name, cov in cases.items():
            report = certify_sampling(cov, 2000, 2000, seed)
            ok = ok and report.passed
            detail[name] = report.worst_margin
        detail["iterate_count"] = len(cases["iterate-axis2-m2"])
        ok = ok and detail["iterate_count"] == 16
        return ok, detail

    def dict_pipeline(space, cover):
        # certified dictionary at mu = 0.5, hardening, then sampled coverage;
        # returns (maximal, hardened and sampling passed, cover, detail)
        maximal, dictionary = _certified_dictionary(space, 0.5, seed, 2000, 4000)
        hardened, dictionary = harden_dictionary(
            dictionary, 0.5, cover, restarts=50, steps=100, seed=seed + 2, clean_rounds=3
        )
        cov = cover(dictionary)
        report = certify_sampling(cov, 2000, 2000, seed + 3)
        detail = {"dictionary_size": len(dictionary), "worst_margin": report.worst_margin}
        return maximal, hardened and report.passed, cov, detail

    def dict_pipeline_l2():
        maximal, ok, cov, detail = dict_pipeline(
            LpSpace(4, 2.0), lambda d: dictionary_cover_l2(d, 0.5)
        )
        _, detail["adversarial_margin"] = adversarial_search(cov, 30, 100, seed + 4)
        return maximal and ok and detail["adversarial_margin"] >= -ADVERSARIAL_TOL, detail

    def dict_pipeline_banach():
        # two-sided admission cannot always repair one-sided maximality gaps
        # in asymmetric spaces; record that verdict and certify the coverage
        majorant = smoothness_majorant_for(space4)
        maximal, ok, _, detail = dict_pipeline(
            space4, lambda d: dictionary_cover_banach(d, 0.5, majorant)
        )
        detail["maximality_certified"] = maximal
        return ok, detail

    def witness_spot():
        worst = math.inf
        for p in (2.0, 3.0):
            space = LpSpace(4, p)
            rng = np.random.default_rng(seed + int(10 * p))
            for _ in range(20):
                centers = ball_from_rng(space, 4, rng)
                z = uncovered_witness(space, centers)
                worst = min(worst, float(nearest(space, z, centers)[1][0]))
        return worst >= 1.0 - 1e-9, {"worst_min_distance": worst}

    def vertex_check():
        ok = True
        detail = {}
        for d in (2, 6):
            report = linf_vertex_check(d, n_samples=2000, n_centers=50, seed=seed)
            ok = ok and report.samples_covered and report.max_vertices_per_ball <= 1
            detail[f"d{d}_min_margin"] = report.min_sample_margin
        return ok, detail

    def bounds_grid():
        ok = True
        for d in range(1, 21):
            for eps in np.linspace(0.05, 1.0, 20):
                vb = volumetric_bounds(d, float(eps))
                ok = ok and vb.log_lower <= vb.log_upper + 1e-12
        worst_rel = 0.0
        for gamma, q in ((0.5, 2.0), (1.0, 2.0), (2.0, 2.0), (2.0 / 3.0, 1.5)):
            majorant = SmoothnessMajorant(gamma, q)
            for mu in (0.1, 0.25, 0.5):
                closed = solve_step_size(majorant, mu)
                bis = solve_step_size_bisect(majorant.value, mu)
                worst_rel = max(worst_rel, abs(closed - bis) / closed)
        return ok and worst_rel <= 1e-10, {"worst_step_rel_diff": worst_rel}

    def adversarial_spot():
        cov, _ = simplex_cover_shrunk(3)
        _, margin = adversarial_search(cov, 10, 50, seed)
        return margin >= -ADVERSARIAL_TOL, {"margin": margin}

    return [
        ("hadamard-exact", hadamard_exact),
        ("etf-gram", etf_gram),
        ("simplex-dichotomy", simplex_dichotomy),
        ("margin-covers", margin_covers),
        ("dict-pipeline-l2", dict_pipeline_l2),
        ("dict-pipeline-banach", dict_pipeline_banach),
        ("witness", witness_spot),
        ("linf-vertices", vertex_check),
        ("bounds-and-steps", bounds_grid),
        ("adversarial", adversarial_spot),
    ]


def run_selftest(seed: int) -> dict:
    """Run the margin suite across all constructions; deterministic given seed."""
    checks = []
    all_passed = True
    for name, fn in _selftest_checks(seed):
        passed, detail = fn()
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        all_passed = all_passed and passed
    return {"seed": seed, "checks": checks, "all_passed": bool(all_passed)}


def _cmd_selftest(args) -> int:
    report = run_selftest(args.seed)
    _emit(report, args.out, args.json)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: $BALLCOVER_SEED or 0)")
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    parser.add_argument("--json", action="store_true", help="force JSON on stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ballcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_had = sub.add_parser("hadamard", help="emit a Hadamard matrix as JSON")
    p_had.add_argument("--order", type=int, required=True)
    _add_common(p_had)
    p_had.set_defaults(func=_cmd_hadamard)

    p_etf = sub.add_parser("etf", help="emit an equiangular tight frame with verification")
    p_etf.add_argument("--order", type=int, required=True, help="Hadamard order m; frame lives in R^(m-1)")
    _add_common(p_etf)
    p_etf.set_defaults(func=_cmd_etf)

    p_dict = sub.add_parser("dict", help="dictionary construction and coherence")
    dict_sub = p_dict.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_greedy = dict_sub.add_parser("greedy", help="greedy maximal dictionary")
    p_greedy.add_argument("--d", type=int, required=True)
    p_greedy.add_argument("--p", default="2", help="norm exponent (number or 'inf')")
    p_greedy.add_argument("--mu", type=float, required=True)
    p_greedy.add_argument("--saturation", type=int, default=2000)
    _add_common(p_greedy)
    p_greedy.set_defaults(func=_cmd_dict_greedy)
    p_coh = dict_sub.add_parser("coherence", help="coherence and coherence-matrix rank of a stored dictionary")
    p_coh.add_argument("--in", dest="infile", required=True)
    _add_common(p_coh)
    p_coh.set_defaults(func=_cmd_dict_coherence)

    p_cover = sub.add_parser("cover", help="build and verify coverings")
    cover_sub = p_cover.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_build = cover_sub.add_parser("build", help="build a covering and write it as JSON")
    p_build.add_argument("--construction", choices=list(CONSTRUCTIONS), required=True)
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--p", default="2", help="norm exponent (number or 'inf')")
    p_build.add_argument("--mu", type=float, default=None)
    p_build.add_argument("--K", type=float, default=1.0, help="basis constant for the basis construction")
    p_build.add_argument("--iterate", type=int, default=1)
    p_build.add_argument("--saturation", type=int, default=2000)
    p_build.add_argument("--certify-samples", dest="certify_samples", type=int, default=2000)
    _add_common(p_build)
    p_build.set_defaults(func=_cmd_cover_build)
    p_verify = cover_sub.add_parser("verify", help="certify a stored covering")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--samples", type=int, default=20000)
    p_verify.add_argument("--adversarial", type=int, default=0, help="adversarial restarts (0 disables)")
    p_verify.add_argument("--steps", type=int, default=200)
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_cover_verify)

    p_wit = sub.add_parser("witness", help="uncovered-point witness for d stored centers")
    p_wit.add_argument("--d", type=int, required=True)
    p_wit.add_argument("--p", default="2")
    p_wit.add_argument("--centers", required=True, help="JSON file with a 'centers' array")
    _add_common(p_wit)
    p_wit.set_defaults(func=_cmd_witness)

    p_bounds = sub.add_parser("bounds", help="bound tables")
    bounds_sub = p_bounds.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_table = bounds_sub.add_parser("table", help="covering bound table over a delta grid")
    p_table.add_argument("--d", type=int, required=True)
    p_table.add_argument("--p", default="2")
    p_table.add_argument("--delta-grid", dest="delta_grid", required=True, help="start:stop:count")
    p_table.add_argument("--csv", default=None)
    p_table.add_argument("--c1", type=float, default=1.0)
    p_table.add_argument("--c2", type=float, default=1.0)
    _add_common(p_table)
    p_table.set_defaults(func=_cmd_bounds_table)

    p_self = sub.add_parser("selftest", help="run the deterministic margin suite")
    _add_common(p_self)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "seed", None) is None:
        args.seed = _default_seed()
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
