"""Command-line interface: constructions, verification, dictionary building,
witnesses, bound tables, and a deterministic self-test.

Exit codes: 0 success, 1 usage or internal error, 2 verification failure.
The parser is built once per process; each call parses into a new namespace.
Each command returns (payload, passed); main alone records the seed in the
payload, writes it through serialize.dump, one pass per sink (the --out file,
stdout), and maps the verdict to the exit code. Timing never enters
the JSON, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .bounds import CONSTANTS, covering_bound_table, table_to_csv, volumetric_bounds
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
from .dictionaries import coherence_banach, coherence_matrix, greedy_maximal_dictionary, numeric_rank
from .frames import GRAM_TOL, etf_from_hadamard, verify_frame_identities
from .hadamard import sylvester
from .serialize import (
    _floats,
    _object,
    covering_from_dict,
    covering_to_dict,
    dictionary_from_dict,
    dictionary_to_dict,
    dump,
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
    adversarial_search,
    certified_dictionary_cover,
    certify_sampling,
    covered,
    linf_vertex_check,
    nearest,
    simplex_dichotomy_check,
    uncovered_witness,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means verification failure here)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _sylvester(order: int, least: int):
    # the constructions cover powers of two only
    if order < least or order & (order - 1):
        raise ValueError(f"order {order} is not an available Hadamard order (a power of two >= {least})")
    return sylvester(order.bit_length() - 1)


def _cmd_hadamard(args):
    h = _sylvester(args.order, 1)
    # a HadamardMatrix has passed the exact check when it was constructed
    return {"order": h.order, "rows": h.entries, "verified": True}, True


def _cmd_etf(args):
    frame = etf_from_hadamard(_sylvester(args.order, 2))
    gram_dev = frame.gram_deviation()
    worst = [0.0, 0.0, 0.0]
    for x in sample_sphere(LpSpace(frame.dim, 2.0), 50, args.seed):
        res = verify_frame_identities(frame, x)
        worst = [max(w, r) for w, r in zip(worst, res)]
    payload = {
        "dim": frame.dim,
        "vectors": frame.matrix.T,
        "gram_max_deviation": gram_dev,
        "worst_identity_residuals": worst,
        "verified": bool(gram_dev <= GRAM_TOL and max(worst) <= 1e-10),
    }
    return payload, payload["verified"]


def _cmd_dict_greedy(args):
    space = LpSpace(args.d, args.p)
    dictionary = greedy_maximal_dictionary(space, args.mu, args.seed)
    payload = dictionary_to_dict(dictionary)
    payload["mu"] = args.mu
    if len(dictionary) >= 2:
        payload["coherence"] = coherence_banach(dictionary)
    return payload, True


def _cmd_dict_coherence(args):
    with open(args.infile) as fh:
        dictionary = dictionary_from_dict(json.load(fh))
    payload = {
        "n": len(dictionary),
        "coherence": coherence_banach(dictionary),
        "rank": numeric_rank(coherence_matrix(dictionary)),
    }
    return payload, True


def _dictionary_cover(args, space, cover):
    # the dict-* constructions (cover(dictionary, mu) -> BallCovering) run the
    # library's one dictionary pipeline; a cover it does not certify is still
    # written, and cover build exits 2, as cover verify does with a failing
    # report, after one stderr note naming the failed steps
    if args.mu is None:
        raise ValueError(f"construction {args.construction!r} needs --mu")
    cov, _, _, hardened, report = certified_dictionary_cover(
        space, args.mu, args.seed, lambda d: cover(d, args.mu)
    )
    failed = [step for step, ok in (("hardening", hardened), ("final sampling", report.passed)) if not ok]
    if failed:
        print(
            f"note: cover not certified: {' and '.join(failed)} failed; "
            f"sampled worst margin {report.worst_margin!r}",
            file=sys.stderr,
        )
    return cov, not failed


# name -> (needs p = 2, builder(args, space) -> (BallCovering, certified))
CONSTRUCTIONS = {
    "simplex": (True, lambda args, space: (simplex_cover_unit(args.d)[0], True)),
    "simplex-shrunk": (True, lambda args, space: (simplex_cover_shrunk(args.d)[0], True)),
    "etf": (True, lambda args, space: (etf_cover(args.d)[0], True)),
    "dict-l2": (True, lambda args, space: _dictionary_cover(args, space, dictionary_cover_l2)),
    "dict-banach": (
        False,
        lambda args, space: _dictionary_cover(
            args, space, lambda d, mu: dictionary_cover_banach(d, mu, smoothness_majorant_for(space))
        ),
    ),
    "axis": (True, lambda args, space: (axis_cover(args.d)[0], True)),
    "basis": (False, lambda args, space: (basis_cover(space), True)),
}


def _cmd_cover_build(args):
    needs_p2, build = CONSTRUCTIONS[args.construction]
    if needs_p2 and args.p != 2.0:
        raise ValueError(f"construction {args.construction!r} requires p = 2")
    cov, certified = build(args, LpSpace(args.d, args.p))
    return covering_to_dict(iterate_cover(cov, args.iterate)), certified


def _margin_text(margin: float):
    # JSON has no inf or NaN: a non-finite margin (a center too far away for
    # a finite distance) is written "-inf", "inf" or "nan", as p is written "inf"
    return margin if math.isfinite(margin) else str(margin)


def _cmd_cover_verify(args):
    with open(args.infile) as fh:
        cov = covering_from_dict(json.load(fh))
    n_sphere = args.samples // 2
    report = certify_sampling(cov, args.samples - n_sphere, n_sphere, args.seed)
    payload = asdict(report)
    payload["worst_margin"] = _margin_text(report.worst_margin)
    payload["provenance"] = cov.provenance
    passed = report.passed
    if args.adversarial:
        point, margin = adversarial_search(cov, args.adversarial, args.steps, args.seed + 1)
        adv_ok = covered(cov, margin, ADVERSARIAL_TOL)
        payload["adversarial"] = {
            "restarts": args.adversarial,
            "steps": args.steps,
            "worst_point": point,
            "margin": _margin_text(margin),
            "passed": adv_ok,
        }
        passed = passed and adv_ok
    payload["passed"] = passed
    return payload, passed


def _cmd_witness(args):
    with open(args.centers) as fh:
        centers = _floats(_object(json.load(fh), "centers file")["centers"], "centers")
    space = LpSpace(args.d, args.p)
    z = uncovered_witness(space, centers)
    payload = {
        "witness": z,
        "norm": norm(space, z),
        "min_distance": float(nearest(space, z, centers)[1][0]),
    }
    return payload, True


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError("delta grid must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be positive")
    return np.linspace(start, stop, count)


def _cmd_bounds_table(args):
    space = LpSpace(args.d, args.p)
    rows = covering_bound_table(space, _parse_grid(args.delta_grid))
    if args.csv:
        table_to_csv(rows, args.csv)
        print(f"wrote {args.csv} (constants {CONSTANTS['label']}: C1={CONSTANTS['c1']} C2={CONSTANTS['c2']})")
        if not (args.json or args.out):
            return None, True
    return {"constants": CONSTANTS, "rows": [asdict(row) for row in rows]}, True


def _selftest_checks(seed: int):
    space4 = LpSpace(4, 4.0)

    def hadamard_exact():
        # a HadamardMatrix has passed the exact check when it was constructed
        return True, {"orders": [sylvester(k).order for k in range(9)]}

    def etf_gram():
        worst = 0.0
        for k in (1, 2, 3, 4, 5, 6):
            worst = max(worst, etf_from_hadamard(sylvester(k)).gram_deviation())
        return worst <= GRAM_TOL, {"worst_gram_deviation": worst}

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

    def dict_pipeline_l2():
        cov, dictionary, maximal, hardened, report = certified_dictionary_cover(
            LpSpace(4, 2.0), 0.5, seed, lambda d: dictionary_cover_l2(d, 0.5)
        )
        _, margin = adversarial_search(cov, 30, 100, seed + 4)
        detail = {"dictionary_size": len(dictionary), "worst_margin": report.worst_margin}
        detail["adversarial_margin"] = margin
        return maximal and hardened and report.passed and covered(cov, margin, ADVERSARIAL_TOL), detail

    def dict_pipeline_banach():
        # two-sided admission cannot always repair one-sided maximality gaps
        # in asymmetric spaces; record that verdict and certify the coverage
        majorant = smoothness_majorant_for(space4)
        _, dictionary, maximal, hardened, report = certified_dictionary_cover(
            space4, 0.5, seed, lambda d: dictionary_cover_banach(d, 0.5, majorant)
        )
        detail = {"dictionary_size": len(dictionary), "worst_margin": report.worst_margin}
        detail["maximality_certified"] = maximal
        return hardened and report.passed, detail

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
        return covered(cov, margin, ADVERSARIAL_TOL), {"margin": margin}

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


def _cmd_selftest(args):
    report = run_selftest(args.seed)
    return report, report["all_passed"]


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    parser.add_argument("--json", action="store_true", help="force JSON on stdout")


@functools.cache
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
    p_greedy.add_argument("--p", type=float, default=2.0, help="norm exponent (number or 'inf')")
    p_greedy.add_argument("--mu", type=float, required=True)
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
    p_build.add_argument("--p", type=float, default=2.0, help="norm exponent (number or 'inf')")
    p_build.add_argument("--mu", type=float, default=None)
    p_build.add_argument("--iterate", type=int, default=1)
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
    p_wit.add_argument("--p", type=float, default=2.0, help="norm exponent (number or 'inf')")
    p_wit.add_argument("--centers", required=True, help="JSON file with a 'centers' array")
    _add_common(p_wit)
    p_wit.set_defaults(func=_cmd_witness)

    p_bounds = sub.add_parser("bounds", help="bound tables")
    bounds_sub = p_bounds.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_table = bounds_sub.add_parser("table", help="covering bound table over a delta grid")
    p_table.add_argument("--d", type=int, required=True)
    p_table.add_argument("--p", type=float, default=2.0, help="norm exponent (number or 'inf')")
    p_table.add_argument("--delta-grid", dest="delta_grid", required=True, help="start:stop:count")
    p_table.add_argument("--csv", default=None)
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
    try:
        payload, passed = args.func(args)
        if payload is not None:
            payload["seed"] = args.seed
            if args.out:
                with open(args.out, "w") as fh:
                    dump(payload, fh)
            if args.json or not args.out:
                dump(payload, sys.stdout)
            else:
                print(f"wrote {args.out}")
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
