"""The benchmark's workloads, their inputs and their correctness oracles.

Each workload turns the run seed into a fixed list of ops (op ``i`` depends
only on the seed and ``i``) and runs them in-process, one at a time. The
library is reached through module attributes (``verify.certify_sampling``,
not a name imported here), so that the traced run sees every call.

Each ``check`` re-derives what it can with plain numpy, independently of
the library's distance kernel: nearest-center distances by a row-by-row
brute force, dictionary coherence from the norming-functional formula, and
CLI artefacts against the first artefact of the same invocation in the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import struct
from collections import Counter
from pathlib import Path

import numpy as np

ORACLE_ROWS = 64  # sampled points re-checked by the brute-force oracle per certification
ORACLE_REL = 1e-12  # largest relative distance difference the oracle accepts


def op_seed(seed: int, i: int) -> int:
    """Library seed of op i in a run with the given workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 2)


def _plain(fn, name):
    return fn


def same(a, b) -> bool:
    """Bit-for-bit equality of nested op outputs."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


def brute_min_distances(centers: np.ndarray, p: float, xs: np.ndarray) -> np.ndarray:
    """Distance from each row of xs to its nearest center, one row at a time."""
    out = np.empty(xs.shape[0])
    for i, x in enumerate(xs):
        diff = np.abs(centers - x)
        if math.isinf(p):
            out[i] = diff.max(axis=1).min()
        else:
            out[i] = ((diff**p).sum(axis=1) ** (1.0 / p)).min()
    return out


def coherence(vectors: np.ndarray, p: float) -> float:
    """Largest |F_g(h)| over ordered pairs of distinct rows."""
    if p == 2.0:
        funcs = vectors
    else:
        lengths = (np.abs(vectors) ** p).sum(axis=1) ** (1.0 / p)
        funcs = np.sign(vectors) * np.abs(vectors) ** (p - 1.0) / lengths[:, None] ** (p - 1.0)
    g = funcs @ vectors.T
    np.fill_diagonal(g, 0.0)
    return float(np.max(np.abs(g)))


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def check_sampling(bc, cov, rec: dict, n_ball: int, n_sphere: int, seed: int, must_pass: bool) -> list[str]:
    """Re-check one certify_sampling result against the brute-force oracle.

    Regenerates the samples from the seed, as certify_sampling draws them,
    and compares the library's nearest distances on a seeded subsample with
    the oracle. The verdict must agree with the oracle: a failure witness
    must be uncovered, and a pass must have no subsample point below the
    reported worst margin. With must_pass, the verdict must be a pass.
    """
    problems = []
    child = np.random.SeedSequence(seed).spawn(2)
    xs = np.vstack(
        [
            bc.spaces.ball_from_rng(cov.space, n_ball, np.random.default_rng(child[0])),
            bc.spaces.sphere_from_rng(cov.space, n_sphere, np.random.default_rng(child[1])),
        ]
    )
    pick = np.random.default_rng(seed).choice(xs.shape[0], ORACLE_ROWS, replace=False)
    oracle = brute_min_distances(cov.centers, cov.space.p, xs[pick])
    gap = _rel_gap(bc.verify.min_distances(cov, xs[pick]), oracle)
    if gap > ORACLE_REL:
        problems.append(f"{cov.provenance}: nearest distances differ from the oracle by {gap:.2e}")
    if rec["passed"]:
        if float(np.min(cov.radius - oracle)) < rec["worst_margin"] - ORACLE_REL:
            problems.append(f"{cov.provenance}: a sample lies below the reported worst margin")
    else:
        witness = brute_min_distances(cov.centers, cov.space.p, rec["witness"][None, :])[0]
        if not cov.radius - witness < 0.0:
            problems.append(f"{cov.provenance}: the failure witness is covered")
        if must_pass:
            problems.append(f"{cov.provenance}: sampling failed, worst margin {rec['worst_margin']:.3e}")
    return problems


def check_adversarial(bc, cov, rec: dict, must_pass: bool) -> list[str]:
    """The ascent's margin must match the oracle at its point, and pass if asked."""
    problems = []
    oracle = brute_min_distances(cov.centers, cov.space.p, rec["point"][None, :])
    gap = _rel_gap(np.array([cov.radius - rec["margin"]]), oracle)
    if gap > ORACLE_REL:
        problems.append(f"{cov.provenance}: adversarial distance differs from the oracle by {gap:.2e}")
    if must_pass and not rec["margin"] >= -bc.verify.ADVERSARIAL_TOL:
        problems.append(f"{cov.provenance}: adversarial margin {rec['margin']:.3e}")
    return problems


def _certify(bc, cov, n_ball: int, n_sphere: int, restarts: int, steps: int, seed: int) -> dict:
    report = bc.verify.certify_sampling(cov, n_ball, n_sphere, seed)
    point, margin = bc.verify.adversarial_search(cov, restarts, steps, seed + 1)
    return {
        "passed": report.passed,
        "worst_margin": report.worst_margin,
        "witness": report.failure_witness,
        "point": point,
        "margin": margin,
    }


def _cover_builder(bc, space, mu: float):
    # the build_cover callback of harden_dictionary, looked up at call time
    if space.p == 2.0:
        return lambda dictionary: bc.coverings.dictionary_cover_l2(dictionary, mu)
    majorant = bc.spaces.smoothness_majorant_for(space)
    return lambda dictionary: bc.coverings.dictionary_cover_banach(dictionary, mu, majorant)


class DictPipeline:
    """Greedy build, maximality certification, hardening and certification.

    One op runs the Euclidean pipeline (d=16, mu=0.3) and the Banach
    pipeline (d=8, p=4, mu=0.5) on consecutive seeds. The greedy build and
    maximality certification run at the budgets of tests/test_acceptance.py;
    hardening and the final ascent run at about a quarter of them, so that a
    run holds enough ops for a median and a tail (an op at the test budgets
    takes about 3.5 s on a 2-vCPU Xeon VM). The Banach pipeline also ends
    with the adversarial search that the Euclidean one runs.
    """

    name = "dict-pipeline"
    trace_ops = 4
    # (kind, d, p, mu, hardening restarts, steps, clean rounds)
    PIPELINES = (("euclid", 16, 2.0, 0.3, 100, 100, 3), ("banach", 8, 4.0, 0.5, 50, 100, 3))
    FINAL_RESTARTS, FINAL_STEPS = 25, 100

    def setup(self, bc, seed: int, wrap=_plain) -> dict:
        builders = {}
        for kind, d, p, mu, *_ in self.PIPELINES:
            space = bc.spaces.LpSpace(d, p)
            builders[kind] = (space, wrap(_cover_builder(bc, space, mu), "bench.build_cover"))
        return {"bc": bc, "seed": seed, "builders": builders}

    def run(self, state: dict, i: int) -> dict:
        bc, seed = state["bc"], op_seed(state["seed"], i)
        out = {}
        for offset, (kind, _, _, mu, restarts, steps, clean) in enumerate(self.PIPELINES):
            space, build = state["builders"][kind]
            s = seed + offset
            dictionary = bc.dictionaries.greedy_maximal_dictionary(space, mu, s)
            try:
                maximal, dictionary = bc.verify.certify_maximality(dictionary, mu, 20000, s + 1)
            except bc.verify.MaximalityRepairError as err:
                maximal, dictionary = False, err.dictionary
            hardened, dictionary = bc.verify.harden_dictionary(
                dictionary, mu, build, restarts=restarts, steps=steps, clean_rounds=clean, seed=s + 2
            )
            cov = build(dictionary)
            rec = _certify(bc, cov, 10000, 10000, self.FINAL_RESTARTS, self.FINAL_STEPS, s + 3)
            rec.update(maximal=maximal, hardened=hardened, vectors=dictionary.vectors, cover=cov)
            out[kind] = rec
        return out

    def check(self, state: dict, i: int, out: dict) -> tuple[list[str], Counter]:
        """Invariants and verdicts must be right; coverage after hardening is noted.

        An error is a broken coherence bound, a wrong radius, an uncertified
        Euclidean maximality, or a distance, witness or margin that the
        brute-force oracle contradicts. A hardened cover that sampling or the
        final ascent still finds uncovered is a correct report of a known
        weakness of harden_dictionary (a few percent of seeds at these
        budgets), so it is counted in the notes rather than failing the op.
        """
        bc, seed = state["bc"], op_seed(state["seed"], i)
        problems, notes = [], Counter()
        for offset, (kind, _, p, mu, *_) in enumerate(self.PIPELINES):
            rec, s = out[kind], seed + offset
            cov = rec["cover"]
            worst = coherence(rec["vectors"], p)
            if worst > mu + 1e-12:
                problems.append(f"{kind} seed {s}: coherence {worst!r} exceeds mu {mu}")
            # sqrt(1 - mu^2), and 1 - mu a / 2 with a = mu / (8 p) = 1/64 for l4
            expected = math.sqrt(1.0 - mu * mu) if p == 2.0 else 1.0 - 1.0 / 256.0
            if abs(cov.radius - expected) > 1e-15 * expected:
                problems.append(f"{kind} seed {s}: radius {cov.radius!r}, expected {expected!r}")
            if p == 2.0 and not rec["maximal"]:
                problems.append(f"{kind} seed {s}: maximality not certified")
            problems += check_sampling(bc, cov, rec, 10000, 10000, s + 3, False)
            problems += check_adversarial(bc, cov, rec, False)
            if not rec["hardened"]:
                notes[f"{kind}_not_hardened"] += 1
            elif not (rec["passed"] and rec["margin"] >= -bc.verify.ADVERSARIAL_TOL):
                notes[f"{kind}_hardened_but_refuted"] += 1
        return problems, notes

    def close(self, state: dict) -> None:
        pass


class CertifyBulk:
    """Sampling and adversarial certification of fixed covers with proof margins.

    The covers are built once in set-up: p=2 (a 256-center frame cover in
    d=255 and a 1024-center iterated axis cover in d=16), integer p=4 and
    non-integer p=3.5 (iterated basis covers, 256 centers in d=8), and the
    p=inf cube-vertex check in d=12 (4096 centers).
    """

    name = "certify-bulk"
    trace_ops = 8
    N_BALL = N_SPHERE = 1000
    RESTARTS, STEPS = 10, 40
    LINF_D, LINF_SAMPLES, LINF_CENTERS = 12, 4000, 100

    def setup(self, bc, seed: int, wrap=_plain) -> dict:
        cov = bc.coverings
        covers = [
            cov.etf_cover(255)[0],
            cov.iterate_cover(cov.axis_cover(16)[0], 2),
            cov.iterate_cover(cov.basis_cover(bc.spaces.LpSpace(8, 4.0)), 2),
            cov.iterate_cover(cov.basis_cover(bc.spaces.LpSpace(8, 3.5)), 2),
        ]
        return {"bc": bc, "seed": seed, "covers": covers}

    def run(self, state: dict, i: int) -> dict:
        bc, seed = state["bc"], op_seed(state["seed"], i)
        out = {
            c.provenance: _certify(bc, c, self.N_BALL, self.N_SPHERE, self.RESTARTS, self.STEPS, seed)
            for c in state["covers"]
        }
        out["linf"] = bc.verify.linf_vertex_check(
            self.LINF_D, n_samples=self.LINF_SAMPLES, n_centers=self.LINF_CENTERS, seed=seed
        )
        return out

    def check(self, state: dict, i: int, out: dict) -> tuple[list[str], Counter]:
        bc, seed = state["bc"], op_seed(state["seed"], i)
        problems = []
        for cov in state["covers"]:
            rec = out[cov.provenance]
            problems += check_sampling(bc, cov, rec, self.N_BALL, self.N_SPHERE, seed, True)
            problems += check_adversarial(bc, cov, rec, True)
        report = out["linf"]
        d = self.LINF_D
        if not (report.samples_covered and report.max_vertices_per_ball <= 1):
            problems.append(f"linf d={d}: covered={report.samples_covered} per-ball={report.max_vertices_per_ball}")
        if report.center_count != 1 << d or report.vertex_pair_distance != 2.0:
            problems.append(f"linf d={d}: {report.center_count} centers at pair distance {report.vertex_pair_distance}")
        # the check's samples, regenerated as linf_vertex_check draws them
        space = bc.spaces.LpSpace(d, math.inf)
        xs = bc.spaces.ball_from_rng(space, self.LINF_SAMPLES, np.random.default_rng(seed))
        xs = xs[np.random.default_rng(seed).choice(xs.shape[0], ORACLE_ROWS, replace=False)]
        vertices = ((np.arange(1 << d)[:, None] >> np.arange(d)[None, :]) & 1) * 2.0 - 1.0
        cov = bc.coverings.BallCovering(space, 0.5 * vertices, 1.0, closed=False, provenance="linf")
        oracle = brute_min_distances(cov.centers, math.inf, xs)
        gap = _rel_gap(bc.verify.min_distances(cov, xs), oracle)
        if gap > ORACLE_REL:
            problems.append(f"linf d={d}: nearest distances differ from the oracle by {gap:.2e}")
        if float(np.min(1.0 - oracle)) < report.min_sample_margin - ORACLE_REL:
            problems.append(f"linf d={d}: a sample lies below the reported minimum margin")
        return problems, Counter()

    def close(self, state: dict) -> None:
        pass


class CliArtifacts:
    """The command line tool, called in-process, writing into a scratch directory.

    One op is the whole invocation sequence below; every op repeats it with
    the same arguments, so each artefact must be byte-identical to the first.
    """

    name = "cli-artifacts"
    trace_ops = 2

    def setup(self, bc, seed: int, wrap=_plain) -> dict:
        work = Path(__file__).resolve().parent.parent / ".bench_build" / f"cli-artifacts-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        seed_args = ["--seed", str(op_seed(seed, 0))]
        covers = {"etf": ["--d", "255"], "basis": ["--d", "8", "--p", "4", "--iterate", "2"],
                  "axis": ["--d", "16", "--iterate", "2"]}
        calls = [("hadamard", ["hadamard", "--order", "1024"]), ("etf", ["etf", "--order", "256"])]
        calls += [(f"cover-{k}", ["cover", "build", "--construction", k, *a]) for k, a in covers.items()]
        calls += [(f"verify-{k}", ["cover", "verify", "--in", str(work / f"cover-{k}.json"), "--samples",
                                   "4000", "--adversarial", "10", "--steps", "50"]) for k in covers]
        calls += [("dict", ["dict", "greedy", "--d", "8", "--p", "4", "--mu", "0.5"]), ("selftest", ["selftest"])]
        # (name, argv, artefact): bounds table writes its CSV, the others their --out file
        runs = [(n, [*argv, *seed_args, "--out", str(work / f"{n}.json")], work / f"{n}.json") for n, argv in calls]
        runs.append(("bounds", ["bounds", "table", "--d", "16", "--p", "2", "--delta-grid", "0.005:0.2:20",
                                "--csv", str(work / "bounds.csv"), "--json", *seed_args], work / "bounds.csv"))
        return {"bc": bc, "work": work, "calls": runs, "first": None, "first_data": None}

    def run(self, state: dict, i: int) -> dict:
        out, data = {}, {}
        for name, argv, path in state["calls"]:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = state["bc"].cli.main(argv)
            data[name] = path.read_bytes()
            out[name] = (code, hashlib.sha256(text.getvalue().encode()).hexdigest(),
                         hashlib.sha256(data[name]).hexdigest())
        if state["first"] is None:
            state["first"], state["first_data"] = out, data
        return out

    def check(self, state: dict, i: int, out: dict) -> tuple[list[str], Counter]:
        problems = []
        first = state["first"]
        for name, (code, _, _) in out.items():
            if code != 0:
                problems.append(f"{name}: exit code {code}")
            if out[name] != first[name]:
                problems.append(f"{name}: output differs from the first run of the same invocation")
        if out is first:
            problems += self._check_content(state["first_data"])
        return problems, Counter()

    @staticmethod
    def _check_content(data: dict) -> list[str]:
        problems = []
        payload = {n: json.loads(b) for n, b in data.items() if n != "bounds"}
        for name in ("hadamard", "etf"):
            if payload[name]["verified"] is not True:
                problems.append(f"{name}: not verified")
        for name in ("verify-etf", "verify-basis", "verify-axis"):
            if payload[name]["passed"] is not True:
                problems.append(f"{name}: certification failed")
        if payload["selftest"]["all_passed"] is not True:
            problems.append("selftest: a check failed")
        vectors = np.asarray(payload["dict"]["vectors"], dtype=float)
        if coherence(vectors, 4.0) > payload["dict"]["mu"] + 1e-12:
            problems.append("dict: coherence exceeds mu")
        if len(data["bounds"].splitlines()) != 21:
            problems.append("bounds: expected a header and 20 rows")
        return problems

    def close(self, state: dict) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (DictPipeline(), CertifyBulk(), CliArtifacts())}
