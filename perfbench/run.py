"""Benchmark for ballcover: seeded closed-loop workloads run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's ops one after another (a closed loop) on one
process with BLAS pinned to one thread. With ``--trace 0`` the run measures
set-up, then runs ops until their summed time reaches ``--seconds`` and
reports the end-to-end metrics named in BENCHMARK.json, with times in
reference seconds (see HostProbe; the wall-clock figures are printed too).
With ``--trace 1`` it runs the workload's first few ops untraced and then
again with every public ballcover function wrapped in a span recorder, and
reports the per-layer metrics named in BENCHMARK.json, the tracing overhead
and whether traced outputs equal untraced ones bit for bit.

Every op's outputs are checked (see workloads.py). Lines starting with "#"
are the human-readable record; the last line is the JSON result. The exit
code is 0 when a result was printed, 2 when the run could not be made.
"""

from __future__ import annotations

import os

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS  # set before anything below loads numpy and BLAS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from spans import Tracer
from workloads import WORKLOADS, same

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Host-probe time that defines one reference second: about the probe's time
# on the 2-vCPU Xeon VM this benchmark was tuned on, when uncontended.
PROBE_REF_S = 0.05
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ballcover, ballcover.cli; print(time.perf_counter() - t)"
)


def environment() -> dict:
    """Versions, thread setting and cache sizes the figures were measured with."""
    import scipy

    def getconf(name):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(done.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "note": "min_distances chunks hold 2e6 float64 entries (16 MB): larger than L2, inside L3",
    }


class HostProbe:
    """Fixed work outside ballcover whose time tracks the host's current speed.

    On a shared host the same op can run 35-60% slower for seconds to
    minutes at a time. Timed metrics are therefore reported in reference
    seconds: wall times scaled by PROBE_REF_S over the mean time of the
    probes taken during the run (one before each op and each set-up); the
    mean follows the share of the run spent in the slow mode, where the
    median would jump between the modes. The
    probe mixes what the workloads do (single-row numpy calls, a bulk
    distance kernel, JSON encoding) and calls no ballcover code, so a change
    to the library moves the scaled figures one for one.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((2000, 16))
        self.centers = rng.standard_normal((256, 16))
        self.floats = self.points[:500].ravel().tolist()

    def __call__(self) -> float:
        start = time.perf_counter()
        for row in self.points:
            np.linalg.norm(row - self.centers[0], ord=4)
        cdist(self.points[:250], self.centers, metric="minkowski", p=4).min(axis=1)
        json.dumps(self.floats)
        return time.perf_counter() - start


def import_seconds() -> float:
    """Time of `import ballcover` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"import ballcover failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; below 2 * TAIL_BEYOND samples no percentile
    above the median has that many, and the median is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    rank = n - TAIL_BEYOND  # 1-based rank: TAIL_BEYOND samples lie above it
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def check_all(workload, state, outputs) -> tuple[list[str], Counter, int]:
    """Problems, notes and failed-op count over (op index, output or error) pairs."""
    problems, notes, failed = [], Counter(), 0
    for i, out in outputs:
        if isinstance(out, BaseException):
            found = [f"op {i} raised {type(out).__name__}: {out}"]
        else:
            found, op_notes = workload.check(state, i, out)
            notes += op_notes
        problems += found
        failed += bool(found)
    return problems, notes, failed


def run_ops(run, state, indices, budget_s=None, probe=None):
    """Call run(state, i) in order; stop when the summed time reaches budget_s.

    Returns per-op latencies, the probe time taken before each op (when a
    probe is given) and (index, output) pairs; an op that raises is recorded
    with its exception, and the loop goes on.
    """
    latencies, probes, outputs = [], [], []
    for i in indices:
        if probe is not None:
            probes.append(probe())
        try:
            start = time.perf_counter()
            out = run(state, i)
            latencies.append(time.perf_counter() - start)
        except Exception as exc:  # counted as a failed op
            traceback.print_exc(file=sys.stderr)
            out = exc
        outputs.append((i, out))
        if budget_s is not None and sum(latencies) >= budget_s:
            break
    return latencies, probes, outputs


def untraced(bc, workload, seed, seconds, spec) -> dict:
    probe = HostProbe()
    imports, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        setup_probes.append(probe())
        imports.append(import_seconds())
    builds, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        start = time.perf_counter()
        state = workload.setup(bc, seed)
        builds.append(time.perf_counter() - start)
    try:
        *_, warm = run_ops(workload.run, state, [0])  # lazy set-up and caches; checked, not timed
        latencies, probes, outputs = run_ops(workload.run, state, range(10**9), seconds, probe)
        problems, notes, failed = check_all(workload, state, warm + outputs)
    finally:
        workload.close(state)
    if not latencies:
        raise RuntimeError("no op completed")
    value, percentile, beyond = tail(latencies)
    wall = {
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
    }
    host = statistics.mean(setup_probes + probes)
    scale = PROBE_REF_S / host  # reference seconds per wall-clock second
    metrics = {k: v / scale if k == "ops_per_s" else v * scale for k, v in wall.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(outputs) + len(warm)
    print(f"# setup: import {statistics.median(imports):.4f} s (median of {SETUP_REPEATS} fresh "
          f"interpreters) + inputs {statistics.median(builds):.4f} s")
    print(f"# ops: {len(latencies)} timed over {sum(latencies):.3f} s, plus 1 warm-up; "
          f"op_tail_s is p{percentile:.1f} with {beyond} samples beyond")
    print(f"# host probe: mean {host:.5f} s, reference {PROBE_REF_S} s; "
          "time metrics below are in reference seconds")
    print("# wall-clock " + json.dumps(wall))
    print(f"# error_rate {failed / attempted:.6f} fraction ({failed} of {attempted} ops)")
    print("# latencies_s " + json.dumps([round(x, 6) for x in latencies]))
    print("# probes_s " + json.dumps([round(x, 6) for x in setup_probes + probes]))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes, "units": spec["end_to_end"]}


def traced(bc, workload, seed, spec) -> dict:
    ops = range(workload.trace_ops)
    state = workload.setup(bc, seed)
    try:
        *_, warm = run_ops(workload.run, state, [0])
        plain_lat, _, plain_out = run_ops(workload.run, state, ops)
        problems, notes, failed = check_all(workload, state, warm + plain_out)
    finally:
        workload.close(state)

    tracer = Tracer()
    tracer.install(bc)
    try:
        state = workload.setup(bc, seed, wrap=tracer.wrap)
        traced_run = tracer.wrap(workload.run, "bench.op")

        def run(state, i):
            tracer.op = i
            return traced_run(state, i)

        traced_lat, _, traced_out = run_ops(run, state, ops)
    finally:
        tracer.uninstall()
    try:
        more, more_notes, more_failed = check_all(workload, state, traced_out)
    finally:
        workload.close(state)
    problems += more
    notes += more_notes
    failed += more_failed
    if not same([o for _, o in plain_out], [o for _, o in traced_out]):
        problems.append("traced outputs differ from untraced outputs")
        failed += 1

    layers = tracer.layers()
    harden = layers.setdefault("verify.harden_dictionary", {})
    harden["rounds"] = tracer.count_children("bench.build_cover", "verify.harden_dictionary")
    greedy = layers.get("dictionaries.greedy_maximal_dictionary", {})
    if greedy.get("trials"):
        greedy["admit_ratio"] = greedy["admitted"] / greedy["trials"]
    overhead = 1.0 - (len(traced_lat) / sum(traced_lat)) / (len(plain_lat) / sum(plain_lat))
    layers["bench.trace"] = {"overhead": overhead}
    metrics = {}
    for entry in spec["per_layer"]:
        layer, field = entry["name"].rsplit(".", 1)
        metrics[entry["name"]] = layers.get(layer, {}).get(field, 0)

    spans_path = ROOT / ".bench_build" / f"spans-{workload.name}-{seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    expected = reference["workloads"][workload.name].get("reference_counts")
    if expected and seed == reference["default_seed"]:
        differ = {k: (metrics[k], v) for k, v in expected.items() if metrics.get(k) != v}
        print(f"# reference counts: {'differ ' + json.dumps(differ) if differ else 'match'}")
    op_total = layers["bench.op"]["total_s"]
    by_self = sorted(((v["self_s"], k) for k, v in layers.items() if "self_s" in v), reverse=True)
    print(f"# traced {len(traced_lat)} ops; untraced {sum(plain_lat):.3f} s, traced {sum(traced_lat):.3f} s; "
          f"tracing overhead {overhead:.4f} of ops_per_s; {len(tracer.spans)} spans in {spans_path.name}")
    print("# self-time share of traced op time: "
          + ", ".join(f"{k} {s / op_total:.3f}" for s, k in by_self[:6]))
    print("# layers " + json.dumps({k: v for k, v in sorted(layers.items())}))
    return {"metrics": metrics, "attempted": 1 + 2 * len(ops), "failed": failed,
            "problems": problems, "notes": notes, "units": spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(SRC))
        import ballcover
        import ballcover.cli  # noqa: F401  (not imported by the package itself)
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot load the benchmark or the library: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            result = traced(ballcover, workload, args.seed, spec)
        else:
            result = untraced(ballcover, workload, args.seed, args.seconds, spec)
    except Exception:
        traceback.print_exc()
        return 2
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    for note, count in sorted(result["notes"].items()):
        print(f"# note {note}: {count}")
    metrics = {}
    for entry in result["units"]:
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"# {entry['name']} {value!r} {entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
