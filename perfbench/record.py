"""Regenerate the measured parts of perfbench/reference.json.

Usage, from the root of a checkout:

    python3 perfbench/record.py [--seconds S]

For each workload it makes two traced runs on the default seed and stops
unless their counts agree exactly; it stores those counts, the tracing
overhead and the layers with the largest self and total share of traced op
time. It then makes one timed run on the held-out seed and stores its
end-to-end metrics, so that a later gain can be checked on a seed not used
while developing it.
The rationale in the file is written by hand and kept as it is.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run: its JSON result and its '#' record lines."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} failed:\n{done.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv[1:])} reported incorrect outputs:\n{done.stdout[-3000:]}")
    return result, [line[2:] for line in lines if line.startswith("# ")]


def _record(lines: list[str], prefix: str):
    return next(json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    ref = json.loads(REFERENCE.read_text())
    for name, entry in ref["workloads"].items():
        first, lines = run(name, ref["default_seed"], args.seconds, 1)
        second, _ = run(name, ref["default_seed"], args.seconds, 1)
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in (first, second)]
        if counts[0] != counts[1]:
            diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if v != counts[1][k]}
            raise SystemExit(f"{name}: two traced runs of seed {ref['default_seed']} disagree: {diff}")
        layers = _record(lines, "layers ")
        op_total = layers.pop("bench.op")["total_s"]
        entry["reference_counts"] = counts[0]
        for field in ("self_s", "total_s"):
            shares = sorted(((v[field] / op_total, k) for k, v in layers.items()
                             if field in v and k not in ("cli.main", "bench.build_cover")), reverse=True)
            entry[f"{field[:-2]}_time_share"] = {k: round(share, 3) for share, k in shares[:4]}
        entry["trace_overhead"] = round(first["metrics"]["bench.trace.overhead"]["value"], 3)
        held, lines = run(name, ref["holdout_seed"], args.seconds, 0)
        entry["holdout_metrics"] = {k: v["value"] for k, v in held["metrics"].items()}
        entry["holdout_notes"] = [line[len("note "):] for line in lines if line.startswith("note ")]
        ref["environment"] = _record(lines, "env ")
        print(f"{name}: counts repeat; held-out seed {held['metrics']}")
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
