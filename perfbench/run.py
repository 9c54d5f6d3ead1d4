"""Benchmark command for clusterbandits.

    python3 perfbench/run.py --workload cs200 --seed 101 --seconds 20 --trace 0

Runs the workload (see workloads.py) in fresh worker processes, one
repetition each, until --seconds have passed and at least MIN_REPS
repetitions have finished; one client, closed loop, BLAS pinned to one
thread.  Prints the run environment and every metric by name and unit, then,
as the last line, one JSON object with keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics: medians over repetitions, and for
setup_s over every block of set-up samples.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer split from the traced ones, the
coverage of cell time by layer self times, and the tracing overhead (median
traced wall minus median untraced wall).

Times are reference-speed seconds: measured seconds times the speed factor
the in-process sampler measured over the same stretch of work, and set-up
seconds scaled by the speed kernel timed around them (see speed.py); the raw
wall seconds are printed beside them and kept in the result file.

A repetition is one attempted operation; it fails when the worker fails,
hangs or prints no result, or when any output check fails, including a final
regret that differs from the first passing repetition's.  Failed
repetitions feed no metric.  Outputs go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
MIN_TRACED_REPS = 2
# a run ends within this many seconds, a hung worker included
DEADLINE_S = 170
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_regret": "reward",
}

# per-layer self times inside cells; with the remainder they add up to cell_s
COVERAGE = ("env.self_s", "completion.self_s", "lattice.self_s", "baselines.self_s", "unattributed_s")

# the ROADMAP's counts for cs200 at seed 101, which the traced run reproduces
CS200_SEED101_COUNTS = {
    "lattice": {"svd_calls": 670, "solves": 9, "solves_unconverged": 0},
    "simplified-lattice": {"svd_calls": 781, "solves": 41, "solves_unconverged": 1},
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_worker(workload: str, seed: int, traced: bool, out: Path, timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--out", str(out),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker did not finish within {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"errors": [f"worker exited with {proc.returncode}: " + " | ".join(tail)]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"errors": [f"worker printed no result: {lines[-1][:200]}"]}


def crosscheck(cells: list[dict]) -> list[str]:
    lines = []
    for cell in cells:
        want = CS200_SEED101_COUNTS.get(cell["algorithm"])
        if want is None:
            continue
        got = {k: cell[k] for k in want}
        verdict = "match" if got == want else "MISMATCH"
        lines.append(f"crosscheck {cell['algorithm']}: {got} against ROADMAP {want}: {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="clusterbandits benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "clusterbandits" / "__init__.py").is_file():
        print(f"error: no clusterbandits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    plain, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        want_traced = bool(args.trace) and len(traced) < len(plain)
        remaining = DEADLINE_S - (time.perf_counter() - start)
        result = run_worker(args.workload, args.seed, want_traced, out / f"rep{attempted}", remaining)
        if not result["errors"] and (plain or traced):
            first = (plain + traced)[0]["final_regrets"]
            result["errors"] = checks.repeatable([first, result["final_regrets"]])
        if result["errors"]:
            failed += 1
            for err in result["errors"]:
                print(f"check failed (repetition {attempted}): {err}", file=sys.stderr)
        else:
            (traced if want_traced else plain).append(result)
        enough = len(plain) >= MIN_REPS and (not args.trace or len(traced) >= MIN_TRACED_REPS)
        elapsed = time.perf_counter() - start
        done = elapsed >= args.seconds and (enough or attempted >= 3 * MIN_REPS)
        if done or elapsed >= DEADLINE_S:
            break

    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    environment = plain[0]["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    print("speed factors: " + ", ".join(f"{r['speed']:.4f}" for r in plain + traced))
    if args.trace:
        names = list(traced[0]["layers"])
        values = {
            n: statistics.median(
                r["layers"][n] * (r["speed"] if layer_unit(n) == "s" else 1) for r in traced
            )
            for n in names
        }
        values["trace.overhead_s"] = statistics.median(
            r["wall_ref_s"] for r in traced
        ) - statistics.median(r["wall_ref_s"] for r in plain)
        parts = [f"{k} {values[k]:.4f}" for k in COVERAGE]
        print(f"coverage: cell_s {values['cell_s']:.4f} = " + " + ".join(parts))
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s")
        if args.workload == "cs200" and args.seed == 101:
            for line in crosscheck(traced[0]["cells"]):
                print(line)
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
    else:
        setups = [s for r in plain for s in r["setup_s"]]
        values = {
            "wall_s": statistics.median(r["wall_ref_s"] for r in plain),
            "rounds_per_s": statistics.median(r["rounds"] / r["cell_ref_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "final_regret": sum(plain[0]["final_regrets"]),
        }
        print(f"repetitions: {len(plain)}, set-up blocks: {len(setups)}")
        print("measured wall_s: " + ", ".join(f"{r['wall_s']:.4f}" for r in plain))
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed, "environment": environment,
              "repetitions": plain + traced, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
