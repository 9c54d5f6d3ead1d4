"""Paired benchmark comparison of this checkout against a base revision.

    python3 tools/compare.py --base HEAD~1 --workload cs200 --seed 4411 --pairs 10 [--seconds 20]

Checks REV out with ``git worktree add --detach`` under .perfbench-out/,
compiles both trees' bytecode, then runs ``perfbench/run.py --trace 0`` once
in each tree per pair, alternating which tree runs first.  The worktree is
removed on exit.  --seconds defaults to BENCHMARK.json's run_seconds.

For each end-to-end metric of this checkout's BENCHMARK.json it prints both
trees' medians and quartiles, the base's IQR (distance between its
quartiles), the pairs each side won (ties count for neither), and two
verdicts:

- claim: of at least ten pairs, the checkout won nine tenths or more, and
  its median is better than the base's by more than the base's IQR;
- bound: the checkout's median is worse than the base's by more than the
  metric's relative bound (worse), or it is not, but the base's own IQR is
  wider than the bound and not every checkout run beats every base run
  (unresolved), or neither (within).

The last line is one JSON object with every run's values and verdicts.  The
exit status is 1 when any run reported a failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fewer pairs than this claim nothing: three of three wins happen by chance
# one time in eight
MIN_CLAIM_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """The decision rule on one metric's pairs: base[i] and head[i] ran as
    pair i.  `better` is "lower" or "higher"; `bound` is relative to the
    base's median."""
    if len(base) != len(head) or not base:
        raise ValueError("base and head need the same nonzero number of runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    # positive where the checkout did better
    gains = [sign * (h - b) for b, h in zip(base, head)]
    base_q, head_q = quartiles(base), quartiles(head)
    iqr = base_q[2] - base_q[0]
    gap = sign * (head_q[1] - base_q[1])
    wins = sum(g > 0 for g in gains)
    worse = -gap > bound * abs(base_q[1])
    every_run_better = all(sign * (h - b) > 0 for h in head for b in base)
    unresolved = not worse and iqr > bound * abs(base_q[1]) and not every_run_better
    return {
        "base": base_q,
        "head": head_q,
        "base_iqr": iqr,
        "wins": wins,
        "losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "claim": len(base) >= MIN_CLAIM_PAIRS and 10 * wins >= 9 * len(base) and gap > iqr,
        "bound": "worse" if worse else "unresolved" if unresolved else "within",
    }


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `tree`: its final JSON line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if not result.get("metrics"):
        tail = " | ".join(proc.stderr.strip().splitlines()[-5:])
        raise SystemExit(f"{tree}: run.py exited with {proc.returncode} and no metrics: {tail}")
    return result


def add_worktree(rev: str) -> Path:
    dest = ROOT / ".perfbench-out" / f"compare-base-{os.getpid()}"
    dest.parent.mkdir(exist_ok=True)
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(dest), rev],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return dest


def remove_worktree(dest: Path) -> None:
    subprocess.run(["git", "worktree", "remove", "--force", str(dest)], cwd=ROOT, capture_output=True)
    shutil.rmtree(dest, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    # a terminated comparison still removes its worktree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        base_tree = add_worktree(args.base)
    except subprocess.CalledProcessError as exc:
        print(f"error: cannot check out {args.base}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    try:
        trees = {"base": base_tree, "head": ROOT}
        for tree in trees.values():
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True
            )
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                result = run_benchmark(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append(result)
                values = ", ".join(f"{k} {m['value']:.6g}" for k, m in result["metrics"].items())
                print(f"pair {i + 1} {side}: correct {result['correct']}: {values}", flush=True)
    finally:
        remove_worktree(base_tree)

    report = {"base": args.base, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs, "metrics": {}}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        v = verdict(base, head, metric["better"], metric["bound"])
        report["metrics"][name] = {"base_runs": base, "head_runs": head, **v}
        print(f"{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%}):")
        for side in ("base", "head"):
            q1, median, q3 = v[side]
            print(f"  {side}: median {median:.6g}, quartiles {q1:.6g} .. {q3:.6g}")
        print(f"  base IQR {v['base_iqr']:.6g}; pairs won: head {v['wins']}, "
              f"base {v['losses']}, tied {v['ties']}")
        print(f"  claim: {'yes' if v['claim'] else 'no'}; bound: {v['bound']}")
    failed = sum(not r["correct"] for side in runs.values() for r in side)
    report["failed_runs"] = failed
    print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
