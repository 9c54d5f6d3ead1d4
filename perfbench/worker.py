"""One repetition of a benchmark workload, run by run.py in a fresh process.

    python3 perfbench/worker.py --workload cs200 --seed 101 --trace 0 --out DIR

Times set-up in several blocks, then drives each of the workload's configs
through ``bench.parse_config``, ``bench.run_experiment`` and
``bench.emit_report`` once, checks the outputs and prints one JSON object.
With ``--trace 1`` the pass runs under the span tracer and the object also
holds the per-layer split; the spans are written to DIR/spans.csv.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_BLOCKS = 6
# each block repeats the set-up for at least this long, and at least
# SETUP_MIN_PER_BLOCK times, and reports the median
SETUP_BLOCK_S = 0.05
SETUP_MIN_PER_BLOCK = 4
LATTICE_FAMILY = ("lattice", "lattice-rcs")


def import_package() -> None:
    """Import clusterbandits from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import clusterbandits

    if Path(clusterbandits.__file__).resolve().parent != (src / "clusterbandits").resolve():
        raise SystemExit(f"clusterbandits imported from {clusterbandits.__file__}, not {src}")


def run_environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _openblas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def time_setup(bench, checker, texts: list[str]) -> tuple[float, float]:
    """(parse + instance + noise + checker report, the same without parse)."""
    t0 = time.perf_counter()
    parsed = [bench.parse_config(text) for text in texts]
    t1 = time.perf_counter()
    for cfg in parsed:
        instance = bench.build_instance(cfg.instance)
        bench.build_noise(cfg.instance, instance)
        if cfg.check:
            checker.assumption_report(instance)
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1


def time_setups(bench, checker, texts: list[str], linalg_share: float) -> tuple[list[float], float]:
    """Set-up seconds at reference speed, one value per block of set-ups, and
    the median raw seconds of set-up without parsing.

    Set-up takes well under a second, too short for the sampler, so each
    block is scaled by the speed kernel timed right before and after it.
    """
    before = speed.kernel()
    blocks, inner = [], []
    for _ in range(SETUP_BLOCKS):
        samples = []
        t0 = time.perf_counter()
        while len(samples) < SETUP_MIN_PER_BLOCK or time.perf_counter() - t0 < SETUP_BLOCK_S:
            samples.append(time_setup(bench, checker, texts))
        after = speed.kernel()
        scale = (speed.factor(before, linalg_share) + speed.factor(after, linalg_share)) / 2
        blocks.append(statistics.median(s[0] for s in samples) * scale)
        inner += [s[1] for s in samples]
        before = after
    return blocks, statistics.median(inner)


def run_pass(
    bench, texts: list[str], out: Path, clock=time.perf_counter
) -> tuple[list, list[Path], list[tuple[float, float, float, float]]]:
    """Produce every output of the workload; returns (reports, output dirs,
    per config the clock before parse, run_experiment, emit_report and after)."""
    reports, dirs, marks = [], [], []
    for i, text in enumerate(texts):
        dest = out / f"config{i}"
        t0 = clock()
        config = bench.parse_config(text)
        t1 = clock()
        report = bench.run_experiment(config)
        t2 = clock()
        bench.emit_report(report, dest)
        marks.append((t0, t1, t2, clock()))
        reports.append(report)
        dirs.append(dest)
    return reports, dirs, marks


def measure_pass(
    bench, texts: list[str], out: Path, inner_setup: float, traced: bool, linalg_share: float
):
    """Run the pass under the speed sampler, and under the span tracer if
    `traced`; returns (reports, output dirs, times, tracer or None).

    times holds the raw wall seconds of the pass and, at reference speed,
    its wall seconds and its cell seconds: run_experiment minus the set-up
    it repeats.  Each stretch of work is scaled by the speed sampled while
    it ran.
    """
    tracer = None
    with speed.Sampler(linalg_share) as sampler:
        if traced:
            tracer = spans.Tracer(sampler.clock)
            uninstall = spans.install(tracer)
        try:
            reports, dirs, marks = run_pass(bench, texts, out, sampler.clock)
        finally:
            if tracer is not None:
                uninstall()
    run_speeds = [sampler.speed_over(t1, t2) for _, t1, t2, _ in marks]
    cell_ref_s = sum((t2 - t1) * v for (_, t1, t2, _), v in zip(marks, run_speeds))
    cell_ref_s -= inner_setup * statistics.mean(run_speeds)
    times = {
        "wall_s": sum(t3 - t0 for t0, _, _, t3 in marks),
        "wall_ref_s": sum((t3 - t0) * sampler.speed_over(t0, t3) for t0, _, _, t3 in marks),
        "cell_ref_s": cell_ref_s,
        "speed": sampler.speed_over(),
        "speed_samples_s": sampler.samples,
    }
    return reports, dirs, times, tracer


def output_checks(reports, dirs, traced_cells) -> list[str]:
    errors = []
    offset = 0
    for report, dest in zip(reports, dirs):
        cells = None
        if traced_cells is not None:
            cells = traced_cells[offset : offset + len(report.runs)]
            offset += len(report.runs)
        errors += checks.rounds(report, cells)
        errors += checks.partitions(report)
        regret_rows = checks.read_rows(dest / "regret.csv")
        errors += checks.summary_matches_regret(regret_rows, checks.read_rows(dest / "summary.csv"))
        errors += checks.regret_matches_history(report, regret_rows)
    return errors


def layer_metrics(tracer: spans.Tracer, reports, dirs) -> dict[str, float]:
    runs = [run for report in reports for run in report.runs]
    lattice_runs = [r for r in runs if r.algorithm in LATTICE_FAMILY]
    err_ratios = [
        rec.oracle_error / rec.delta
        for r in lattice_runs
        for rec in r.trace.records
        if rec.oracle_error is not None and rec.delta
    ]
    chooses = tracer.calls("completion.collect_choose")
    files = [p for d in dirs for p in d.iterdir() if p.is_file()]
    rows = 0
    for p in files:
        if p.suffix == ".csv":
            with open(p, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    layer_self = tracer.layer_self_in_cells()
    cell_names = [n for (n, _) in tracer.stats if n.startswith("cell.")]
    return {
        "env.rounds": tracer.calls("env.play", "env.step"),
        "env.play_s": tracer.total_s("env.play", "env.step"),
        "env.init_s": tracer.total_s("env.init"),
        "env.self_s": layer_self.get("env", 0.0),
        "completion.solve_calls": tracer.calls("completion.solve"),
        "completion.solve_s": tracer.total_s("completion.solve"),
        "completion.solve_self_s": tracer.self_time("completion.solve"),
        "completion.solve_iters": tracer.counter("solve_iters"),
        "completion.solve_unconverged": tracer.counter("solve_unconverged"),
        "completion.svd_calls": tracer.calls("completion.svd"),
        "completion.svd_s": tracer.total_s("completion.svd"),
        "completion.collect_s": tracer.total_s(
            "completion.collect_choose", "completion.collect_record"
        ),
        "completion.mask_pull_ratio": tracer.counter("mask_pulls") / chooses if chooses else 0.0,
        "completion.oracle_err_ratio": max(err_ratios, default=0.0),
        "completion.self_s": layer_self.get("completion", 0.0),
        "lattice.graph_s": tracer.total_s("lattice.graph"),
        "lattice.refine_s": tracer.total_s("lattice.refine"),
        "lattice.ucb_calls": tracer.calls("lattice.ucb_select", "lattice.ucb_update"),
        "lattice.ucb_s": tracer.total_s("lattice.ucb_select", "lattice.ucb_update"),
        "lattice.phases": sum(len(r.trace.records) for r in lattice_runs),
        "lattice.final_sets": sum(len(r.trace.records[-1].user_sets) for r in lattice_runs),
        "lattice.self_s": layer_self.get("lattice", 0.0),
        "rcs.clusterwise_phases": sum(
            1 for r in lattice_runs for rec in r.trace.records if rec.mode == "clusterwise"
        ),
        "rcs.intersection_fallbacks": sum(r.trace.intersection_fallbacks for r in lattice_runs),
        "baselines.kmeans_calls": tracer.calls("baselines.kmeans"),
        "baselines.kmeans_s": tracer.total_s("baselines.kmeans"),
        "baselines.self_s": layer_self.get("baselines", 0.0),
        "checker.report_s": tracer.total_s("checker.report"),
        "bench.build_instance_s": tracer.total_s("bench.build_instance"),
        "bench.emit_s": tracer.total_s("bench.emit"),
        "bench.emit_rows": rows,
        "bench.emit_bytes": sum(p.stat().st_size for p in files),
        "cell_s": tracer.total_s(*cell_names),
        "unattributed_s": layer_self.get("cell", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_package()
    from clusterbandits import bench, checker

    texts = workloads.configs(args.workload, args.seed)
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup_share, pass_share = workloads.LINALG_SHARE[args.workload]
    setups, inner_setup = time_setups(bench, checker, texts, setup_share)
    reports, dirs, times, tracer = measure_pass(
        bench, texts, out, inner_setup, args.trace, pass_share
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced_cells = tracer.per_cell() if tracer is not None else None
    result = {
        **times,
        "setup_s": setups,
        "rounds": sum(len(run.history) for r in reports for run in r.runs),
        "final_regrets": [run.history.final_regret for r in reports for run in r.runs],
        "peak_rss_mb": peak_rss_mb,
        "errors": output_checks(reports, dirs, traced_cells),
        "environment": run_environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, reports, dirs)
        result["cells"] = traced_cells
        tracer.write_spans(out / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
