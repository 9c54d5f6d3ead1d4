"""Command line interface: generate instances, run experiments, scaling
studies, assumption checks, and plot re-rendering.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bench, checker, env


def _load_config(path: str, overrides: dict | None = None) -> bench.ExperimentConfig:
    """The checked config at `path`, with the [experiment] keys of
    `overrides` that are not None replacing the file's values."""
    config = bench.parse_config(Path(path).read_text())
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    if not overrides:
        return config
    typed = bench.parse_section("experiment", overrides, bench.EXPERIMENT_TYPES)
    return dataclasses.replace(config, **typed)


def _print_progress(algo: str, horizon: int, seed: int, final_regret: float) -> None:
    print(f"{algo} T={horizon} seed={seed}: final regret {final_regret:.1f}")


def _run_and_write(config: bench.ExperimentConfig, write):
    """Run the experiment and return `write(report)`.  When a cell fails, the
    cells that finished before it are written before the error propagates."""
    try:
        report = bench.run_experiment(config, progress=_print_progress)
    except bench.CellError as exc:
        write(exc.report)
        raise
    return write(report)


def _cmd_generate(args) -> int:
    config = _load_config(args.config)
    instance = bench.build_instance(config.instance)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env.save_instance(instance, out / "instance.txt")
    print(f"wrote {out / 'instance.txt'}")
    if args.check or config.check:
        report = checker.assumption_report(instance)
        (out / "assumptions.txt").write_text(report.to_text())
        print(f"wrote {out / 'assumptions.txt'}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(
        args.config,
        {
            "seeds": args.seed_list,
            "full_history": "true" if args.full_history else None,
            "check": "true" if args.check else None,
        },
    )

    def write(report):
        for name, p in sorted(bench.emit_report(report, args.out).items()):
            print(f"wrote {p}")

    _run_and_write(config, write)
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args.config, {"seeds": args.seed_list})
    if len(config.horizon) < 2:
        raise bench.ConfigError("experiment.horizon: scaling studies need several horizons")
    out = Path(args.out)

    def write(report):
        out.mkdir(parents=True, exist_ok=True)
        bench.write_scaling_csv(report, out / "scaling.csv")
        print(f"wrote {out / 'scaling.csv'}")
        bench.emit_report(report, out)
        return report

    report = _run_and_write(config, write)
    finals = [(run.algorithm, run.horizon, run.history.final_regret) for run in report.runs]
    for algo in dict.fromkeys(name for name, _ in config.algorithms):
        try:
            slope = bench.scaling_slope(finals, algo)
        except ValueError as exc:
            print(f"{algo}: no final-regret log-log slope vs horizon ({exc})")
            continue
        print(f"{algo}: final-regret log-log slope vs horizon = {slope:.3f}")
    return 0


def _cmd_check(args) -> int:
    if args.instance:
        spec = {"kind": "file", "path": args.instance}
    else:
        spec = _load_config(args.config).instance
    report = checker.assumption_report(bench.build_instance(spec))
    text = report.to_text()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "assumptions.txt").write_text(text)
        print(f"wrote {out / 'assumptions.txt'}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plot(args) -> int:
    out = Path(args.out)
    runs = bench.read_regret_csv(out / "regret.csv")
    if not runs:
        raise bench.ConfigError("regret.csv: no rows to plot")
    summary = bench.summarize(runs)
    bench.write_summary_csv(summary, out / "summary.csv")
    bench.write_regret_svg(summary, out / "regret.svg")
    print(f"wrote {out / 'regret.svg'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterbandits",
        description="Benchmark harness for multi-user bandits with latent cluster structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an instance file from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed-list", default=None)
    p.add_argument("--check", action="store_true")
    p.add_argument("--full-history", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="regret-scaling study over several horizons")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed-list", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("check", help="assumption report for an instance")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("plot", help="re-render summary.csv and regret.svg from regret.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except bench.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
