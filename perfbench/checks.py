"""Output checks.  Each returns a list of failure messages; empty means pass."""

from __future__ import annotations

import csv
import math

import numpy as np


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rounds(report, traced_cells: list[dict] | None = None) -> list[str]:
    """Every cell accounts for every round of its horizon; with a trace, the
    counted ``Environment`` steps of each cell agree too."""
    errors = []
    for run in report.runs:
        if len(run.history) != run.horizon:
            errors.append(
                f"{run.algorithm} seed {run.seed}: {len(run.history)} rounds recorded, "
                f"horizon {run.horizon}"
            )
    if traced_cells is not None:
        if len(traced_cells) != len(report.runs):
            errors.append(f"traced {len(traced_cells)} cells, report has {len(report.runs)}")
        for run, cell in zip(report.runs, traced_cells):
            if cell["rounds"] != run.horizon:
                errors.append(
                    f"{run.algorithm} seed {run.seed}: env.rounds {cell['rounds']}, "
                    f"horizon {run.horizon}"
                )
    return errors


def partitions(report) -> list[str]:
    """Every phase's user sets partition the users."""
    num_users = int(report.config.instance["num_users"])
    everyone = list(range(num_users))
    errors = []
    for run in report.runs:
        if run.trace is None:
            continue
        for rec in run.trace.records:
            if sorted(u for s in rec.user_sets for u in s) != everyone:
                errors.append(
                    f"{run.algorithm} seed {run.seed} phase {rec.phase}: "
                    "user sets do not partition the users"
                )
    return errors


def summary_matches_regret(regret_rows: list[dict], summary_rows: list[dict]) -> list[str]:
    """summary.csv is exactly the per-(algorithm, t) mean and standard error
    of the cumulative regret in regret.csv."""
    groups: dict[tuple[str, int], list[float]] = {}
    for row in regret_rows:
        groups.setdefault((row["algorithm"], int(row["t"])), []).append(float(row["cum_regret"]))
    expected = []
    for (algo, t), vals in groups.items():
        if len(vals) == 1:  # one seed: the mean is the value, exactly
            mean, stderr = vals[0], 0.0
        else:
            arr = np.array(vals)
            mean, stderr = float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))
        expected.append((algo, str(t), format(mean, ".17g"), format(stderr, ".17g")))
    got = [(r["algorithm"], r["checkpoint_t"], r["mean"], r["stderr"]) for r in summary_rows]
    if got == expected:
        return []
    bad = next((i for i, (g, e) in enumerate(zip(got, expected)) if g != e), min(len(got), len(expected)))
    return [
        f"summary.csv differs from regret.csv at row {bad + 1} "
        f"({len(got)} rows, {len(expected)} expected)"
    ]


def regret_matches_history(report, regret_rows: list[dict]) -> list[str]:
    """The last regret.csv row of each run carries that run's final regret."""
    last: dict[int, str] = {}
    for row in regret_rows:
        last[int(row["run_id"])] = row["cum_regret"]
    errors = []
    for run in report.runs:
        want = format(run.history.final_regret, ".17g")
        if last.get(run.run_id) != want:
            errors.append(
                f"regret.csv run {run.run_id}: final cum_regret {last.get(run.run_id)}, "
                f"history {want}"
            )
    return errors


def repeatable(regrets_by_rep: list[list[float]]) -> list[str]:
    """Each cell's final regret is identical in every repetition."""
    errors = []
    first = regrets_by_rep[0] if regrets_by_rep else []
    for k, regrets in enumerate(regrets_by_rep[1:], start=2):
        if regrets != first:
            errors.append(f"repetition {k}: final regrets {regrets} differ from {first}")
    return errors
