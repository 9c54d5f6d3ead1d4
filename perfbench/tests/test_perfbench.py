"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import functools
import json
import os
import re
import statistics
import sys
from pathlib import Path

# the speed-scaling test measures the configuration run.py gives its
# workers, so BLAS is pinned the same way before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from clusterbandits import bench  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = """\
[instance]
kind = cs
num_users = 24
num_arms = 24
num_clusters = 2
seed = 3
noise = gaussian
sigma = 0.5

[experiment]
horizon = 4000
seeds = 5,6

[algorithm lattice]
c_prime_override = 0.5
c_p = 0.5
c_b = 0.5
f_cap = 1

[algorithm simplified-lattice]
phase_base = 400
phase_step = 100

[algorithm ucb]
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enter("cell.lattice")                           # t=0
    clock.now = 1.0
    tr.enter("completion.solve")
    clock.now = 2.0
    tr.enter("completion.svd")
    clock.now = 5.0
    tr.exit()                                          # svd 3
    clock.now = 6.0
    tr.exit()                                          # solve 5, self 2
    clock.now = 7.0
    tr.enter("env.play", record=False)
    clock.now = 8.0
    tr.exit()                                          # play 1, not kept
    clock.now = 10.0
    tr.exit()                                          # cell 10, self 10 - 5 - 1

    cell, solve, svd = tr.spans
    assert [s.name for s in tr.spans] == ["cell.lattice", "completion.solve", "completion.svd"]
    assert (cell.parent, solve.parent, svd.parent) == (-1, 0, 1)
    assert {s.cell for s in tr.spans} == {1}
    assert (cell.self_s, solve.self_s, svd.self_s) == (4.0, 2.0, 3.0)
    assert tr.layer_self_in_cells() == {"cell": 4.0, "completion": 5.0, "env": 1.0}
    assert sum(tr.layer_self_in_cells().values()) == cell.end - cell.start
    assert tr.calls("env.play") == 1 and tr.total_s("completion.solve") == 5.0
    assert tr.self_time("completion.solve") == 2.0


def test_wrapped_calls_nest_and_close_on_error():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def failing():
        clock.now += 2.0
        raise RuntimeError("boom")

    leaf_w = tr.wrap(leaf, "env.play", record=False)
    fail_w = tr.wrap(failing, "lattice.graph")

    def cell():
        clock.now += 0.5
        leaf_w()
        with pytest.raises(RuntimeError):
            fail_w()
        clock.now += 0.5

    tr.wrap(cell, "cell.ucb")()
    tr.wrap(cell, "cell.ucb")()
    assert tr.innermost is None
    assert tr.layer_self_in_cells() == {"cell": 2.0, "env": 2.0, "lattice": 4.0}
    assert [s.cell for s in tr.spans] == [1, 1, 2, 2]
    assert [c["rounds"] for c in tr.per_cell()] == [1, 1]
    assert tr.cell == 0


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_use_allowed_characters_and_are_unique():
    spec = _bench_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert NAME_RE.match(name), name
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]


def test_workload_configs_parse_and_depend_on_the_seed():
    for name in workloads.NAMES:
        texts = workloads.configs(name, 7)
        assert texts == workloads.configs(name, 7)
        assert texts != workloads.configs(name, 8)
        for text in texts:
            bench.parse_config(text)
    with pytest.raises(ValueError):
        workloads.configs("nope", 1)
    assert set(workloads.LINALG_SHARE) == set(workloads.NAMES)
    for shares in workloads.LINALG_SHARE.values():
        assert all(0.0 <= share <= 1.0 for share in shares)


def test_speed_factor_weighs_the_kernel_parts_by_the_share():
    ref = (speed.REFERENCE_LINALG_S, speed.REFERENCE_PYTHON_S)
    for share in (0.0, 0.3, 1.0):
        assert speed.factor(ref, share) == pytest.approx(1.0)
    slow_python = (ref[0], 2 * ref[1])
    assert speed.factor(slow_python, 1.0) == pytest.approx(1.0)
    assert speed.factor(slow_python, 0.0) == pytest.approx(0.5)
    # time-weighted: 0.25 of the work at half speed takes 1.25 times as long
    assert speed.factor(slow_python, 0.75) == pytest.approx(1 / 1.25)


@pytest.fixture(scope="module")
def tiny_traced(tmp_path_factory):
    """A traced pass over a small config: (tracer, reports, output dirs)."""
    out = tmp_path_factory.mktemp("tiny")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        reports, dirs, _ = worker.run_pass(bench, [TINY], out)
    finally:
        uninstall()
    return tracer, reports, dirs


def test_traced_pass_reports_every_per_layer_metric(tiny_traced):
    tracer, reports, dirs = tiny_traced
    layers = worker.layer_metrics(tracer, reports, dirs)
    per_layer = [m["name"] for m in _bench_json()["per_layer"]]
    assert sorted(per_layer) == sorted(list(layers) + ["trace.overhead_s"])
    for m in _bench_json()["per_layer"]:
        if m["name"] in layers:
            assert m["unit"] == run.layer_unit(m["name"])
    assert layers["env.rounds"] == 6 * 4000
    assert layers["completion.svd_calls"] > 0 and layers["baselines.kmeans_calls"] > 0
    # self times of every layer inside cells add up to cell time
    covered = sum(v for k, v in layers.items() if k.endswith(".self_s")) + layers["unattributed_s"]
    assert covered == pytest.approx(layers["cell_s"], rel=1e-9)
    assert worker.output_checks(reports, dirs, tracer.per_cell()) == []


def test_setup_blocks_are_positive_reference_seconds():
    from clusterbandits import checker

    blocks, inner = worker.time_setups(bench, checker, [TINY], 0.5)
    assert len(blocks) == worker.SETUP_BLOCKS
    assert all(b > 0 for b in blocks) and inner > 0


def test_install_restores_the_originals():
    import numpy as np

    from clusterbandits import baselines, completion, env, lattice

    owners = [np.linalg, completion, baselines, lattice, env.Environment, lattice.UcbArmState]
    before = [dict(vars(o)) for o in owners]
    uninstall = spans.install(spans.Tracer())
    assert np.linalg.svd is not before[0]["svd"]
    uninstall()
    for owner, attrs in zip(owners, before):
        for name, value in attrs.items():
            assert vars(owner)[name] is value, name


def _fresh(tiny_traced):
    tracer, reports, dirs = tiny_traced
    report = copy.deepcopy(reports[0])
    regret = checks.read_rows(dirs[0] / "regret.csv")
    summary = checks.read_rows(dirs[0] / "summary.csv")
    return report, regret, summary, copy.deepcopy(tracer.per_cell())


def test_rounds_check_rejects_a_short_cell(tiny_traced):
    report, _, _, cells = _fresh(tiny_traced)
    assert checks.rounds(report, cells) == []
    cells[1]["rounds"] -= 1
    assert checks.rounds(report, cells)
    report.runs[0].horizon += 1
    assert checks.rounds(report)


def test_partition_check_rejects_a_duplicated_user(tiny_traced):
    report, _, _, _ = _fresh(tiny_traced)
    assert checks.partitions(report) == []
    rec = report.runs[0].trace.records[-1]
    rec.user_sets[0] = list(rec.user_sets[0]) + [rec.user_sets[0][0]]
    assert checks.partitions(report)


def test_summary_check_rejects_an_edited_mean(tiny_traced):
    _, regret, summary, _ = _fresh(tiny_traced)
    assert checks.summary_matches_regret(regret, summary) == []
    summary[3]["mean"] = format(float(summary[3]["mean"]) * (1 + 1e-12), ".17g")
    assert checks.summary_matches_regret(regret, summary)
    assert checks.summary_matches_regret(regret, summary[:-1])


def test_regret_csv_check_rejects_an_edited_final_row(tiny_traced):
    report, regret, _, _ = _fresh(tiny_traced)
    assert checks.regret_matches_history(report, regret) == []
    regret[-1]["cum_regret"] = "0"
    assert checks.regret_matches_history(report, regret)


def test_repeat_check_rejects_a_changed_regret():
    assert checks.repeatable([[1.0, 2.0], [1.0, 2.0]]) == []
    assert checks.repeatable([[1.0, 2.0], [1.0, 2.0000000001]])


def test_traced_cs200_reproduces_the_roadmap_counts(tmp_path):
    """ROADMAP counts for cs200 at seed 101: 670 and 781 dense SVDs, and one
    of 41 simplified-lattice solves unconverged."""
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        worker.run_pass(bench, workloads.configs("cs200", 101), tmp_path)
    finally:
        uninstall()
    cells = {c["algorithm"]: c for c in tracer.per_cell()}
    for algo, want in run.CS200_SEED101_COUNTS.items():
        assert {k: cells[algo][k] for k in want} == want
    assert all("MISMATCH" not in line for line in run.crosscheck(tracer.per_cell()))


# -- speed scaling -------------------------------------------------------------

# the cs200 instance with its lattice cell only: about half dense SVDs, half
# per-round work, a few seconds a pass
CS200_LATTICE_SHARE = 0.5
CS200_LATTICE = (
    workloads._CS_INSTANCE.format(n=200)
    + "\n[experiment]\nhorizon = 60000\nseeds = 101\n\n"
    + workloads._CS_LATTICE
)
_SVD_INPUT = np.random.default_rng(1).standard_normal((200, 200))


def _spin() -> int:
    total = 0
    for i in range(400):
        total += i
    return total


def _svds() -> None:
    for _ in range(6):
        np.linalg.svd(_SVD_INPUT, full_matrices=False)


def _nothing() -> None:
    pass


def _injected(fn, unit, clock, spent: list):
    """`fn` that first runs `unit`, adding the `clock` seconds it took to
    `spent`."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        t0 = clock()
        unit()
        spent.append(clock() - t0)
        return fn(*args, **kwargs)

    return call


def test_speed_scaling_keeps_an_injected_cost_at_its_size(tmp_path, monkeypatch):
    """Known extra work moves wall_s and rounds_per_s by its own cost and
    leaves the rest of the pass at its reference time: fixed Python work in
    every round (dispatch-heavy mix) and extra dense SVDs in every solve
    (SVD-heavy mix), against plain passes interleaved with them.

    Every pass runs the same wrappers, the plain ones around no work, so the
    wrappers' own cost cancels.  The injected work is timed where it runs,
    on the sampler's clock, and scaled by the pass's speed factor: if the
    mix moved the factor, the rest of the pass would be scaled by it too.
    """
    from clusterbandits import checker, completion, env

    bound = {m["name"]: m["bound"] for m in _bench_json()["end_to_end"]}
    assert worker.run_environment()["blas_threads"] in (1, None)
    texts = [CS200_LATTICE]
    _, inner = worker.time_setups(bench, checker, texts, CS200_LATTICE_SHARE)
    samplers = []

    class Recorded(speed.Sampler):
        def __enter__(self):
            samplers.append(self)
            return super().__enter__()

    monkeypatch.setattr(speed, "Sampler", Recorded)
    play = env.Environment.__dict__["play"]
    solve = completion.solve_nuclear_norm
    clock = lambda: samplers[-1].clock()  # noqa: E731

    passes = {"plain": [], "round": [], "svd": []}
    for rep in range(9):
        for kind in passes:
            spent = []
            with monkeypatch.context() as m:
                round_unit = _spin if kind == "round" else _nothing
                svd_unit = _svds if kind == "svd" else _nothing
                m.setattr(env.Environment, "play", _injected(play, round_unit, clock, spent))
                m.setattr(completion, "solve_nuclear_norm", _injected(solve, svd_unit, clock, spent))
                reports, _, times, _ = worker.measure_pass(
                    bench, texts, tmp_path / f"{kind}{rep}", inner, False, CS200_LATTICE_SHARE
                )
            assert sum(len(r.history) for r in reports[0].runs) == 60000
            passes[kind].append(
                {
                    "wall": times["wall_ref_s"],
                    "cell": times["cell_ref_s"],
                    "cost": sum(spent) * times["speed"] if kind != "plain" else 0.0,
                    "speed": times["speed"],
                }
            )

    def median(values):
        return statistics.median(list(values))

    for kind in ("round", "svd"):
        # each injected pass against the plain pass of its own repetition
        pairs = list(zip(passes["plain"], passes[kind]))
        cost = median(p["cost"] for _, p in pairs)
        wall_ratio = median(p["wall"] / (plain["wall"] + p["cost"]) for plain, p in pairs)
        rps_ratio = median((plain["cell"] + p["cost"]) / p["cell"] for plain, p in pairs)
        moved = median((p["wall"] - plain["wall"]) / p["cost"] for plain, p in pairs)
        print(
            f"\n{kind}: injected {cost:.3f} ref s, moved wall_s by {moved:.3f} of it; "
            f"wall_s {wall_ratio:.3f} and rounds_per_s {rps_ratio:.3f} of the plain pass "
            f"plus the cost; speed factor {median(p['speed'] for p in passes['plain']):.3f} "
            f"-> {median(p['speed'] for p in passes[kind]):.3f}"
        )
        assert cost > 0.1 * median(p["wall"] for p in passes["plain"])
        assert abs(wall_ratio - 1) <= bound["wall_s"] / 3
        assert abs(rps_ratio - 1) <= bound["rounds_per_s"] / 3


def test_a_hung_worker_is_a_failed_repetition(tmp_path):
    result = run.run_worker("cs200", 1, False, tmp_path / "rep", timeout=0.05)
    assert result["errors"] and "did not finish" in result["errors"][0]
