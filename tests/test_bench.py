import csv
import dataclasses
import gc
import io
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import typing
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from clusterbandits import baselines, bench, cli, env, lattice, rcs
from helpers import (
    ClosedRegret,
    ledger_with_regrets,
    reference_trace_csv,
    serialize_config,
    whole_run,
)

SMALL_CONFIG = """\
[instance]
kind = cs
num_users = 4
num_arms = 4
num_clusters = 2
row_distribution = gaussian(0,1)
seed = 3
noise = gaussian
sigma = 0.2
[experiment]
horizon = 100
seeds = 1
[algorithm ucb]
"""


def test_config_parse_fields():
    config = bench.parse_config(SMALL_CONFIG)
    assert config.horizon == [100]
    assert config.seeds == [1]
    assert config.algorithms == [("ucb", {})]
    assert config.instance["kind"] == "cs"


def test_config_serialize_is_fixed_point():
    config = bench.parse_config(SMALL_CONFIG)
    once = serialize_config(config)
    twice = serialize_config(bench.parse_config(once))
    assert once == twice


def test_config_unknown_algorithm_rejected():
    bad = SMALL_CONFIG.replace("[algorithm ucb]", "[algorithm thompson]")
    with pytest.raises(bench.ConfigError, match="algorithm"):
        bench.parse_config(bad)


def test_config_missing_seeds_rejected():
    bad = SMALL_CONFIG.replace("seeds = 1", "seeds =")
    with pytest.raises(bench.ConfigError, match="seeds"):
        bench.parse_config(bad)


def test_config_bad_instance_kind_rejected():
    bad = SMALL_CONFIG.replace("kind = cs", "kind = banana")
    with pytest.raises(bench.ConfigError, match="instance.kind"):
        bench.parse_config(bad)


@pytest.mark.parametrize(
    "line, message",
    [
        ("c_pp = 9", r"algorithm lattice\.c_pp: unknown key"),
        # completion.C_LAMBDA is a module constant, not a key
        ("c_lambda = 2.5", r"algorithm lattice\.c_lambda: unknown key"),
        ("f_cap = two", r"algorithm lattice\.f_cap: cannot parse 'two' as int"),
        ("gamma = banana", r"algorithm lattice\.gamma: cannot parse 'banana' as float"),
        ("c_p = 0.25\nc_p = 9", r"line 16: c_p is set twice in \[algorithm lattice\]"),
    ],
)
def test_config_bad_algorithm_key_or_value_rejected(line, message):
    with pytest.raises(bench.ConfigError, match=message):
        bench.parse_config(SMALL_CONFIG + f"[algorithm lattice]\n{line}\n")


def test_config_etc_has_no_num_clusters_key():
    # the explore phase estimates the whole matrix; it never reads a cluster count
    with pytest.raises(bench.ConfigError, match=r"algorithm etc\.num_clusters: unknown key"):
        bench.parse_config(SMALL_CONFIG + "[algorithm etc]\nnum_clusters = 2\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("sigma = 0.2", "sigam = 0.2", r"instance\.sigam: unknown key"),
        ("seed = 3", "seed = x3", r"instance\.seed: cannot parse 'x3' as int"),
        ("sigma = 0.2", "sigma = 0,2", r"instance\.sigma: cannot parse '0,2' as float"),
        ("num_users = 4", "num_users = 4\noptimal_arms = 0,a", r"instance\.optimal_arms: cannot"),
        ("seeds = 1", "seeds = 1\nfull_histroy = true", r"experiment\.full_histroy: unknown key"),
        ("seeds = 1", "seeds = 1\ncheck = yes", r"experiment\.check: cannot parse 'yes'"),
        ("seeds = 1", "seeds = 1\nfull_history = 1", r"experiment\.full_history: cannot"),
        ("seeds = 1", "seeds = 1,x", r"experiment\.seeds: cannot parse '1,x'"),
        ("horizon = 100", "horizon = 2k", r"experiment\.horizon: cannot parse '2k' as int"),
        ("horizon = 100", "horizon = 100,", None),
        # one key lists the horizons: horizons is unknown, also beside horizon
        ("horizon = 100", "horizon = 100\nhorizons = 100,200", r"experiment\.horizons: unknown key"),
        ("horizon = 100", "horizons = 100,200", r"experiment\.horizons: unknown key"),
        # a repeat would merge two cells into one summary stretch
        ("horizon = 100", "horizon = 100,200,100", r"experiment\.horizon: 100 may appear only"),
        ("seeds = 1", "seeds = 1,2,1", r"experiment\.seeds: 1 may appear only once"),
        ("seed = 3", "seed = 3\nseed = 4", r"line 8: seed is set twice in \[instance\]"),
        ("[algorithm", "[experiment]\nseeds = 2\n[algorithm", r"line 13: \[experiment\] may appear"),
        ("[algorithm", "[instance]\nkind = cs\n[algorithm", r"line 13: \[instance\] may appear"),
        (
            "row_distribution = gaussian(0,1)",
            "row_distribution = gausian(0,1)",
            r"instance\.row_distribution: cannot parse 'gausian\(0,1\)'",
        ),
        ("noise = gaussian", "noise = gausian", r"instance\.noise: must be one of gaussian, "),
        # a key the kind does not read is an error, not ignored
        ("seed = 3", "seed = 3\nepsilon = 0.2", r"instance\.epsilon: not read when kind = cs"),
        ("seed = 3", "seed = 3\nnu = 0.1", r"instance\.nu: not read when kind = cs"),
        ("seed = 3", "seed = 3\noptimal_arms = 0,1", r"instance\.optimal_arms: not read when kind"),
        ("seed = 3", "seed = 3\npath = x.txt", r"instance\.path: not read when kind = cs"),
        ("kind = cs", "kind = rcs\nepsilon = 0.2", r"instance\.epsilon: not read when kind = rcs"),
        (
            "kind = cs",
            "kind = hard\nepsilon = 0.2\noptimal_arms = 0,1",
            r"instance\.row_distribution: not read when kind = hard",
        ),
        ("kind = cs", "kind = file\npath = x.txt", r"instance\.num_users: not read when kind"),
        ("kind = cs", "kind = rcs\nnu = 0.1", None),
        # sigma scales the named noise; with no noise key it would be ignored
        ("noise = gaussian\n", "", r"instance\.sigma: not read without instance\.noise"),
    ],
)
def test_config_bad_instance_or_experiment_key_rejected(old, new, message):
    text = SMALL_CONFIG.replace(old, new)
    if message is None:  # an empty item of a list is skipped, not an error; rcs reads nu
        assert bench.parse_config(text).horizon == [100]
        return
    with pytest.raises(bench.ConfigError, match=message):
        bench.parse_config(text)


def test_config_repeated_algorithm_section_rejected(tmp_path, capsys):
    # two sections of one name would be merged into one summary stretch
    text = SMALL_CONFIG + "[algorithm ucb]\nsigma = 0.3\n"
    with pytest.raises(bench.ConfigError, match=r"\[algorithm ucb\] may appear only once"):
        bench.parse_config(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, text)), "--out", str(out)]) == 2
    assert "[algorithm ucb]" in capsys.readouterr().err
    assert not out.exists()


def test_config_booleans_are_true_or_false():
    config = bench.parse_config(SMALL_CONFIG.replace("seeds = 1", "seeds = 1\ncheck = true"))
    assert config.check is True and config.full_history is False


@pytest.mark.parametrize("field, value", [("phase_base", 0), ("phase_step", -60)])
def test_simplified_schedule_that_never_ends_is_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        baselines.SimplifiedConfig(num_clusters=2, sigma=0.2, **{field: value})
    text = SMALL_CONFIG + f"[algorithm simplified-lattice]\n{field} = {value}\n"
    config = bench.parse_config(text)
    instance = bench.build_instance(config.instance)
    noise = bench.build_noise(config.instance, instance)
    with pytest.raises(bench.ConfigError, match="simplified-lattice"):
        bench.build_algorithm("simplified-lattice", config.algorithms[-1][1], instance, noise)


def test_config_out_of_range_value_fails_before_any_cell(monkeypatch, tmp_path):
    ran = []
    monkeypatch.setattr(baselines, "run_per_user_ucb", lambda *a: ran.append(a))
    cases = [
        ("[algorithm simplified-lattice]\nrho = 2\n", "algorithm simplified-lattice: rho"),
        ("[algorithm etc]\nexplore_fraction = 1.5\n", "algorithm etc: explore_fraction"),
    ]
    for section, message in cases:
        text = SMALL_CONFIG + section
        with pytest.raises(bench.ConfigError, match=message):
            bench.run_experiment(bench.parse_config(text))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(_write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert not out.exists()
    assert ran == []


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("sigma = 0.2", "sigma = -1", r"instance\.sigma: sigma must be nonnegative"),
        ("num_users = 4", "num_users = 0", r"instance\.num_users, .*must be positive"),
        ("num_clusters = 2", "num_clusters = 0", r"num_clusters: all dimensions must be positive"),
        ("num_clusters = 2", "num_clusters = 5", r"num_clusters: num_clusters=5 exceeds"),
        (
            "gaussian(0,1)",
            "gaussian(0,-1)",
            r"instance\.row_distribution: cannot parse .*std must be nonnegative",
        ),
        ("gaussian(0,1)", "uniform(1,0)", r"instance\.row_distribution: .*lo <= hi"),
        ("kind = cs", "kind = rcs\nnu = -0.1", r"instance\.nu: nu must be nonnegative"),
        (
            "kind = cs",
            "kind = hard\nepsilon = 1.5\noptimal_arms = 0,1",
            r"instance\.epsilon: epsilon must lie in \(0, 1\), got 1\.5",
        ),
    ],
)
def test_out_of_range_instance_value_is_a_config_error(tmp_path, old, new, message):
    text = SMALL_CONFIG.replace(old, new)
    assert text != SMALL_CONFIG
    with pytest.raises(bench.ConfigError, match=message):
        bench.parse_config(text)
    cfg, out = _write_config(tmp_path, text), tmp_path / "out"
    for command in ("run", "generate"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


_HARD_CONFIG = """\
[instance]
kind = hard
num_users = 6
num_arms = 5
num_clusters = 2
epsilon = 0.3
seed = 1
{optimal}
[experiment]
horizon = 50
seeds = 1

[algorithm ucb]
"""


@pytest.mark.parametrize("optimal", ["", "optimal_arms = 0,7", "optimal_arms = 0,1,2"])
def test_hard_instance_optimal_arms_typo_is_a_config_error(tmp_path, capsys, optimal):
    # no key, an arm outside 0..4, and one arm too many for 2 clusters
    text = _HARD_CONFIG.format(optimal=optimal)
    with pytest.raises(bench.ConfigError, match=r"instance\.optimal_arms: need 2 arms in 0\.\.4"):
        bench.parse_config(text)
    cfg, out = _write_config(tmp_path, text), tmp_path / "out"
    for command in ("run", "generate", "check"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: instance.optimal_arms" in capsys.readouterr().err
        assert not out.exists()
    # two arms in range run as before
    text = _HARD_CONFIG.format(optimal="optimal_arms = 4,0")
    assert cli.main(["run", "--config", str(_write_config(tmp_path, text)), "--out", str(out)]) == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cs", "rcs", "hard"]),
    # num_clusters is capped at min(num_users, num_arms), so most configs run
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    rows=st.sampled_from(["gaussian(0,1)", "uniform(0,1)"]),
    noise=st.sampled_from(env.NOISE_KINDS),
    # optimal_arms drawn valid (one in-range arm per cluster) or as drawn
    valid=st.booleans(),
    picks=st.lists(st.integers(-1, 7), max_size=7),
    horizon=st.integers(1, 400),
    seed=st.integers(0, 2**16),
)
def test_small_configs_fail_at_parse_or_play_every_horizon(
    kind, dims, rows, noise, valid, picks, horizon, seed
):
    num_users, num_arms, num_clusters = dims
    num_clusters = min(num_clusters, num_users, num_arms)
    if valid:
        picks = [p % num_arms for p in (picks + [0] * 6)[:num_clusters]]
    values = {
        "kind": kind, "num_users": num_users, "num_arms": num_arms,
        "num_clusters": num_clusters, "row_distribution": rows, "seed": seed,
        "noise": noise, "sigma": 0.3, "nu": 0.01, "epsilon": 0.3,
        "optimal_arms": ",".join(map(str, picks)),
    }
    # only the keys this kind reads, so a config fails on its values, not its keys
    read = bench.INSTANCE_KEYS[kind]
    instance = "".join(f"{k} = {v}\n" for k, v in values.items() if k in read)
    text = (
        f"[instance]\n{instance}[experiment]\nhorizon = {horizon}\nseeds = {seed}\n"
    ) + "".join(f"[algorithm {name}]\n" for name in bench.ALGORITHM_NAMES)
    try:
        config = bench.parse_config(text)
    except bench.ConfigError:
        return
    try:
        report = bench.run_experiment(config)
    except env.SeparationUnsatisfiableError:
        # rejection sampling finds no rows 20 * nu apart
        assert kind == "rcs"
        return
    except bench.ConfigError as exc:
        # known only once the instance is built: its entries outside [0, 1]
        assert noise == "bernoulli-reward" and "instance.noise" in str(exc)
        return
    assert [run.algorithm for run in report.runs] == list(bench.ALGORITHM_NAMES)
    for run in report.runs:
        assert len(run.history) == run.horizon == horizon


def test_bernoulli_noise_outside_the_unit_interval_is_a_config_error(monkeypatch, tmp_path):
    ran = []
    monkeypatch.setattr(baselines, "run_per_user_ucb", lambda *a: ran.append(a))
    text = SMALL_CONFIG.replace("noise = gaussian", "noise = bernoulli-reward")
    text = text.replace("horizon = 100", "horizon = 100,200")
    with pytest.raises(bench.ConfigError, match=r"instance\.noise: bernoulli-reward .*\[0, 1\]"):
        bench.run_experiment(bench.parse_config(text))
    cfg, out = _write_config(tmp_path, text), tmp_path / "out"
    for command in ("run", "bench"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
    assert ran == []
    # entries in [0, 1] run as before
    monkeypatch.undo()
    text = text.replace("gaussian(0,1)", "uniform(0,1)")
    assert cli.main(["run", "--config", str(_write_config(tmp_path, text)), "--out", str(out)]) == 0


_CONFIG_CLASSES = {
    "lattice": lattice.LatticeConfig,
    "lattice-rcs": rcs.RcsConfig,
    "ucb": baselines.UcbConfig,
    "etc": baselines.EtcConfig,
    "simplified-lattice": baselines.SimplifiedConfig,
}
_RUN_FUNCTIONS = {
    "lattice": (lattice, "run_lattice"),
    "lattice-rcs": (rcs, "run_lattice_rcs"),
    "ucb": (baselines, "run_per_user_ucb"),
    "etc": (baselines, "run_explore_then_commit"),
    "simplified-lattice": (baselines, "run_simplified_lattice"),
}


def _settable_fields(cls):
    """(id, name, type) of every field of a config dataclass; the id of a
    field inherited from a config base class (RcsConfig's LatticeConfig) is
    `base.<name>`."""
    hints = typing.get_type_hints(cls)
    base = cls.__mro__[1]
    inherited = {f.name for f in dataclasses.fields(base)} if dataclasses.is_dataclass(base) else set()
    for f in dataclasses.fields(cls):
        yield ("base." if f.name in inherited else "") + f.name, f.name, hints[f.name]


def _non_default(name, kind):
    if name == "p_inf_mode":
        return "observed", "observed"
    if kind is int:
        return "3", 3
    return "0.375", 0.375


_ROOT = Path(__file__).resolve().parents[1]
_README = (_ROOT / "README.md").read_text()


def _readme_key_table() -> dict[str, list[str]]:
    """README's section-key table: algorithm -> its keys, in table order; a
    backticked algorithm name in a key cell stands for that row's keys."""
    table: dict[str, list[str]] = {}
    for line in _README.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in bench.ALGORITHM_NAMES:
            keys = []
            for words in re.findall(r"`([^`]*)`", cells[2]):
                keys += table.get(words, words.split())
            table[cells[0].strip("`")] = keys
    return table


def test_readme_key_table_is_the_accepted_keys():
    want = {name: list(keys) for name, keys in bench.ALGORITHM_OPTIONS.items()}
    assert _readme_key_table() == want


@pytest.mark.parametrize("source", [*sorted(p.name for p in _ROOT.glob("configs/*.cfg")), "README.md"])
def test_checked_in_configs_parse_and_build(source):
    # each config file, and README's example verbatim, builds its instance and
    # every algorithm section; no cell runs
    if source == "README.md":
        (text,) = re.findall(r"```ini\n(.*?)```", _README, flags=re.S)
    else:
        text = (_ROOT / "configs" / source).read_text()
    config = bench.parse_config(text)
    instance = bench.build_instance(config.instance)
    noise = bench.build_noise(config.instance, instance)
    assert config.algorithms
    for name, params in config.algorithms:
        built = bench.build_algorithm(name, params, instance, noise)
        assert type(built) is _CONFIG_CLASSES[name]
        assert {key: getattr(built, key) for key in params} == params


@pytest.mark.parametrize("algo", _CONFIG_CLASSES)
def test_algorithm_sections_accept_exactly_their_fields(algo):
    fields = [name for _, name, _ in _settable_fields(_CONFIG_CLASSES[algo])]
    assert list(bench.ALGORITHM_OPTIONS[algo]) == fields


@pytest.mark.parametrize(
    "algo, name, kind",
    [
        pytest.param(algo, name, kind, id=f"{algo}-{field_id}")
        for algo, cls in _CONFIG_CLASSES.items()
        for field_id, name, kind in _settable_fields(cls)
    ],
)
def test_every_config_field_settable_from_text(algo, name, kind):
    raw, want = _non_default(name, kind)
    # the section replaces SMALL_CONFIG's own: each algorithm may appear once
    text = SMALL_CONFIG.replace("[algorithm ucb]\n", f"[algorithm {algo}]\n{name} = {raw}\n")
    config = bench.parse_config(text)
    instance = bench.build_instance(config.instance)
    noise = bench.build_noise(config.instance, instance)
    built = bench.build_algorithm(algo, config.algorithms[-1][1], instance, noise)
    default = bench.build_algorithm(algo, {}, instance, noise)
    assert type(built) is _CONFIG_CLASSES[algo]
    assert getattr(built, name) == want
    assert getattr(default, name) != want


def test_extra_keys_reach_the_run():
    # ucb's sigma and etc's explore_fraction are fields of their sections' dataclasses
    text = SMALL_CONFIG + "[algorithm etc]\nexplore_fraction = 0.3\n"
    config = bench.parse_config(text.replace("[algorithm ucb]", "[algorithm ucb]\nsigma = 0.7"))
    instance = bench.build_instance(config.instance)
    noise = bench.build_noise(config.instance, instance)
    (ucb_name, ucb_params), (etc_name, etc_params) = config.algorithms
    ucb_config = bench.build_algorithm(ucb_name, ucb_params, instance, noise)
    assert ucb_config == baselines.UcbConfig(sigma=0.7)
    etc_config = bench.build_algorithm(etc_name, etc_params, instance, noise)
    assert etc_config == baselines.EtcConfig(sigma=0.2, explore_fraction=0.3)


@pytest.mark.parametrize("algo", bench.ALGORITHM_NAMES)
def test_each_cell_calls_the_run_function_module_attribute(monkeypatch, algo):
    # perfbench's tracer wraps the run functions on their modules after
    # import, so every cell must look its run function up there
    module, attr = _RUN_FUNCTIONS[algo]
    calls, ledgers = [], []

    def run(*args):
        calls.append(args)
        # a ledger of its own per cell, so that each record shows where it came from
        horizon, seed = args[2:4]
        ledgers.append(ledger_with_regrets(np.arange(horizon) * 0.25 + seed))
        return ledgers[-1], None

    monkeypatch.setattr(module, attr, run)
    text = SMALL_CONFIG.replace("[algorithm ucb]", f"[algorithm {algo}]")
    text = text.replace("horizon = 100", "horizon = 100,200").replace("seeds = 1", "seeds = 1,2")
    config = bench.parse_config(text)
    report = bench.run_experiment(config)
    instance = bench.build_instance(config.instance)
    noise = bench.build_noise(config.instance, instance)
    want = bench.build_algorithm(algo, {}, instance, noise)
    assert [args[2:4] for args in calls] == [(100, 1), (100, 2), (200, 1), (200, 2)]
    for got_instance, got_config, _, _, got_noise in calls:
        assert np.array_equal(got_instance.P, instance.P)
        assert type(got_config) is _CONFIG_CLASSES[algo] and got_config == want
        assert got_noise == noise
    assert len(report.runs) == len(ledgers)
    for run, ledger in zip(report.runs, ledgers):
        record, grid = run.history, bench.checkpoint_grid(run.horizon)
        inst, cum = ledger.regret(grid)
        assert record.t.tolist() == grid.tolist()
        assert record.inst_regret.tolist() == inst.tolist()
        assert record.cumulative_regret.tolist() == cum.tolist()
        assert record.final_regret == whole_run(ledger).final_regret and len(record) == len(ledger)


def _run_function_args(algo):
    """(instance, config, noise) of SMALL_CONFIG for one algorithm section."""
    config = bench.parse_config(SMALL_CONFIG)
    instance = bench.build_instance(config.instance)
    noise = bench.build_noise(config.instance, instance)
    return instance, bench.build_algorithm(algo, {}, instance, noise), noise


@pytest.mark.parametrize(
    "algo, horizon",
    [
        (algo, horizon)
        for algo in bench.ALGORITHM_NAMES
        for horizon in (1, 37, 200, env.CLOSE_CHUNK + 5)
    ],
)
def test_each_run_function_plays_its_whole_horizon(algo, horizon):
    module, attr = _RUN_FUNCTIONS[algo]
    instance, config, noise = _run_function_args(algo)
    history, _ = getattr(module, attr)(instance, config, horizon, 5, noise)
    assert len(history) == horizon
    whole = whole_run(history)
    for column in (
        history.users, history.arms, history.rewards, whole.inst_regret, whole.cumulative_regret,
    ):
        assert len(column) == horizon
    assert whole.final_regret == whole.cumulative_regret[-1]


@pytest.mark.parametrize("algo", bench.ALGORITHM_NAMES)
def test_each_run_function_rejects_a_horizon_of_zero(algo):
    module, attr = _RUN_FUNCTIONS[algo]
    instance, config, noise = _run_function_args(algo)
    with pytest.raises(ValueError, match="horizon must be positive"):
        getattr(module, attr)(instance, config, 0, 5, noise)


def test_run_experiment_deterministic():
    config = bench.parse_config(SMALL_CONFIG)
    a = bench.run_experiment(config)
    b = bench.run_experiment(config)
    assert len(a.runs) == 1
    ra, rb = a.runs[0].history, b.runs[0].history
    assert np.array_equal(ra.t, rb.t)
    assert np.array_equal(ra.inst_regret, rb.inst_regret)
    assert np.array_equal(ra.cumulative_regret, rb.cumulative_regret)
    assert ra.final_regret == rb.final_regret
    # a report keeps no ledger, so the cell's ledger comes from its run function
    instance, ucb_config, noise = _run_function_args("ucb")
    horizon, seed = config.horizon[0], config.seeds[0]
    ha, _ = baselines.run_per_user_ucb(instance, ucb_config, horizon, seed, noise)
    hb, _ = baselines.run_per_user_ucb(instance, ucb_config, horizon, seed, noise)
    assert np.array_equal(ha.users, hb.users)
    assert np.array_equal(ha.arms, hb.arms)
    assert np.array_equal(ha.rewards, hb.rewards)
    assert np.array_equal(whole_run(ha).cumulative_regret, whole_run(hb).cumulative_regret)
    assert whole_run(ha).final_regret == ra.final_regret


def test_checkpoint_grid_shape():
    grid = bench.checkpoint_grid(60000)
    assert grid[0] >= 1
    assert grid[-1] == 60000
    assert np.all(np.diff(grid) > 0)
    assert len(grid) <= 101


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_summary_matches_recomputation_from_csv(tmp_path):
    text = SMALL_CONFIG.replace("seeds = 1", "seeds = 1,2,3")
    report = bench.run_experiment(bench.parse_config(text))
    paths = bench.emit_report(report, tmp_path / "out")
    recomputed = bench.summarize(bench.read_regret_csv(paths["regret"]))
    bench.write_summary_csv(recomputed, tmp_path / "recomputed.csv")
    assert (tmp_path / "recomputed.csv").read_bytes() == paths["summary"].read_bytes()


def test_emit_empty_report_headers_only(tmp_path):
    config = bench.parse_config(SMALL_CONFIG)
    report = bench.Report(config=config)
    paths = bench.emit_report(report, tmp_path)
    assert (tmp_path / "regret.csv").read_text().strip() == ",".join(bench.REGRET_FIELDS)
    assert (tmp_path / "summary.csv").read_text().strip() == ",".join(bench.SUMMARY_FIELDS)
    assert "svg" not in paths


def test_summary_row_count(tmp_path):
    text = SMALL_CONFIG.replace("[algorithm ucb]\n", "[algorithm ucb]\n[algorithm etc]\nexplore_fraction = 0.3\n")
    text = text.replace("seeds = 1", "seeds = 1,2,3,4,5")
    report = bench.run_experiment(bench.parse_config(text))
    paths = bench.emit_report(report, tmp_path)
    summary = _read_csv(paths["summary"])
    checkpoints = bench.checkpoint_grid(100)
    assert len(summary) == 2 * len(checkpoints)


def test_svg_is_well_formed_xml(tmp_path):
    report = bench.run_experiment(bench.parse_config(SMALL_CONFIG))
    paths = bench.emit_report(report, tmp_path)
    tree = ET.parse(paths["svg"])
    assert tree.getroot().tag.endswith("svg")


def _coloured(path, tag):
    """(stroke, stroke-dasharray) of every `tag` element of the chart at
    `path` not drawn in black."""
    root = ET.parse(path).getroot()
    return [
        (e.get("stroke"), e.get("stroke-dasharray"))
        for e in root.iter(f"{{http://www.w3.org/2000/svg}}{tag}")
        if e.get("stroke") != "black"
    ]


def test_chart_lines_past_the_palette_are_dashed(tmp_path):
    t = np.arange(1, 51)
    keys = [(a, h) for a in ("etc", "lattice", "ucb") for h in (100, 200, 300, 400)]
    summary = [
        bench.Stretch(algo, horizon, t, np.cumsum(np.full(50, 1.0 + k)), np.zeros(50))
        for k, (algo, horizon) in enumerate(keys)
    ]
    styles = []
    for count in (6, 12):
        path = tmp_path / f"regret{count}.svg"
        bench.write_regret_svg(summary[:count], path)
        # each legend swatch is drawn like its line
        assert _coloured(path, "line") == _coloured(path, "polyline")
        styles.append(_coloured(path, "polyline"))
    six, twelve = styles
    assert all(dash is None for _, dash in six)
    assert len(set(twelve)) == 12
    assert twelve[:6] == six


def test_full_history_row_count(tmp_path):
    text = SMALL_CONFIG.replace("[experiment]", "[experiment]\nfull_history = true")
    report = bench.run_experiment(bench.parse_config(text))
    paths = bench.emit_report(report, tmp_path)
    (run,) = bench.read_regret_csv(paths["regret"])
    t, cum = run.history.t, run.history.cumulative_regret
    assert len(t) == 100
    assert t.tolist() == list(range(1, 101))
    assert cum.tolist() == report.runs[0].history.cumulative_regret.tolist()


# The dict-based emission that the columnar code replaced, kept as the
# byte-for-byte reference.
def _reference_regret_rows(report, references, full):
    """The regret.csv rows of `report`, each run's read from its closed
    per-round regret columns in `references`."""
    rows = []
    for run, hist in zip(report.runs, references):
        ts = range(1, len(hist) + 1) if full else bench.checkpoint_grid(run.horizon)
        for t in ts:
            rows.append(
                {
                    "run_id": run.run_id,
                    "algorithm": run.algorithm,
                    "horizon": run.horizon,
                    "seed": run.seed,
                    "t": int(t),
                    "instant_regret": format(float(hist.inst_regret[t - 1]), ".17g"),
                    "cum_regret": format(float(hist.cumulative_regret[t - 1]), ".17g"),
                }
            )
    return rows


def _reference_summarize(regret_rows):
    groups = {}
    for row in regret_rows:
        key = (row["algorithm"], row["horizon"], int(row["t"]))
        groups.setdefault(key, []).append(float(row["cum_regret"]))
    out = []
    for (algo, horizon, t), vals in groups.items():
        vals = np.array(vals)
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        out.append(
            {
                "algorithm": algo,
                "horizon": horizon,
                "checkpoint_t": t,
                "mean": format(mean, ".17g"),
                "stderr": format(stderr, ".17g"),
            }
        )
    return out


def _reference_m4_columns(x, y):
    """Pixel column floor(x) -> the indices M4 keeps there: the first, the
    last, and the first of lowest and of highest y."""
    columns = {}
    for i, xi in enumerate(x):
        columns.setdefault(math.floor(xi), []).append(i)
    kept = {}
    for col, idx in columns.items():
        ys = [y[i] for i in idx]
        kept[col] = {idx[0], idx[-1], idx[ys.index(min(ys))], idx[ys.index(max(ys))]}
    return kept


def _reference_m4(points):
    """The (x, y) points of a drawn series that M4 keeps, in drawing order."""
    x, y = zip(*points)
    keep = set().union(*_reference_m4_columns(x, y).values())
    return [points[i] for i in sorted(keep)]


def _reference_svg(summary_rows):
    series = {}
    for row in summary_rows:
        series.setdefault((row["algorithm"], int(row["horizon"])), []).append(
            (int(row["checkpoint_t"]), float(row["mean"]), float(row["stderr"]))
        )
    several = len({horizon for _, horizon in series}) > 1
    width, height, margin = 720, 480, 60
    t_max = max((pt[0] for pts in series.values() for pt in pts), default=1)
    y_max = max((pt[1] + pt[2] for pts in series.values() for pt in pts), default=1.0)
    y_max = y_max if y_max > 0 else 1.0

    def sx(t):
        return margin + (width - 2 * margin) * t / t_max

    def sy(y):
        return height - margin - (height - 2 * margin) * y / y_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-size="14">round</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">cumulative regret</text>',
    ]
    for i, ((algo, horizon), pts) in enumerate(sorted(series.items())):
        color = bench._PALETTE[i % len(bench._PALETTE)]
        laps = i // len(bench._PALETTE)
        dash = f' stroke-dasharray="{4 * laps} 2"' if laps else ""
        pts = sorted(pts)
        upper = _reference_m4([(sx(t), m + s) for t, m, s in pts])
        lower = _reference_m4([(sx(t), max(m - s, 0.0)) for t, m, s in reversed(pts)])
        band = " ".join(f"{x:.2f},{sy(y):.2f}" for x, y in upper + lower)
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15"/>')
        mean = _reference_m4([(sx(t), m) for t, m, _ in pts])
        line = " ".join(f"{x:.2f},{sy(m):.2f}" for x, m in mean)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        ly = margin + 18 * i
        parts.append(
            f'<line x1="{width - margin - 150}" y1="{ly}" x2="{width - margin - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(
            f'<text x="{width - margin - 112}" y="{ly + 4}" font-size="13">'
            f'{algo}{f" T={horizon}" if several else ""}</text>'
        )
    parts.append(f'<text x="{margin}" y="{height - margin + 18}" font-size="11">0</text>')
    parts.append(
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{t_max}</text>'
    )
    parts.append(
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{y_max:.0f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _reference_csv(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([row[k] for k in fieldnames] for row in rows)
    return buf.getvalue()


# the emission property tests do not shrink: each shrink step emits a whole
# report or chart, so a failing example took minutes to report
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _assert_same_text(got: str, want: str) -> None:
    """`got == want`.  A mismatch reports where the texts first differ, not
    the line diff pytest would take minutes to compute for texts this long."""
    if got != want:
        k = len(os.path.commonprefix([got, want]))
        near = slice(max(k - 40, 0), k + 40)
        line = got.count("\n", 0, k) + 1
        pytest.fail(f"texts differ at line {line}: {got[near]!r} != {want[near]!r}")


def _synthetic_report(algorithms, seeds, horizons, full, values_seed):
    """A report of the records of made-up ledgers, and each run's per-round
    regret columns closed from the same values: per-round regret spread over
    several orders of magnitude, with exact zeros, repeated values and, in
    some runs, negative values, so that a mean minus its standard error can
    drop below 0.  A negative `values_seed` draws the same values as its
    absolute value, then flips the sign of every other exact zero, so each
    run holds both 0.0 and -0.0 in its instant_regret column."""
    rng = np.random.default_rng(abs(values_seed))
    config = bench.ExperimentConfig(
        {"kind": "cs", "num_users": 1, "num_arms": 1},
        [(algo, {}) for algo in algorithms],
        horizon=horizons,
        seeds=seeds,
        full_history=full,
    )
    report, references = bench.Report(config), []
    for horizon in horizons:
        grid = None if full else bench.checkpoint_grid(horizon)
        for algo in algorithms:
            for seed in seeds:
                sign = -1.0 if rng.random() < 0.2 else 1.0
                regrets = sign * rng.exponential(10.0 ** rng.integers(-3, 4), horizon)
                regrets *= rng.random(horizon) < 0.7
                regrets[rng.random(horizon) < 0.1] = 0.25
                if values_seed < 0:
                    zeros = np.flatnonzero(regrets == 0.0)[::2]
                    regrets[zeros] = -regrets[zeros]
                record = bench.regret_record(ledger_with_regrets(regrets), grid)
                references.append(ClosedRegret(horizon))
                references[-1].close(regrets)
                run_id = len(report.runs)
                report.runs.append(
                    bench.RunResult(run_id, algo, seed, horizon, record, None)
                )
    return report, references


@settings(max_examples=60, derandomize=True, deadline=None, phases=_NO_SHRINK)
@given(
    algorithms=st.lists(
        st.sampled_from(["ucb", "lattice", "etc", "simplified-lattice"]),
        min_size=1, max_size=3, unique=True,
    ),
    num_seeds=st.integers(1, 10),
    horizons=st.lists(st.integers(1, 400), min_size=1, max_size=3, unique=True),
    full=st.booleans(),
    values_seed=st.integers(0, 2**32 - 1),
    write_chunk=st.sampled_from([bench.WRITE_CHUNK, 5]),
)
# eight or more values per group: numpy sums them pairwise
@example(["lattice", "ucb"], 10, [250, 100, 37], True, 5, bench.WRITE_CHUNK)
@example(["ucb"], 8, [300], False, 6, bench.WRITE_CHUNK)
# checkpoint grids of several horizons, which share some rounds: each horizon
# is its own stretch and line
@example(["ucb", "etc"], 3, [400, 90, 37], False, 14, bench.WRITE_CHUNK)
# one write chunk plus a few rows, with one seed (every stderr is 0) and with several
@example(["lattice"], 1, [bench.WRITE_CHUNK + 3], True, 11, bench.WRITE_CHUNK)
@example(["ucb", "etc"], 3, [bench.WRITE_CHUNK + 5], True, 12, bench.WRITE_CHUNK)
# -0.0 and 0.0 in the same column of one run
@example(["lattice", "ucb"], 2, [300, 40], True, -13, bench.WRITE_CHUNK)
# chunks of 5 rows: 4000 rounds put 6 or 7 rows in each pixel column, so
# write chunks end inside columns and a chart block is one whole column;
# 700 rounds put 1 or 2 there, so a block holds several whole columns
@example(["lattice", "ucb"], 2, [4000, 700], True, 21, 5)
@example(["lattice"], 1, [4000], True, 22, 5)
@example(["ucb", "etc"], 3, [400, 90, 37], False, 14, 5)
# one seed at two horizons: every (algorithm, horizon) is one run, so
# summary.csv is written in regret.csv's pass
@example(["lattice", "ucb"], 1, [300, 40], True, -15, 5)
@example(["lattice", "ucb"], 1, [300, 40], True, -15, bench.WRITE_CHUNK)
def test_emit_matches_the_dict_based_reference(
    tmp_path_factory, algorithms, num_seeds, horizons, full, values_seed, write_chunk
):
    seeds = [7 * k + 1 for k in range(num_seeds)]
    report, references = _synthetic_report(algorithms, seeds, horizons, full, values_seed)
    out = tmp_path_factory.mktemp("emit")
    summaries, summarize = [], bench.summarize

    def capture(regret):
        summaries.append(summarize(regret))
        return summaries[-1]

    with mock.patch.object(bench, "WRITE_CHUNK", write_chunk), mock.patch.object(
        bench, "summarize", capture
    ), mock.patch.object(
        bench, "write_summary_csv", wraps=bench.write_summary_csv
    ) as two_pass:
        paths = bench.emit_report(report, out)
    assert two_pass.called == (num_seeds > 1)
    # the chart takes each stretch's last round as its greatest
    for stretch in summaries[0]:
        assert len(stretch.t) and np.all(stretch.t[1:] > stretch.t[:-1])
    rows = _reference_regret_rows(report, references, full)
    summary = _reference_summarize(rows)
    _assert_same_text(paths["regret"].read_text(), _reference_csv(bench.REGRET_FIELDS, rows))
    _assert_same_text(paths["summary"].read_text(), _reference_csv(bench.SUMMARY_FIELDS, summary))
    _assert_same_text(paths["svg"].read_text(), _reference_svg(summary))


TRACE_CONFIG = """\
[instance]
kind = rcs
num_users = 24
num_arms = 16
num_clusters = 2
nu = 0.02
row_distribution = gaussian(0,1)
seed = 17
noise = gaussian
sigma = 0.3
[experiment]
horizon = 6000
seeds = 1,2
[algorithm lattice]
gamma = 1
c_prime_override = 0.7
c_p = 2.0
c_b = 0.5
f_cap = 1
[algorithm lattice-rcs]
nu = 0.02
gamma = 1
c_prime_override = 0.7
c_p = 2.0
c_b = 0.5
f_cap = 1
[algorithm simplified-lattice]
[algorithm ucb]
[algorithm etc]
"""


def test_phase_trace_matches_the_dict_based_reference(tmp_path):
    report = bench.run_experiment(bench.parse_config(TRACE_CONFIG))
    modes = {run.algorithm: run.trace and run.trace.has_mode for run in report.runs}
    assert modes == {"lattice": False, "lattice-rcs": True, "simplified-lattice": False,
                     "ucb": None, "etc": None}
    # a hand-built trace of each kind, with empty delta and oracle_error
    # fields, and an oracle error of exactly 0
    records = [
        lattice.PhaseRecord(1, None, "joint", [[0, 1], [2]], [[0], [1, 2]], 10),
        lattice.PhaseRecord(2, 0.1, "clusterwise", [[0], [1], [2]], [[0], [1], [2]], 7, 1 / 3),
        lattice.PhaseRecord(3, 2.0**-40, "ucb", [[0, 1, 2]], [[2]], 0, 0.0),
    ]
    history = report.runs[0].history
    for has_mode in (False, True):
        trace = lattice.PhaseTrace(records, has_mode=has_mode)
        report.runs.append(bench.RunResult(len(report.runs), "a,b", 9, 6000, history, trace))
    got = bench.emit_report(report, tmp_path)["phase_trace"].read_text()
    _assert_same_text(got, reference_trace_csv(report))
    assert ',"a,b",9,1,,,2,2;1,1;2,10,\n' in got
    assert ',"a,b",9,1,,joint,2,2;1,1;2,10,\n' in got


def _runs(algorithms, horizons, ts, columns) -> list[bench.RunResult]:
    """One run per entry, recording its cumulative regret `columns` at
    the rounds `ts`."""
    return [
        bench.RunResult(i, algo, 1, horizon, bench.RegretRecord(t, cum, cum, cum[-1], horizon), None)
        for i, (algo, horizon, t, cum) in enumerate(zip(algorithms, horizons, ts, columns))
    ]


def test_one_run_summary_is_the_run_column():
    t = np.arange(1, 6)
    plain = np.array([0.0, 0.5, 0.5, 2.0, 3.0])
    signed = np.array([-0.0, 0.5, -0.0, 2.0, np.nan])
    summary = bench.summarize(_runs(["a", "b"], [5, 5], [t, t], [plain, signed]))
    assert [stretch.algorithm for stretch in summary] == ["a", "b"]
    assert [stretch.horizon for stretch in summary] == [5, 5]
    assert all(stretch.t is t for stretch in summary)
    # the mean of one value is that value, but np.mean turns -0.0 into 0.0
    expected = [plain, signed[:, None].mean(axis=1)]
    for stretch, mean in zip(summary, expected):
        assert stretch.mean.view(np.int64).tolist() == mean.view(np.int64).tolist()
        assert stretch.stderr.view(np.int64).tolist() == [0] * 5
    (one,) = bench.summarize(_runs(["a"], [5], [t], [plain]))
    assert one.mean is plain
    assert one.stderr.strides == (0,)


def test_partial_report_keeps_first_appearance_order(tmp_path):
    # the report a CellError carries when the last cell fails: lattice has both
    # seeds, ucb one, so summary.csv is reduced from the stretches
    report, references = _synthetic_report(["lattice", "ucb"], [1, 2], [60], True, 3)
    del report.runs[-1]
    with mock.patch.object(bench, "write_summary_csv", wraps=bench.write_summary_csv) as two_pass:
        paths = bench.emit_report(report, tmp_path)
    assert two_pass.called
    summary = _reference_summarize(_reference_regret_rows(report, references, True))
    assert [row["algorithm"] for row in summary[:: len(summary) // 2]] == ["lattice", "ucb"]
    _assert_same_text(paths["summary"].read_text(), _reference_csv(bench.SUMMARY_FIELDS, summary))


@pytest.mark.parametrize("write_chunk", [3, bench.WRITE_CHUNK])
def test_one_pass_summary_reads_as_the_two_pass_path(tmp_path, write_chunk):
    report, _ = _synthetic_report(["lattice"], [1], [10], True, 5)
    cum = report.runs[0].history.cumulative_regret
    cum[[5, 8]] = np.nan
    with mock.patch.object(bench, "WRITE_CHUNK", write_chunk), mock.patch.object(
        bench, "write_summary_csv", wraps=bench.write_summary_csv
    ) as two_pass:
        paths = bench.emit_report(report, tmp_path)
    assert not two_pass.called
    summary = _read_csv(paths["summary"])
    assert [row["mean"] for row in summary][5:9:3] == ["nan", "nan"]
    assert {row["stderr"] for row in summary} == {"0"}
    # the two-pass path reads the same
    bench.write_summary_csv(bench.summarize(bench.read_regret_csv(paths["regret"])), tmp_path / "s")
    assert (tmp_path / "s").read_bytes() == paths["summary"].read_bytes()


def test_each_horizon_is_its_own_stretch():
    # two horizons whose rounds overlap: no round averages runs of both
    short, long = np.array([1, 2, 4]), np.array([1, 2, 4, 8])
    columns = [np.array(c, dtype=float) for c in ([1, 2, 3], [3, 4, 5, 6], [5, 6, 7], [7, 8, 9, 9])]
    summary = bench.summarize(_runs(["a"] * 4, [4, 8, 4, 8], [short, long, short, long], columns))
    assert [(s.algorithm, s.horizon) for s in summary] == [("a", 4), ("a", 8)]
    assert summary[0].t is short and summary[1].t is long
    assert summary[0].mean.tolist() == [3.0, 4.0, 5.0]
    assert summary[1].mean.tolist() == [5.0, 6.0, 7.0, 7.5]
    assert summary[0].stderr.tolist() == [2.0, 2.0, 2.0]


@pytest.mark.parametrize(
    "algorithms, seeds, horizons, full, values_seed",
    [
        # one horizon, every round or its checkpoint grid
        (["lattice", "ucb"], [1, 2], [60], True, -13),
        (["ucb", "etc"], [3, 4], [300], False, -7),
        # three horizons of one algorithm and seed
        (["ucb"], [5], [400, 90, 37], False, 14),
        (["lattice"], [5], [70, 30], True, -3),
    ],
)
def test_read_regret_csv_gives_back_each_run(tmp_path, algorithms, seeds, horizons, full, values_seed):
    report, _ = _synthetic_report(algorithms, seeds, horizons, full, values_seed)
    # negative regrets in every case, beside 0.0 and -0.0
    for run in report.runs:
        run.history.inst_regret[::7] *= -1.0
    if len(horizons) > 1:
        # the second run keeps the first one's run_id and algorithm, so only
        # t falling back to 1 ends the first run
        report.runs[1].run_id = report.runs[0].run_id
    regrets = np.concatenate([run.history.inst_regret for run in report.runs])
    zeros = regrets[regrets == 0.0]
    assert (regrets < 0).any() and np.signbit(zeros).any() and not np.signbit(zeros).all()
    runs = bench.read_regret_csv(bench.emit_report(report, tmp_path)["regret"])
    key = operator.attrgetter("run_id", "algorithm", "seed", "horizon")
    assert list(map(key, runs)) == list(map(key, report.runs))
    for got, want in zip(runs, report.runs):
        assert got.trace is None
        assert got.history.t.tolist() == want.history.t.tolist()
        assert _bits(got.history.inst_regret) == _bits(want.history.inst_regret)
        assert _bits(got.history.cumulative_regret) == _bits(want.history.cumulative_regret)
        assert _bits([got.history.final_regret]) == _bits([want.history.final_regret])
        assert len(got.history) == len(want.history)


_REGRETS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.25, -1.5, 1e-300]), st.floats(-1e6, 1e6)),
    max_size=60,
)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _blocks_and_rounds(n: int, cuts: list[int]) -> tuple[list[int], np.ndarray]:
    """Block sizes for `RunHistory.regret` (1, 3, CLOSE_CHUNK and each
    positive cut) and the sorted rounds of 1..n that `cuts` name."""
    blocks = sorted({1, 3, env.CLOSE_CHUNK, *(c for c in cuts if c > 0)})
    rounds = sorted({min(max(c, 1), n) for c in cuts}) if n else []
    return blocks, np.array(rounds, dtype=np.int64)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(regrets=_REGRETS, cuts=st.lists(st.integers(0, 60), max_size=8))
@example([-0.0, 0.0, -0.0], [1, 1, 2])
@example([1.5, -1.5, -0.0, 1e-300], [])
def test_regret_derived_in_blocks_matches_one_sum_per_round(regrets, cuts):
    values = np.array(regrets, dtype=float)
    hist = ledger_with_regrets(values)
    total, reference = 0.0, []
    for r in regrets:
        total += r
        reference.append(total)
    reference = np.array(reference, dtype=float)
    blocks, rounds = _blocks_and_rounds(len(values), cuts)
    for block in blocks:
        with mock.patch.object(env, "CLOSE_CHUNK", block):
            assert len(hist) == len(values)
            whole = whole_run(hist)
            assert _bits(whole.inst_regret) == _bits(values)
            assert _bits(whole.cumulative_regret) == _bits(reference)
            inst, cum = hist.regret(rounds)
            assert _bits(inst) == _bits(values[rounds - 1])
            assert _bits(cum) == _bits(reference[rounds - 1])
            assert _bits([whole.final_regret]) == _bits([total])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    regrets=st.lists(
        st.one_of(
            st.sampled_from([-0.0, 0.0, math.nan]), st.floats(5e-324, 1e6, allow_subnormal=True)
        ),
        max_size=60,
    ),
    cuts=st.lists(st.integers(0, 60), max_size=8),
)
@example([-0.0, -0.0, -0.0], [1, 2])
@example([-0.0, math.nan, -0.0], [])
def test_derived_regret_never_sums_to_negative_zero(regrets, cuts):
    # the one-pass summary writes the cumulative column's text as each mean,
    # which `summarize` would write as 0 for a -0.0
    hist = ledger_with_regrets(regrets)
    blocks, rounds = _blocks_and_rounds(len(regrets), cuts)
    for block in blocks:
        with mock.patch.object(env, "CLOSE_CHUNK", block):
            whole = whole_run(hist)
            for cum in (whole.cumulative_regret, hist.regret(rounds)[1]):
                assert not np.signbit(cum[cum == 0.0]).any()
            assert not np.signbit(whole.final_regret) or math.isnan(whole.final_regret)


HELD_CONFIG = """\
[instance]
kind = cs
num_users = 6
num_arms = 5
num_clusters = 2
row_distribution = gaussian(0,1)
seed = 3
noise = gaussian
sigma = 0.3
[experiment]
horizon = {horizon}
seeds = 1,2
full_history = {full}
[algorithm ucb]
[algorithm lattice]
c_prime_override = 0.5
f_cap = 1
"""


def _report_held(horizon: int, full: bool) -> tuple[int, int]:
    """(bytes that the report of HELD_CONFIG at `horizon` holds, as
    tracemalloc counts them, and the rounds its runs played)."""
    config = bench.parse_config(HELD_CONFIG.format(horizon=horizon, full=str(full).lower()))
    tracemalloc.start()
    try:
        report = bench.run_experiment(config)
        with_report = tracemalloc.get_traced_memory()[0]
        rounds = sum(len(run.history) for run in report.runs)
        del report
        gc.collect()
        return with_report - tracemalloc.get_traced_memory()[0], rounds
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("full", [False, True])
def test_a_report_holds_per_run_only_the_rows_it_writes(full):
    # a run's record holds its regret at its checkpoints (at most 101 rows),
    # or 16 bytes a round with full history, and no ledger (32 bytes a round
    # when each run kept its history, in both modes)
    _report_held(2000, full)  # first calls compile regexes and fill numpy's caches
    short, short_rounds = _report_held(20000, full)
    long, long_rounds = _report_held(80000, full)
    if full:
        assert long - short <= 16 * (long_rounds - short_rounds) + 2**13
    else:
        assert long - short <= 2**12


def _emit_peak(report, out) -> int:
    # np.unique imports numpy.ma (about 1 MB) on its first call in a process;
    # import it first, so that a peak does not depend on which tests ran before
    import numpy.ma  # noqa: F401

    tracemalloc.start()
    try:
        bench.emit_report(report, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_history_emission_peak_memory_one_run(tmp_path):
    # 2^17 rounds: emission holds one write chunk's strings for regret.csv and
    # summary.csv or one chart block, and the run's int32 grid of rounds
    # (0.5 MiB); the summary is one stretch whose mean is the run's own column
    # and whose stderr is a zero-stride array (1.8 MB with an int64 grid;
    # 6.4 MB with a copied mean, a zero stderr column, an int64 algorithm code
    # per row and the chart's row-length temporaries; 19 MB when the
    # summariser sorted every row)
    report, _ = _synthetic_report(["lattice"], [1], [2**17], True, 11)
    assert _emit_peak(report, tmp_path) <= 2**21
    tracemalloc.start()
    try:
        (run,) = bench.read_regret_csv(tmp_path / "regret.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three typed columns per run, not six columns of strings
    assert peak <= 8 * 2**20
    assert run.history.t.tolist() == list(range(1, 2**17 + 1))
    assert run.history.cumulative_regret.tolist() == report.runs[0].history.cumulative_regret.tolist()


def test_full_history_emission_peak_memory_several_horizons(tmp_path):
    # two algorithms at two horizons, three seeds each: 589,824 rows, reduced
    # one (algorithm, horizon) block at a time (45 MB when the summariser
    # sorted every row)
    report, _ = _synthetic_report(["lattice", "ucb"], [1, 8, 15], [2**15, 2**16], True, 11)
    assert _emit_peak(report, tmp_path) <= 24 * 2**20


_ODD_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072e-308, 0.25
]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    values=st.lists(st.one_of(st.sampled_from(_ODD_FLOATS), st.floats()), max_size=40),
    repeats=st.integers(1, 6),
    fmt=st.sampled_from(["%.17g", "%.2f"]),
)
@example([], 1, "%.17g")
@example([-0.0], 1, "%.2f")
@example([0.0, -0.0, math.nan], 3, "%.17g")
@example([0.0, -0.0, -math.inf, 1e-320], 4, "%.2f")
def test_strings_formats_each_value_as_the_format_does(values, repeats, fmt):
    array = np.array(values * repeats, dtype=float)
    assert bench._strings(fmt, array).tolist() == [fmt % v for v in array.tolist()]


_PIXEL_POINT = st.tuples(
    st.floats(0, 1, exclude_max=True),
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(-1e6, 1e6)),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    columns=st.lists(
        st.tuples(st.integers(1, 40), st.lists(_PIXEL_POINT, min_size=1, max_size=7)),
        min_size=1, max_size=25,
    ),
    backwards=st.booleans(),
)
# a single point
@example([(1, [(0.5, 1.0)])], False)
# every point in one column, with ties for both extremes
@example([(1, [(0.1, 2.0), (0.2, 1.0), (0.3, 2.0), (0.4, 1.0), (0.5, 3.0), (0.6, 3.0)])], False)
# columns of one to four points, drawn right to left
@example(
    [
        (1, [(0.0, 1.0)]),
        (1, [(0.0, 1.0), (0.5, 1.0)]),
        (2, [(0.1, 3.0), (0.2, 1.0), (0.3, 2.0)]),
        (1, [(0.1, 1.0), (0.2, 4.0), (0.3, 2.0), (0.4, 3.0)]),
    ],
    True,
)
def test_m4_keeps_each_columns_first_last_lowest_and_highest(columns, backwards):
    x, y, col = [], [], 60
    for gap, points in columns:
        col += gap
        for offset, value in sorted(points):
            x.append(col + offset)
            y.append(value)
    if backwards:
        x, y = x[::-1], y[::-1]
    kept = bench._m4(np.array(x), np.array(y)).tolist()
    assert kept == sorted(set(kept))
    for col, expected in _reference_m4_columns(x, y).items():
        got = {i for i in kept if math.floor(x[i]) == col}
        assert got == expected
        size = sum(math.floor(v) == col for v in x)
        assert min(size, 2) <= len(got) <= 4


@settings(max_examples=40, derandomize=True, deadline=None, phases=_NO_SHRINK)
@given(
    sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=3),
    nan_at=st.one_of(st.none(), st.integers(0, 2999)),
    seed=st.integers(0, 2**32 - 1),
)
# a NaN in the third chunk of 5 rows: the chart's y range is NaN, so 1
@example([40, 3000], 12, 3)
def test_chart_does_not_depend_on_the_block_size(tmp_path_factory, sizes, nan_at, seed):
    rng = np.random.default_rng(seed)
    ts, means, stderrs = [], [], []
    for size in sizes:
        # about 4 rounds per row, so a pixel column holds several rows
        t = np.unique(rng.integers(1, 4 * size + 1, size=size))
        ts.append(t)
        means.append(np.cumsum(rng.exponential(size=len(t))))
        stderrs.append(rng.exponential(size=len(t)) * (rng.random(len(t)) < 0.5))
    if nan_at is not None:
        means[0][nan_at % len(means[0])] = np.nan
    summary = [
        bench.Stretch(f"algo{len(sizes) - 1 - k}", int(t[-1]), t, mean, stderr)
        for k, (t, mean, stderr) in enumerate(zip(ts, means, stderrs))
    ]
    out = tmp_path_factory.mktemp("chart")
    charts = []
    for write_chunk in (5, 2**30):
        with mock.patch.object(bench, "WRITE_CHUNK", write_chunk):
            bench.write_regret_svg(summary, out / "regret.svg")
        charts.append((out / "regret.svg").read_text())
    _assert_same_text(charts[0], charts[1])


def test_chart_of_an_int32_grid_past_its_pixel_overflow(tmp_path):
    # 600 * t overflows int32 past about 3.58M rounds; a full-history grid is int32
    t = np.array([1, 2**21, 2**22, 2**31 - 1])
    mean, stderr = np.array([0.0, 5.0, 7.0, 9.0]), np.zeros(4)
    charts = []
    for dtype in (np.int64, np.int32):
        stretch = bench.Stretch("a", 2**31 - 1, t.astype(dtype), mean, stderr)
        bench.write_regret_svg([stretch], tmp_path / "c.svg")
        charts.append((tmp_path / "c.svg").read_text())
    _assert_same_text(charts[1], charts[0])
    assert "660.00," in charts[0]


def _scaling_finals(path) -> list[tuple[str, int, float]]:
    """The (algorithm, horizon, final regret) of each row of a scaling.csv."""
    return [(r["algorithm"], int(r["horizon"]), float(r["final_regret"])) for r in _read_csv(path)]


def test_scaling_slope_fit():
    finals = [("lattice", 2**k, 3.0 * (2**k) ** 0.5) for k in range(10, 14)]
    finals += [("ucb", 2**k, 1.0) for k in range(10, 14)]
    slope = bench.scaling_slope(finals, "lattice")
    assert slope == pytest.approx(0.5, abs=1e-9)


def test_scaling_slope_of_a_zero_regret_says_there_is_none(tmp_path, capsys):
    # one arm: no policy can regret anything, so log(mean final regret) has no value
    text = SMALL_CONFIG.replace("num_users = 4\nnum_arms = 4", "num_users = 3\nnum_arms = 1")
    text = text.replace("num_clusters = 2", "num_clusters = 1")
    text = text.replace("horizon = 100", "horizon = 200,400")
    cfg, out = _write_config(tmp_path, text), tmp_path / "out"
    # a numpy RuntimeWarning fails the test (pyproject.toml's filterwarnings)
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "ucb: no final-regret log-log slope" in stdout
    assert "ucb at horizon 200: mean final regret is 0," in stdout
    assert "nan" not in stdout
    with pytest.raises(ValueError, match="ucb at horizon 200"):
        bench.scaling_slope(_scaling_finals(out / "scaling.csv"), "ucb")


def test_build_instance_kinds(tmp_path):
    inst = bench.build_instance(
        {"kind": "hard", "num_users": 4, "num_arms": 3, "num_clusters": 2,
         "epsilon": 0.2, "optimal_arms": [0, 2], "seed": 0}
    )
    assert inst.default_noise.kind == "bernoulli-reward"
    from clusterbandits.env import save_instance

    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    again = bench.build_instance({"kind": "file", "path": str(path)})
    assert np.array_equal(again.P, inst.P)


def _write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# edits of a saved 4-user, 3-arm, 2-cluster instance file
@pytest.mark.parametrize(
    "edit, section",
    [
        # the last line of the file is the last row of [P]
        pytest.param(
            lambda text: text[: text.rstrip("\n").rindex("\n") + 1], "[P]", id="P-row-dropped"
        ),
        pytest.param(lambda text: text.replace("num_arms = 3", "num_arms = 5"), "[X]", id="arms"),
        pytest.param(
            lambda text: text.replace("num_users = 4", "num_users = 5"), "[cluster_of]",
            id="users",
        ),
        pytest.param(
            lambda text: text.replace("0 1 0 1", "0 1 0 2"), "[cluster_of]", id="cluster-id"
        ),
        pytest.param(
            lambda text: text.replace(" -0.2155971630897659\n[P]", "\n[P]"), "[X]",
            id="X-row-short",
        ),
        # a key or an entry that cannot be read names its key or section
        pytest.param(
            lambda text: text.replace("num_users = 4\n", ""), "[meta] num_users: missing",
            id="num-users-missing",
        ),
        pytest.param(
            lambda text: text.replace("num_arms = 3", "num_arms = forty"),
            "[meta] num_arms: invalid literal", id="num-arms-not-int",
        ),
        pytest.param(
            lambda text: re.sub(r"(\[X\]\n)\S+", r"\1abc", text), "[X]: could not convert",
            id="X-entry-not-float",
        ),
        pytest.param(
            lambda text: text.replace("0 1 0 1", "0 1 x 1"), "[cluster_of]: invalid literal",
            id="cluster-entry-not-int",
        ),
        # a key or a section that the file format does not have is named, not dropped
        pytest.param(
            lambda text: text.replace("noise_sigma", "noise_sigm"), "[meta] noise_sigm: unknown key",
            id="meta-key-unknown",
        ),
        pytest.param(
            lambda text: text + "[Q]\n0.5 0.5 0.5\n", "[Q]: unknown section", id="section-unknown"
        ),
        pytest.param(
            lambda text: "num_users = 9\n" + text, "'num_users = 9': outside any section",
            id="line-before-sections",
        ),
    ],
)
def test_malformed_instance_file_is_a_config_error(tmp_path, capsys, edit, section):
    config = SMALL_CONFIG.replace("num_arms = 4", "num_arms = 3")
    assert cli.main(["generate", "--config", str(_write_config(tmp_path, config)),
                     "--out", str(tmp_path)]) == 0
    path = tmp_path / "instance.txt"
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=re.escape(section)):
        env.load_instance(path)
    experiment = config[config.index("[experiment]") :]
    cfg = _write_config(tmp_path, f"[instance]\nkind = file\npath = {path}\n{experiment}")
    capsys.readouterr()
    for argv in (
        ["run", "--config", str(cfg), "--out", str(tmp_path / "run")],
        ["generate", "--config", str(cfg), "--out", str(tmp_path / "again")],
        ["check", "--instance", str(path)],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: instance.path: ") and section in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "again").exists()


def test_cli_run_success(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "regret.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "regret.svg").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_CONFIG.replace("[algorithm ucb]", "[algorithm nope]"))
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_unknown_algorithm_key_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_CONFIG + "[algorithm lattice]\nc_pp = 9\n")
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "c_pp" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file(tmp_path):
    code = cli.main(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
    assert code == 2


def test_cli_generate_and_check(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "gen"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out), "--check"]) == 0
    assert (out / "instance.txt").exists()
    assert (out / "assumptions.txt").exists()
    assert cli.main(["check", "--instance", str(out / "instance.txt")]) == 0
    captured = capsys.readouterr()
    assert "kappa" in captured.out


def test_cli_seed_list_override(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--seed-list", "4,5"]) == 0
    rows = _read_csv(out / "regret.csv")
    assert {row["seed"] for row in rows} == {"4", "5"}


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("seeds", ["4,x", "", ",", "4,5,4"])
def test_cli_bad_seed_list_exits_2_before_any_cell(tmp_path, monkeypatch, capsys, command, seeds):
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bench, "_run_cell", no_cell)
    text = SMALL_CONFIG.replace("horizon = 100", "horizon = 100,200")
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), "--seed-list", seeds]) == 2
    assert "experiment.seeds" in capsys.readouterr().err
    assert not out.exists()


def _record_calls(monkeypatch, name):
    """Configs passed to `bench.<name>`, which keeps working."""
    calls = []
    original = getattr(bench, name)

    def record(config, **kwargs):
        calls.append(config)
        return original(config, **kwargs)

    monkeypatch.setattr(bench, name, record)
    return calls


def test_cli_overrides_build_a_new_checked_config(tmp_path, monkeypatch):
    ran = _record_calls(monkeypatch, "run_experiment")
    parsed, checked = [], []
    parse, check = bench.parse_config, bench.ExperimentConfig.__post_init__

    def record_parse(text):
        parsed.append(parse(text))
        return parsed[-1]

    def record_check(config):
        check(config)
        checked.append(config)

    monkeypatch.setattr(bench, "parse_config", record_parse)
    monkeypatch.setattr(bench.ExperimentConfig, "__post_init__", record_check)
    cfg = _write_config(tmp_path)
    args = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(args + ["--seed-list", "4,5", "--check", "--full-history"]) == 0
    (config,) = ran
    assert (config.seeds, config.check, config.full_history) == ([4, 5], True, True)
    # the file's config is unchanged; the overridden one is new, and each is
    # checked once
    (file_config,) = parsed
    assert (file_config.seeds, file_config.check, file_config.full_history) == ([1], False, False)
    assert len(checked) == 2 and checked[0] is file_config and checked[1] is config
    ran.clear()
    checked.clear()
    assert cli.main(args) == 0
    assert ran[0].seeds == [1] and len(checked) == 1


def test_cli_plot_roundtrip(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    before = (out / "summary.csv").read_text()
    (out / "regret.svg").unlink()
    assert cli.main(["plot", "--out", str(out)]) == 0
    assert (out / "regret.svg").exists()
    assert (out / "summary.csv").read_text() == before


def test_cli_plot_reproduces_the_run_outputs(tmp_path):
    text = SMALL_CONFIG.replace("seeds = 1", "seeds = 1,2,3,4,5,6,7,8,9")
    text += "[algorithm etc]\nexplore_fraction = 0.5\n"
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--full-history"]) == 0
    for name in ("summary.csv", "regret.svg"):
        shutil.copy(out / name, tmp_path / name)
    assert cli.main(["plot", "--out", str(out)]) == 0
    for name in ("summary.csv", "regret.svg"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_cli_plot_without_rows_is_a_config_error(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "regret.csv").write_text(",".join(bench.REGRET_FIELDS) + "\n")
    assert cli.main(["plot", "--out", str(out)]) == 2


def test_cli_plot_names_a_missing_regret_column(tmp_path, capsys):
    # plot reads every column back into run records, so none may be missing
    out = tmp_path / "out"
    out.mkdir()
    (out / "regret.csv").write_text("run_id,algorithm,t,cum_regret\n0,ucb,1,0.5\n")
    assert cli.main(["plot", "--out", str(out)]) == 2
    assert "no seed, instant_regret column" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_cli_plot_of_one_group_on_different_rounds_is_a_config_error(tmp_path, capsys):
    # two ucb runs of 3 rounds each, both ending at t = 5, so both of horizon 5
    out = tmp_path / "out"
    out.mkdir()
    rows = ["0,ucb,1,1,1,1", "0,ucb,1,2,1,2", "0,ucb,1,5,1,5"]
    rows += ["1,ucb,2,1,1,1", "1,ucb,2,3,1,3", "1,ucb,2,5,1,5"]
    (out / "regret.csv").write_text("\n".join([",".join(bench.REGRET_FIELDS), *rows]) + "\n")
    assert cli.main(["plot", "--out", str(out)]) == 2
    assert "ucb at horizon 5: its runs hold different rounds" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_cli_bench_runs_scaling_study(tmp_path, capsys):
    text = SMALL_CONFIG.replace("horizon = 100", "horizon = 100,200")
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "bench"
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "scaling.csv")
    assert {row["horizon"] for row in rows} == {"100", "200"}
    assert "slope" in capsys.readouterr().out


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = _write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "clusterbandits.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "sub")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# accepted keys whose values parse but name nothing the program knows
_BAD_INSTANCE_VALUES = [
    ("row_distribution = gaussian(0,1)", "row_distribution = gausian(0,1)"),
    ("noise = gaussian", "noise = gausian"),
]


@pytest.mark.parametrize(
    "old, new",
    [
        ("sigma", "sigam"),
        ("horizon = 100", "horizon = 2k"),
        ("seed = 3", "seed = 3\nseed = 4"),
        ("[algorithm", "[experiment]\nseeds = 2\n[algorithm"),
        *_BAD_INSTANCE_VALUES,
    ],
)
def test_cli_instance_or_experiment_typo_exit_code(tmp_path, capsys, old, new):
    cfg = _write_config(tmp_path, SMALL_CONFIG.replace(old, new))
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert new.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new", _BAD_INSTANCE_VALUES)
def test_cli_generate_bad_instance_value_exit_code(tmp_path, capsys, old, new):
    cfg = _write_config(tmp_path, SMALL_CONFIG.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"instance.{new.split()[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
def test_cli_check_takes_one_of_config_or_instance(tmp_path, capsys, both):
    # with neither flag there is nothing to check; with both, one would be ignored
    args = ["check"]
    if both:
        cfg = _write_config(tmp_path)
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        args += ["--config", str(cfg), "--instance", str(tmp_path / "instance.txt")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


# the etc cell runs after ucb's has finished, and is made to raise
BUDGET_CONFIG = """\
[instance]
kind = cs
num_users = 30
num_arms = 24
num_clusters = 2
row_distribution = gaussian(0,1)
seed = 3
noise = gaussian
sigma = 0.5
[experiment]
horizon = 9000
seeds = 1
[algorithm ucb]
"""
FAILING_ETC = "[algorithm etc]\nexplore_fraction = 0.05\n"


def _failing_etc(*args):
    # etc commits on what it has when its budget runs short, so the failure is injected
    raise RuntimeError("etc cell failed")


def test_cli_run_emits_finished_cells_when_a_cell_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(baselines, "run_explore_then_commit", _failing_etc)
    alone = _write_config(tmp_path, BUDGET_CONFIG)
    assert cli.main(["run", "--config", str(alone), "--out", str(tmp_path / "alone")]) == 0
    failing = tmp_path / "failing.cfg"
    failing.write_text(BUDGET_CONFIG + FAILING_ETC)
    assert cli.main(["run", "--config", str(failing), "--out", str(tmp_path / "out")]) == 3
    assert "etc T=9000 seed=1" in capsys.readouterr().err
    regret = (tmp_path / "out" / "regret.csv").read_bytes()
    assert regret == (tmp_path / "alone" / "regret.csv").read_bytes()


def test_cli_bench_emits_finished_cells_when_a_cell_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(baselines, "run_explore_then_commit", _failing_etc)
    cfg = _write_config(
        tmp_path, BUDGET_CONFIG.replace("horizon = 9000", "horizon = 9000,18000") + FAILING_ETC
    )
    out = tmp_path / "bench"
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out)]) == 3
    assert "etc T=9000 seed=1" in capsys.readouterr().err
    rows = _read_csv(out / "scaling.csv")
    assert [(r["algorithm"], r["horizon"]) for r in rows] == [("ucb", "9000")]
    assert (out / "regret.csv").exists()
