"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line
(echoed in the terminal summary via the acceptance_log fixture).

Desk-scale runs need concrete constants where the algorithms only fix orders
of growth; the configurations below document that calibration.  Every run is
seeded, so the suite is deterministic.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from clusterbandits import bench
from clusterbandits.baselines import EtcConfig, run_explore_then_commit, run_per_user_ucb
from clusterbandits.checker import (
    cluster_size_ratio,
    spectrum,
    subset_smoothness_estimate,
)
from clusterbandits.completion import OracleParams, run_oracle, solve_nuclear_norm
from clusterbandits.env import (
    Environment,
    NoiseModel,
    RowDistribution,
    generate_cs_instance,
    generate_rcs_instance,
)
from clusterbandits.lattice import LatticeConfig, run_lattice
from clusterbandits.rcs import RcsConfig, run_lattice_rcs
from helpers import (
    dense_iterate_solve,
    regret_at,
    run_policy,
    serialize_config,
    ucb_index,
    ucb_state,
    whole_run,
)


def _report(log, line):
    print(line)
    log.append(line)


# The benchmark-scale configuration, as shipped: its elimination schedule
# constant, sampling rate and repetition counts are desk-scale calibrations.
# One repetition with a single observation per masked cell in phase 1 keeps
# the exploration cost near 12k rounds of the 60k budget.
BENCHMARK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark_cs.cfg"


@pytest.fixture(scope="module")
def benchmark_runs():
    # every round's regret is kept, for the quarter-horizon regrets
    config = bench.parse_config(BENCHMARK_CONFIG.read_text())
    config = dataclasses.replace(config, full_history=True)
    (T,) = config.horizon
    instance = bench.build_instance(config.instance)
    out = {"instance": instance, "noise": bench.build_noise(config.instance, instance),
           "seeds": config.seeds, "T": T, "lattice": [], "simplified-lattice": [], "ucb": [],
           "lattice_q1": [], "lattice_q4": []}
    for run in bench.run_experiment(config).runs:
        out[run.algorithm].append(run.history.final_regret)
        if run.algorithm == "lattice":
            cumulative = run.history.cumulative_regret
            out["lattice_q1"].append(float(cumulative[T // 4 - 1]))
            out["lattice_q4"].append(run.history.final_regret - float(cumulative[3 * T // 4 - 1]))
    return out


def test_criterion_1_benchmark_comparison(benchmark_runs, acceptance_log):
    runs = benchmark_runs
    mean_lattice = np.mean(runs["lattice"])
    mean_simplified = np.mean(runs["simplified-lattice"])
    mean_ucb = np.mean(runs["ucb"])
    flattening = np.sum(runs["lattice_q4"]) / np.sum(runs["lattice_q1"])
    ok = mean_lattice < mean_ucb and mean_simplified < mean_ucb and flattening < 0.25
    _report(
        acceptance_log,
        f"ACCEPTANCE 1 (benchmark comparison): {'PASS' if ok else 'FAIL'} - "
        f"lattice {mean_lattice:.0f}, simplified {mean_simplified:.0f}, "
        f"ucb {mean_ucb:.0f}, flattening {flattening:.3f}"
    )
    assert mean_lattice < mean_ucb
    assert mean_simplified < mean_ucb
    assert flattening < 0.25


def test_criterion_2_sqrt_t_scaling(acceptance_log):
    inst = generate_cs_instance(64, 64, 2, RowDistribution.gaussian(0, 1), seed=5)
    noise = NoiseModel("gaussian", 0.5)
    # gamma = 1 keeps elimination running until singleton arm sets, which is
    # the regime where deeper horizons reach deeper phases
    cfg = LatticeConfig(
        num_clusters=2, sigma=0.5, gamma=1.0, c_prime_override=0.5,
        c_p=0.5, c_b=0.5, f_cap=1,
    )
    finals = []
    for T in (2**14, 2**15, 2**16, 2**17):
        for seed in (301, 302, 303, 304, 305):
            hist, _ = run_policy(run_lattice, inst, cfg, T, seed=seed, noise=noise)
            finals.append(("lattice", T, whole_run(hist, inst).final_regret))
    slope = bench.scaling_slope(finals, "lattice")
    ok = 0.35 <= slope <= 0.65
    _report(
        acceptance_log,
        f"ACCEPTANCE 2 (sqrt-T scaling): {'PASS' if ok else 'FAIL'} - slope {slope:.3f}",
    )
    assert 0.35 <= slope <= 0.65


def test_criterion_3_oracle_error_scaling(acceptance_log):
    inst = generate_cs_instance(100, 100, 2, RowDistribution.gaussian(0, 1), seed=31)
    errs = {4: [], 16: []}
    for seed in range(10):
        for b in (4, 16):
            env = Environment(
                inst, NoiseModel("gaussian", 0.5), seed=1000 + seed, horizon=400_000
            )
            lam = 2.5 * (0.5 / math.sqrt(b)) * math.sqrt(100 * 0.5)
            params = OracleParams(p=0.5, b=b, f=1, lam=lam, zeta=0.1)
            est = run_oracle(env, np.arange(100), np.arange(100), params, seed=seed).estimate()
            errs[b].append(float(np.max(np.abs(est - inst.P))))
    ratio = float(np.median(errs[4]) / np.median(errs[16]))
    env = Environment(inst, NoiseModel("none"), seed=5, horizon=200_000)
    params = OracleParams(p=0.5, b=1, f=1, lam=1e-3, zeta=0.01)
    est = run_oracle(env, np.arange(100), np.arange(100), params, seed=3).estimate()
    noiseless_err = float(np.max(np.abs(est - inst.P)))
    ok = 2 / 1.6 <= ratio <= 2 * 1.6 and noiseless_err <= 1e-2
    _report(
        acceptance_log,
        f"ACCEPTANCE 3 (oracle error scaling): {'PASS' if ok else 'FAIL'} - "
        f"b-ratio {ratio:.3f}, noiseless err {noiseless_err:.2e}"
    )
    assert 2 / 1.6 <= ratio <= 2 * 1.6
    assert noiseless_err <= 1e-2


def test_criterion_4_exact_estimate_clustering(acceptance_log):
    hits = 0
    for seed in range(20):
        inst = generate_cs_instance(40, 20, 4, RowDistribution.gaussian(0, 1), seed=1000 + seed)
        min_cross = min(
            np.max(np.abs(inst.X[c] - inst.X[d]))
            for c in range(4) for d in range(c + 1, 4)
        )
        cfg = LatticeConfig(
            num_clusters=4, sigma=0.0, c_prime_override=0.9 * min_cross, c_p=2.0, f_cap=1
        )
        _, trace = run_policy(run_lattice, inst, cfg, 30000, seed=seed, noise=NoiseModel("none"))
        found = sorted(tuple(sorted(s)) for s in trace.records[0].user_sets)
        truth = sorted(
            tuple(sorted(np.flatnonzero(inst.cluster_of == c).tolist())) for c in range(4)
        )
        hits += found == truth
    _report(
        acceptance_log,
        f"ACCEPTANCE 4 (exact-estimate clustering): "
        f"{'PASS' if hits == 20 else 'FAIL'} - {hits}/20",
    )
    assert hits == 20


def test_criterion_5_best_arm_retention(acceptance_log):
    inst = generate_cs_instance(60, 60, 3, RowDistribution.gaussian(0, 1), seed=11)
    noise = NoiseModel("gaussian", 0.5)
    cfg = LatticeConfig(
        num_clusters=3, sigma=0.5, c_prime_override=0.5, c_p=0.5, c_b=0.8, f_cap=2
    )
    events = retained = 0
    for seed in range(200, 220):
        _, trace = run_policy(run_lattice, inst, cfg, 30000, seed=seed, noise=noise)
        for rec in trace.records:
            events += 1
            ok = all(
                int(inst.best_arm[u]) in set(arms)
                for users, arms in zip(rec.user_sets, rec.arm_sets)
                for u in users
            )
            retained += ok
    rate = retained / events
    _report(
        acceptance_log,
        f"ACCEPTANCE 5 (best-arm retention): {'PASS' if rate >= 0.95 else 'FAIL'} - "
        f"{retained}/{events} boundaries ({rate:.1%})"
    )
    assert rate >= 0.95


def test_criterion_6_rcs_convergence(acceptance_log):
    inst = generate_rcs_instance(60, 40, 3, 0.02, RowDistribution.gaussian(0, 1), seed=17)
    noise = NoiseModel("gaussian", 0.3)
    truth = sorted(
        tuple(sorted(np.flatnonzero(inst.cluster_of == c).tolist())) for c in range(3)
    )
    cfg = RcsConfig(
        num_clusters=3, sigma=0.3, gamma=1.0, c_prime_override=0.7,
        c_p=2.0, c_b=0.5, f_cap=1, nu=0.02,
    )
    correct = tail_ok = 0
    ratios = []
    for seed in range(400, 410):
        hist, trace = run_policy(run_lattice_rcs, inst, cfg, 40000, seed=seed, noise=noise)
        clusterwise = [r for r in trace.records if r.mode == "clusterwise"]
        if clusterwise and sorted(tuple(sorted(s)) for s in clusterwise[0].user_sets) == truth:
            correct += 1
        whole = whole_run(hist, inst)
        tail_ok += float(np.mean(whole.inst_regret[-2000:])) <= 2 * 0.02 * 3
        ratios.append(whole.final_regret / max(regret_at(hist, inst, 20000), 1.0))
    mean_ratio = float(np.mean(ratios))
    ok = correct >= 8 and mean_ratio < 1.9 and tail_ok >= 8
    _report(
        acceptance_log,
        f"ACCEPTANCE 6 (relaxed-cluster convergence): {'PASS' if ok else 'FAIL'} - "
        f"{correct}/10 correct partitions, tail ok {tail_ok}/10, T/T2 ratio {mean_ratio:.2f}"
    )
    assert correct >= 8
    assert mean_ratio < 1.9
    assert tail_ok >= 8


def test_criterion_7_invariant_suites(tmp_path, acceptance_log):
    checks = {}

    # partition validity at every phase boundary
    inst = generate_cs_instance(12, 8, 2, RowDistribution.gaussian(0, 1), seed=5)
    cfg = LatticeConfig(num_clusters=2, sigma=0.2, c_prime_override=0.5, f_cap=1)
    _, trace = run_policy(run_lattice, inst, cfg, 3000, seed=9, noise=NoiseModel("gaussian", 0.2))
    checks["partition"] = all(
        sorted(u for s in r.user_sets for u in s) == list(range(12)) for r in trace.records
    )

    # solver objective monotonicity, on the objectives of the dense reference
    # whose iterates the solver matches bit for bit
    rng = np.random.default_rng(5)
    truth = np.outer(rng.normal(size=15), rng.normal(size=12))
    mask = rng.random(truth.shape) < 0.5
    rows, cols = np.nonzero(mask)
    noisy = truth[rows, cols] + rng.normal(0, 0.2, size=len(rows))
    Q, _ = solve_nuclear_norm(noisy, (rows, cols), truth.shape, lam=0.5)
    ref_Q, _, objectives = dense_iterate_solve(noisy, (rows, cols), truth.shape, lam=0.5)
    objs = np.array(objectives)
    monotone = bool(np.all(np.diff(objs) <= 1e-9 * (1 + np.abs(objs[:-1]))))
    checks["objective_monotone"] = np.array_equal(Q, ref_Q) and monotone

    # entrywise median robustness to minority corruption
    stack = np.random.default_rng(0).normal(size=(5, 4, 4))
    corrupted = stack.copy()
    corrupted[0, 1, 1] = 1e9
    corrupted[1, 1, 1] = -1e9
    med = np.median(corrupted, axis=0)
    clean = np.sort(stack[2:, 1, 1])
    checks["median_robust"] = bool(clean[0] <= med[1, 1] <= clean[-1])

    # bit-identical determinism through the harness
    config = bench.parse_config(
        "[instance]\nkind = cs\nnum_users = 4\nnum_arms = 4\nnum_clusters = 2\n"
        "row_distribution = gaussian(0,1)\nseed = 3\nnoise = gaussian\nsigma = 0.2\n"
        "[experiment]\nhorizon = 150\nseeds = 1\n[algorithm ucb]\n"
    )
    instance = bench.build_instance(config.instance)
    noise = bench.build_noise(config.instance, instance)
    ucb = bench.build_algorithm("ucb", {}, instance, noise)
    horizon, seed = config.horizon[0], config.seeds[0]
    a, _ = run_policy(run_per_user_ucb, instance, ucb, horizon, seed, noise)
    b, _ = run_policy(run_per_user_ucb, instance, ucb, horizon, seed, noise)
    checks["determinism"] = all(
        np.array_equal(getattr(a, column), getattr(b, column))
        for column in ("users", "arms", "rewards")
    )

    # CSV round trip: summary recomputed from regret.csv matches exactly
    report = bench.run_experiment(config)
    paths = bench.emit_report(report, tmp_path / "out")
    recomputed = bench.summarize(bench.read_regret_csv(paths["regret"]))
    bench.write_summary_csv(recomputed, tmp_path / "recomputed.csv")
    checks["csv_roundtrip"] = (
        (tmp_path / "recomputed.csv").read_bytes() == paths["summary"].read_bytes()
    )

    # config round trip fixed point
    text = serialize_config(config)
    checks["config_roundtrip"] = serialize_config(bench.parse_config(text)) == text

    # spectral lemmas on nice submatrices
    inst2 = generate_cs_instance(30, 20, 3, RowDistribution.gaussian(0, 1), seed=1)
    kappa_x, _, mu_col = spectrum(inst2.X)[:3]
    tau = cluster_size_ratio(inst2.cluster_of)
    _, s, Vt = np.linalg.svd(inst2.X, full_matrices=False)
    alpha_hat = subset_smoothness_estimate(Vt.T, 2.0, 3, 200, np.random.default_rng(0))
    lemma_ok = True
    rng = np.random.default_rng(3)
    for _ in range(10):
        clusters = rng.choice(3, size=rng.integers(1, 4), replace=False)
        users = np.flatnonzero(np.isin(inst2.cluster_of, clusters))
        sub = inst2.P[users]
        kappa_sub = spectrum(sub)[0]
        lemma_ok &= kappa_sub <= kappa_x * math.sqrt(tau) + 1e-6
        U, sv, Vt_sub = np.linalg.svd(sub, full_matrices=False)
        r = int(np.sum(sv > 1e-9 * sv[0]))
        lemma_ok &= float(np.max(np.linalg.norm(U[:, :r], axis=1))) <= math.sqrt(
            3 * tau / len(users)
        ) + 1e-6
        lemma_ok &= float(np.max(np.linalg.norm(Vt_sub[:r, :].T, axis=1))) <= math.sqrt(
            mu_col * 3 / (alpha_hat * 20)
        ) + 1e-6
    checks["spectral_lemmas"] = bool(lemma_ok)

    # hand oracles for the elimination primitives
    from clusterbandits.lattice import (
        build_user_graph,
        good_arm_set,
        intersect_with_union_fallback,
    )

    checks["good_arm_set"] = good_arm_set(np.array([[1.0, 0.9, 0.5]]), 0.1).tolist() == [
        [True, True, False]
    ]
    est = np.array([[1.0, 0.0], [0.0, 1.0]])
    checks["edge_rule"] = not build_user_graph(est, good_arm_set(est, 0.1), 0.1).any()
    # near-best arms {0, 1}, {1, 2} and {1, 3} over the arms 0..3
    near_best = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]], dtype=bool)
    inter, fell_back = intersect_with_union_fallback(near_best, np.arange(4))
    checks["intersection"] = (inter.tolist(), fell_back) == ([1], False)
    state = ucb_state([0], 1.0, math.e)
    for _ in range(6):
        state.select()
        state.update(0.5)
    checks["ucb_index"] = abs(ucb_index(state, 0) - 1.5) < 1e-12

    failed = [name for name, ok in checks.items() if not ok]
    _report(
        acceptance_log,
        f"ACCEPTANCE 7 (invariant suites): {'PASS' if not failed else 'FAIL'} - "
        f"{len(checks) - len(failed)}/{len(checks)} checks"
        + (f" (failed: {', '.join(failed)})" if failed else "")
    )
    assert not failed


def test_criterion_8_assumption_feasibility(acceptance_log):
    passes = 0
    for seed in range(20):
        inst = generate_cs_instance(8, 500, 4, RowDistribution.gaussian(0, 1), seed=seed)
        kappa, _, mu_col = spectrum(inst.X)[:3]
        _, s, Vt = np.linalg.svd(inst.X, full_matrices=False)
        gamma = 16.0 * math.log(500) / 4
        alpha = subset_smoothness_estimate(Vt.T, gamma, 4, 200, np.random.default_rng(seed))
        passes += kappa <= 4.0 and mu_col <= 16.0 * math.log(500) and alpha >= 1.0 / 16.0
    ok = passes >= 18
    _report(
        acceptance_log,
        f"ACCEPTANCE 8 (assumption feasibility): "
        f"{'PASS' if ok else 'FAIL'} - {passes}/20 seeds",
    )
    assert passes >= 18


@pytest.mark.xfail(
    reason="measured: tuned explore-then-commit beats the phased policy on 4/5 "
    "seeds at this horizon (lattice wins only seed 103, so the test prints 1/5); "
    "its short-horizon constants are strong and the "
    "asymptotic ordering has not kicked in by T=60000",
    strict=False,
)
def test_etc_grid_head_to_head(benchmark_runs):
    runs = benchmark_runs
    inst, noise = runs["instance"], runs["noise"]
    worse = 0
    for i, seed in enumerate(runs["seeds"]):
        finals = []
        for frac in (0.05, 0.1, 0.2):
            cfg = EtcConfig(sigma=0.5, c_p=0.12, explore_fraction=frac)
            hist, _ = run_policy(
                run_explore_then_commit, inst, cfg, runs["T"], seed=seed, noise=noise
            )
            finals.append(whole_run(hist, inst).final_regret)
        worse += min(finals) > runs["lattice"][i]
    print(f"ETC head-to-head: best ETC worse than lattice on {worse}/5 seeds")
    assert worse >= 4
