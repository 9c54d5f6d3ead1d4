import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterbandits import baselines, lattice
from clusterbandits.baselines import (
    EtcConfig,
    SimplifiedConfig,
    UcbConfig,
    kmeans_elbow,
    run_explore_then_commit,
    run_per_user_ucb,
    run_simplified_lattice,
)
from clusterbandits.bench import checkpoint_grid
from clusterbandits.env import (
    Instance,
    NoiseModel,
    RowDistribution,
    generate_cs_instance,
)
from helpers import reference_kmeans_once, regret_at, run_policy, whole_run


def test_ucb_single_arm_zero_regret():
    inst = generate_cs_instance(3, 1, 1, RowDistribution.gaussian(0, 1), seed=0)
    hist, _ = run_policy(
        run_per_user_ucb, inst, UcbConfig(0.5), 200, seed=1, noise=NoiseModel("none")
    )
    assert whole_run(hist, inst).final_regret == 0.0


def test_ucb_noiseless_two_arms_exact_regret():
    # one forced pull of the bad arm, then greedy on exact means
    P = np.array([[1.0, 0.5]])
    inst = Instance(1, 2, 1, P, np.array([0]), P.copy())
    hist, _ = run_policy(
        run_per_user_ucb, inst, UcbConfig(0.0), 100, seed=3, noise=NoiseModel("none")
    )
    assert whole_run(hist, inst).final_regret == pytest.approx(0.5)


def test_ucb_forced_exploration_before_repeats():
    inst = generate_cs_instance(2, 6, 1, RowDistribution.gaussian(0, 1), seed=1)
    hist, _ = run_policy(
        run_per_user_ucb, inst, UcbConfig(0.5), 400, seed=2, noise=NoiseModel("gaussian", 0.5)
    )
    for u in range(2):
        arms = hist.arms[hist.users == u]
        first_six = arms[:6]
        assert sorted(first_six.tolist()) == list(range(6))


@pytest.mark.xfail(
    reason="measured last-half slope is 0.75 at this scale: each user's horizon "
    "barely covers one pass over 200 arms, so growth is still near-linear",
    strict=False,
)
def test_ucb_regret_slope_in_sqrt_band():
    inst = generate_cs_instance(200, 200, 4, RowDistribution.gaussian(0, 1), seed=7)
    T = 60000
    slopes = []
    for seed in (1, 2, 3, 4, 5):
        hist, _ = run_policy(
            run_per_user_ucb, inst, UcbConfig(0.5), T, seed=seed, noise=NoiseModel("gaussian", 0.5)
        )
        ts = checkpoint_grid(T)
        curve = np.array([regret_at(hist, inst, int(t)) for t in ts])
        keep = ts >= T // 2
        slopes.append(float(np.polyfit(np.log(ts[keep]), np.log(curve[keep]), 1)[0]))
    assert all(0.35 <= s <= 0.7 for s in slopes)


def test_etc_noiseless_zero_commit_regret():
    inst = generate_cs_instance(20, 20, 2, RowDistribution.gaussian(0, 1), seed=3)
    cfg = EtcConfig(sigma=0.0, c_p=2.0, explore_fraction=0.5)
    horizon = 20000
    hist, _ = run_policy(
        run_explore_then_commit, inst, cfg, horizon, seed=1, noise=NoiseModel("none")
    )
    explore = int(0.5 * horizon)
    commit_regret = whole_run(hist, inst).final_regret - regret_at(hist, inst, explore)
    assert commit_regret == pytest.approx(0.0, abs=1e-9)


def test_etc_large_explore_fraction_regret_accounting():
    inst = generate_cs_instance(20, 20, 2, RowDistribution.gaussian(0, 1), seed=3)
    cfg = EtcConfig(sigma=0.0, c_p=2.0, explore_fraction=0.99)
    avg_gap = float(np.mean(inst.P.max(axis=1)[:, None] - inst.P))
    T = 10000
    expected = 0.99 * T * avg_gap
    regrets = []
    for seed in (2, 3, 4):
        hist, _ = run_policy(
            run_explore_then_commit, inst, cfg, T, seed=seed, noise=NoiseModel("none")
        )
        regrets.append(whole_run(hist, inst).final_regret)
    assert np.mean(regrets) >= 0.9 * expected


def test_etc_no_estimate_dependence_before_commit():
    # exploration pulls are identical whatever the rewards are: run on two
    # instances that differ only in P and compare the pulled arms
    dist = RowDistribution.gaussian(0, 1)
    a = generate_cs_instance(10, 10, 2, dist, seed=1)
    b = generate_cs_instance(10, 10, 2, dist, seed=2)
    cfg = EtcConfig(sigma=0.0, c_p=2.0, explore_fraction=0.5)
    T = 6000
    ha, _ = run_policy(run_explore_then_commit, a, cfg, T, seed=9, noise=NoiseModel("none"))
    hb, _ = run_policy(run_explore_then_commit, b, cfg, T, seed=9, noise=NoiseModel("none"))
    explore = int(0.5 * T)
    assert np.array_equal(ha.arms[:explore], hb.arms[:explore])


# sha256 of the final regrets (float.hex, one per line) of horizons 170-259
# below, where one repetition finishes within the budget; recorded before ETC
# committed on the cells averaged so far, and unchanged by it
ETC_FULL_ESTIMATE_DIGEST = "4afbb238a7bfa2bf2075ae555e208ddecc26698af6483785792ef1e4487735a8"


def test_etc_plays_every_horizon_on_what_it_has():
    inst = generate_cs_instance(4, 4, 2, RowDistribution.gaussian(0, 1), seed=3)
    cfg = EtcConfig(sigma=0.2)
    finals = []
    for horizon in range(1, 260):
        hist, _ = run_policy(
            run_explore_then_commit, inst, cfg, horizon, 5, NoiseModel("gaussian", 0.2)
        )
        assert hist.t == horizon
        finals.append(whole_run(hist, inst).final_regret.hex())
        explore = int(cfg.explore_fraction * horizon)
        users, arms = hist.users[explore:horizon], hist.arms[explore:horizon]
        committed = all(len(set(arms[users == u].tolist())) <= 1 for u in range(4))
        # below 170 rounds no repetition finishes: at 100 and 169 rounds some
        # cells were observed, and each user commits to one arm; at 9 nothing
        # is explored, and the pulls stay uniform
        if horizon in (100, 169):
            assert committed
        if horizon == 9:
            assert explore == 0 and not committed
    digest = hashlib.sha256("\n".join(finals[169:]).encode()).hexdigest()
    assert digest == ETC_FULL_ESTIMATE_DIGEST


def test_kmeans_two_separated_clouds():
    rng = np.random.default_rng(0)
    cloud_a = rng.normal(0, 0.05, size=(20, 3))
    cloud_b = rng.normal(0, 0.05, size=(20, 3)) + 10.0
    rows = np.vstack([cloud_a, cloud_b])
    labels = kmeans_elbow(rows, max_k=4, elbow_ratio=0.6, objective_floor=100.0, seed=5)
    assert len(np.unique(labels)) == 2
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[20]


def test_kmeans_identical_rows_single_cluster():
    rows = np.ones((15, 4))
    labels = kmeans_elbow(rows, max_k=4, elbow_ratio=0.6, objective_floor=100.0, seed=0)
    assert len(np.unique(labels)) == 1


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(30, 4))
    a = kmeans_elbow(rows, 3, 0.6, 1.0, seed=11)
    b = kmeans_elbow(rows, 3, 0.6, 1.0, seed=11)
    assert np.array_equal(a, b)


def _kmeans_elbow_every_restart(rows, max_k, elbow_ratio, objective_floor, seed):
    """`kmeans_elbow` as it ran every k = 1 restart, kept as its reference."""
    rows = np.asarray(rows, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    max_k = min(max_k, len(rows))

    def best_of(k):
        best = None
        for _ in range(baselines.KMEANS_RESTARTS):
            labels, obj = baselines._kmeans_once(rows, k, rng)
            if best is None or obj < best[1]:
                best = (labels, obj)
        return best

    labels, obj = best_of(1)
    k = 1
    while k < max_k and obj > objective_floor:
        nxt_labels, nxt_obj = best_of(k + 1)
        if nxt_obj >= elbow_ratio * obj:
            break
        k += 1
        labels, obj = nxt_labels, nxt_obj
    return labels


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    num_rows=st.integers(1, 40),
    width=st.integers(1, 6),
    centres=st.integers(1, 5),
    spread=st.sampled_from([0.0, 0.05, 1.0]),
    max_k=st.integers(1, 4),
    elbow_ratio=st.sampled_from([0.3, 0.6, 0.95]),
    objective_floor=st.sampled_from([0.0, 1.0, 100.0]),
    seed=st.integers(0, 2**16),
)
def test_kmeans_runs_one_k1_restart_and_draws_what_every_restart_drew(
    num_rows, width, centres, spread, max_k, elbow_ratio, objective_floor, seed
):
    rng = np.random.default_rng(seed)
    rows = (rng.normal(0, 5, size=(centres, width))[rng.integers(centres, size=num_rows)]
            + rng.normal(0, spread, size=(num_rows, width)))
    want = _kmeans_elbow_every_restart(rows, max_k, elbow_ratio, objective_floor, seed)
    ks = []
    once = baselines._kmeans_once
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_kmeans_once", lambda r, k, g: ks.append(k) or once(r, k, g))
        got = kmeans_elbow(rows, max_k, elbow_ratio, objective_floor, seed)
    assert got.tolist() == want.tolist()
    # one k = 1 seeding, and every restart of each larger k tried
    assert ks.count(1) == 1
    assert all(ks.count(k) == baselines.KMEANS_RESTARTS for k in set(ks) - {1})


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    # gaussian clouds; rows repeated from a few centres; every row equal; or
    # integer rows and their negatives, whose distances tie exactly
    kind=st.sampled_from(["gaussian", "duplicates", "equal", "integers"]),
    num_rows=st.integers(1, 40),
    width=st.integers(1, 8),
    k=st.integers(1, 5),
    # a scale that no float holds exactly turns exact ties into near ties
    # that only rounding decides; at an offset of 1e8 the scores round by
    # about as much as the distances differ
    scale=st.sampled_from([1.0, 0.1, 1 / 3]),
    offset=st.sampled_from([0.0, 1e3, 1e6, 1e8]),
    seed=st.integers(0, 2**16),
)
@example(kind="duplicates", num_rows=30, width=3, k=4, scale=1.0, offset=0.0, seed=0)
@example(kind="equal", num_rows=12, width=4, k=3, scale=1.0, offset=0.0, seed=1)
@example(kind="integers", num_rows=20, width=2, k=2, scale=1.0, offset=0.0, seed=2)
@example(kind="integers", num_rows=24, width=3, k=3, scale=0.1, offset=1e6, seed=3)
def test_kmeans_once_matches_the_broadcast_reference_bit_for_bit(
    kind, num_rows, width, k, scale, offset, seed
):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        rows = rng.normal(0, 5, size=(k, width))[rng.integers(k, size=num_rows)]
        rows += rng.normal(size=(num_rows, width))
    elif kind == "duplicates":
        rows = rng.normal(0, 5, size=(3, width))[rng.integers(3, size=num_rows)]
    elif kind == "equal":
        rows = np.full((num_rows, width), rng.normal())
    else:
        half = rng.integers(-3, 4, size=((num_rows + 1) // 2, width)).astype(float)
        rows = np.vstack([half, -half])[:num_rows]
    rows = rows * scale + offset
    k = min(k, num_rows)
    labels, objective = baselines._kmeans_once(rows, k, np.random.default_rng(seed))
    want_labels, want_objective = reference_kmeans_once(rows, k, np.random.default_rng(seed))
    assert labels.tolist() == want_labels.tolist()
    assert labels.dtype == want_labels.dtype
    assert objective == want_objective


def test_simplified_config_defaults_match_experiment_settings():
    cfg = SimplifiedConfig(num_clusters=4)
    assert baselines.SIMPLIFIED_ELBOW_RATIO == 0.6
    assert baselines.SIMPLIFIED_OBJECTIVE_FLOOR == 100.0
    assert baselines.SIMPLIFIED_L == 5
    assert baselines.SIMPLIFIED_RHO == 0.5
    assert cfg.schedule(60000)[:3] == [1500, 2000, 2500]
    # the first phase's slack is 1/48 of the largest |reward|
    assert baselines.SIMPLIFIED_NU_SCALE / baselines.SIMPLIFIED_NU_BASE == pytest.approx(1 / 48)
    assert cfg.lam(1800) == pytest.approx(5.0 * np.sqrt(9.0))


# an estimate entry: any finite float, a grid value that ties, a signed zero,
# or None, which the test places exactly nu below its row's other entries
_ESTIMATE_ENTRIES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.none(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    num_rows=st.integers(1, 6),
    width=st.integers(1, 6),
    entries=st.lists(_ESTIMATE_ENTRIES, min_size=36, max_size=36),
    nu=st.floats(1e-20, 1e3),
)
@example(num_rows=1, width=1, entries=[0.0] * 36, nu=1.0)
@example(num_rows=2, width=2, entries=[0.0, -0.0, -0.0, 0.0] * 9, nu=1e-20)
@example(num_rows=1, width=2, entries=[1.0, 0.75] * 18, nu=0.25)
@example(num_rows=2, width=3, entries=[0.0, None, 0.5] * 12, nu=0.5)
@example(num_rows=1, width=3, entries=[None] * 36, nu=1e3)
def test_good_arm_set_at_half_nu_keeps_the_arms_within_nu_of_the_row_best(
    num_rows, width, entries, nu
):
    # run_simplified_lattice keeps good_arm_set(estimate, nu_ell / 2.0), the
    # arms it once kept as |estimate - row max| <= nu_ell
    rows = [entries[i * width:(i + 1) * width] for i in range(num_rows)]
    estimate = np.array([
        [(max([x for x in row if x is not None], default=0.0) - nu) if x is None else x
         for x in row]
        for row in rows
    ])
    want = np.abs(estimate - estimate.max(axis=1, keepdims=True)) <= nu
    assert np.array_equal(lattice.good_arm_set(estimate, nu / 2), want)


def test_simplified_noiseless_single_cluster_collapses_arms():
    inst = generate_cs_instance(10, 8, 1, RowDistribution.gaussian(0, 1), seed=6)
    cfg = SimplifiedConfig(num_clusters=1, phase_base=4000, lam_coeff=0.05)
    with (
        mock.patch.object(baselines, "SIMPLIFIED_NU_SCALE", 0.25),
        mock.patch.object(baselines, "SIMPLIFIED_NU_BASE", 2.0),
    ):
        hist, trace = run_policy(
            run_simplified_lattice, inst, cfg, 4000, seed=2, noise=NoiseModel("none")
        )
    rec = trace.records[0]
    nu1 = float(np.abs(inst.P).max()) * 0.25 / 2.0
    best = inst.P[0].max()
    for arms in rec.arm_sets:
        assert int(inst.best_arm[0]) in arms
        for a in arms:
            assert best - inst.P[0, a] <= nu1 + 0.05


def test_simplified_rho_one_subset_of_rho_half():
    inst = generate_cs_instance(30, 12, 2, RowDistribution.gaussian(0, 1), seed=9)
    noise = NoiseModel("gaussian", 0.3)
    traces = {}
    cfg = SimplifiedConfig(num_clusters=2, phase_base=800, phase_step=200, lam_coeff=1.0)
    for rho in (1.0, 0.5):
        with (
            mock.patch.object(baselines, "SIMPLIFIED_L", 1),
            mock.patch.object(baselines, "SIMPLIFIED_RHO", rho),
            mock.patch.object(baselines, "SIMPLIFIED_NU_SCALE", 0.5),
            mock.patch.object(baselines, "SIMPLIFIED_NU_BASE", 1.5),
        ):
            _, traces[rho] = run_policy(
                run_simplified_lattice, inst, cfg, 8000, seed=4, noise=noise
            )
    for r1, r5 in zip(traces[1.0].records, traces[0.5].records):
        if r1.mode != "shrink":
            continue
        strict_by_set = {tuple(sorted(s)): set(a) for s, a in zip(r1.user_sets, r1.arm_sets)}
        loose_by_set = {tuple(sorted(s)): set(a) for s, a in zip(r5.user_sets, r5.arm_sets)}
        if strict_by_set.keys() != loose_by_set.keys():
            continue  # the runs only pair up while their partitions agree
        for key, strict_arms in strict_by_set.items():
            assert strict_arms <= loose_by_set[key]


@mock.patch.object(baselines, "SIMPLIFIED_L", 2)
def test_simplified_partition_refines_only_during_clustering_phases():
    inst = generate_cs_instance(20, 10, 2, RowDistribution.gaussian(0, 1), seed=2)
    cfg = SimplifiedConfig(num_clusters=2, phase_base=600, phase_step=200, lam_coeff=1.0)
    _, trace = run_policy(
        run_simplified_lattice, inst, cfg, 9000, seed=8, noise=NoiseModel("gaussian", 0.2)
    )
    after_L = [r for r in trace.records if r.phase > baselines.SIMPLIFIED_L]
    for earlier, later in zip(after_L, after_L[1:]):
        assert [sorted(s) for s in earlier.user_sets] == [sorted(s) for s in later.user_sets]


@mock.patch.object(baselines, "SIMPLIFIED_L", 2)
def test_simplified_arm_sets_nonincreasing_on_fixed_branch():
    inst = generate_cs_instance(20, 10, 2, RowDistribution.gaussian(0, 1), seed=2)
    cfg = SimplifiedConfig(num_clusters=2, phase_base=600, phase_step=200, lam_coeff=1.0)
    _, trace = run_policy(
        run_simplified_lattice, inst, cfg, 9000, seed=8, noise=NoiseModel("gaussian", 0.2)
    )
    after_L = [r for r in trace.records if r.phase > baselines.SIMPLIFIED_L]
    for earlier, later in zip(after_L, after_L[1:]):
        prev = {tuple(sorted(s)): set(a) for s, a in zip(earlier.user_sets, earlier.arm_sets)}
        for s, a in zip(later.user_sets, later.arm_sets):
            assert set(a) <= prev[tuple(sorted(s))]


@mock.patch.object(baselines, "SIMPLIFIED_L", 2)
def test_simplified_trace_counts_unconverged_solves(monkeypatch):
    inst = generate_cs_instance(20, 10, 2, RowDistribution.gaussian(0, 1), seed=2)
    cfg = SimplifiedConfig(num_clusters=2, phase_base=600, phase_step=200, lam_coeff=1.0)
    noise = NoiseModel("gaussian", 0.2)
    infos = []
    solve = baselines.solve_nuclear_norm

    def recording_solve(*args, **kwargs):
        estimate, info = solve(*args, **kwargs)
        infos.append(info)
        return estimate, info

    monkeypatch.setattr(baselines, "solve_nuclear_norm", recording_solve)
    _, trace = run_policy(run_simplified_lattice, inst, cfg, 3000, seed=8, noise=noise)
    assert infos and all(info.converged for info in infos)
    assert trace.unconverged_solves == 0

    # one iteration cannot converge from the zero start, so every solve stops
    # at the cap
    infos.clear()
    monkeypatch.setattr(baselines, "SIMPLIFIED_SOLVER_MAX_ITERS", 1)
    _, trace = run_policy(run_simplified_lattice, inst, cfg, 3000, seed=8, noise=noise)
    assert infos and all(info.iterations == 1 and not info.converged for info in infos)
    assert trace.unconverged_solves == len(infos)


def test_phase_sums_from_history_match_a_per_round_loop():
    # run_simplified_lattice accumulates a phase's rewards with np.add.at over
    # the ledger; it must add in round order, exactly as one += per round
    rng = np.random.default_rng(3)
    users, arms = rng.integers(0, 3, 5000), rng.integers(0, 4, 5000)
    rewards = rng.normal(0.0, 1e3, 5000)
    loop = np.zeros((3, 4))
    for u, a, r in zip(users, arms, rewards):
        loop[u, a] += r
    vectorised = np.zeros((3, 4))
    np.add.at(vectorised, (users, arms), rewards)
    assert np.array_equal(vectorised, loop)
