import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterbandits import completion, lattice
from clusterbandits.env import NoiseModel, RowDistribution, generate_cs_instance
from clusterbandits.lattice import (
    GRAPH_BLOCK,
    LatticeConfig,
    UcbArmState,
    build_user_graph,
    good_arm_set,
    refine_partition,
    run_lattice,
)
from helpers import run_policy, ucb_index, whole_run


def test_good_arm_set_hand_case():
    out = good_arm_set(np.array([1.0, 0.9, 0.5]), 0.1)
    assert set(out) == {0, 1}


def test_good_arm_set_zero_slack_singleton():
    out = good_arm_set(np.array([0.3, 0.9, 0.1]), 0.0)
    assert set(out) == {1}


def test_good_arm_set_constant_row_keeps_all():
    out = good_arm_set(np.full(5, 0.42), 0.7)
    assert set(out) == set(range(5))


def test_good_arm_set_always_contains_argmax():
    rng = np.random.default_rng(0)
    for _ in range(50):
        row = rng.normal(size=8)
        out = good_arm_set(row, rng.uniform(0, 1))
        assert int(np.argmax(row)) in out


def test_graph_identical_rows_edge():
    est = np.array([[0.5, 0.1], [0.5, 0.1]])
    goods = [good_arm_set(est[i], 0.05) for i in range(2)]
    adjacency = build_user_graph(est, goods, 0.05)
    assert adjacency.tolist() == [[False, True], [True, False]]


def test_graph_far_rows_no_edge():
    est = np.array([[1.0, 0.0], [0.0, 1.0]])
    goods = [good_arm_set(est[i], 0.1) for i in range(2)]
    adjacency = build_user_graph(est, goods, 0.1)
    assert not adjacency.any()


def test_graph_chain_single_component():
    # A~B and B~C entrywise within 2*delta with overlapping near-best arms,
    # while A and C differ by 3*delta at arm 0
    delta = 0.1
    est = np.array([[1.0, 0.9], [0.85, 0.95], [0.7, 1.0]])
    goods = [good_arm_set(est[i], delta) for i in range(3)]
    adjacency = build_user_graph(est, goods, delta)
    assert adjacency.tolist() == [[False, True, False], [True, False, True], [False, True, False]]
    comps = refine_partition([0, 1, 2], adjacency, [np.array([0, 1])[g] for g in goods])
    assert len(comps) == 1
    assert comps[0][0] == [0, 1, 2]


def _adjacency(n, edges):
    out = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        out[a, b] = out[b, a] = True
    return out


def _arms(*sets):
    return [np.array(sorted(s)) for s in sets]


def _plain(comps):
    return [(c, a.tolist()) for c, a in comps]


def test_refine_edgeless_graph():
    comps = refine_partition([0, 1, 2], _adjacency(3, []), _arms({0}, {1}, {2}))
    assert _plain(comps) == [([0], [0]), ([1], [1]), ([2], [2])]


def test_refine_complete_graph():
    adjacency = _adjacency(3, [(0, 1), (1, 2), (0, 2)])
    comps = refine_partition([0, 1, 2], adjacency, _arms({0, 1}, {1, 2}, {4}))
    assert _plain(comps) == [([0, 1, 2], [0, 1, 2, 4])]


def test_refine_path_union():
    adjacency = _adjacency(3, [(0, 1), (1, 2)])
    comps = refine_partition([0, 1, 2], adjacency, _arms({0, 1}, {1, 2}, {2, 3}))
    assert _plain(comps) == [([0, 1, 2], [0, 1, 2, 3])]


def test_refine_orders_components_by_smallest_member_id():
    # users 8 and 3 are linked, 5 stands alone: components come as [3, 8], [5]
    adjacency = _adjacency(3, [(0, 2)])
    comps = refine_partition([8, 5, 3], adjacency, _arms({2}, {1}, {0}))
    assert _plain(comps) == [([3, 8], [0, 2]), ([5], [1])]


def test_ucb_index_unplayed_is_infinite():
    state = UcbArmState([0, 1], sigma=1.0, horizon=100)
    assert ucb_index(state, 0) == math.inf


def test_ucb_index_formula():
    # horizon e makes log T = 1: index = 0.5 + sqrt(6/6) = 1.5
    state = UcbArmState([0], sigma=1.0, horizon=math.e)
    for _ in range(6):
        assert state.select() == 0
        state.update(0.5)
    assert ucb_index(state, 0) == pytest.approx(1.5, abs=1e-12)


def test_ucb_zero_sigma_is_greedy():
    state = UcbArmState([0, 1], sigma=0.0, horizon=1000)
    for arm, reward in [(0, 0.9), (1, 0.2)]:
        assert state.select() == arm
        state.update(reward)
    assert ucb_index(state, 0) == pytest.approx(0.9)
    assert state.select() == 0


def test_ucb_each_arm_once_before_any_twice():
    state = UcbArmState([3, 1, 5], sigma=0.5, horizon=100)
    picks = []
    for _ in range(3):
        arm = state.select()
        picks.append(arm)
        state.update(0.0)
    assert sorted(picks) == [1, 3, 5]


def test_ucb_tie_breaks_to_lowest_index():
    state = UcbArmState([2, 4], sigma=0.0, horizon=50)
    for arm in (2, 4):
        assert state.select() == arm
        state.update(0.7)
    assert state.select() == 2


class _RecomputeUcb:
    """Reference UCB that recomputes every arm's index on every select, as
    `UcbArmState` did before it cached indices; the bit-identity oracle."""

    def __init__(self, arms, sigma, horizon):
        self.arms = np.sort(np.asarray(arms, dtype=int))
        self.sigma = float(sigma)
        self.counts = np.zeros(len(self.arms), dtype=np.int64)
        self.sums = np.zeros(len(self.arms))
        self._log_horizon = math.log(float(horizon))

    def _position(self, arm):
        pos = int(np.searchsorted(self.arms, arm))
        if pos >= len(self.arms) or self.arms[pos] != arm:
            raise KeyError(f"arm {arm} not tracked")
        return pos

    def index_of(self, arm):
        pos = self._position(arm)
        if self.counts[pos] == 0:
            return math.inf
        mean = self.sums[pos] / self.counts[pos]
        return float(mean + self.sigma * math.sqrt(6.0 * self._log_horizon / self.counts[pos]))

    def select(self):
        unplayed = np.flatnonzero(self.counts == 0)
        if len(unplayed):
            return int(self.arms[unplayed[0]])
        means = self.sums / self.counts
        bonus = self.sigma * np.sqrt(6.0 * self._log_horizon / self.counts)
        return int(self.arms[np.argmax(means + bonus)])

    def update(self, arm, reward):
        pos = self._position(arm)
        self.counts[pos] += 1
        self.sums[pos] += reward


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    # unsorted and non-contiguous, down to a single arm
    arms=st.lists(st.integers(0, 40), min_size=1, max_size=10, unique=True),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    horizon=st.one_of(st.integers(2, 10**7), st.floats(2.0, 1e7)),
    # a few repeated values force exact index ties; free floats do not
    rewards=st.one_of(
        st.lists(st.sampled_from([0.0, 0.5, -1.0]), min_size=1, max_size=60),
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=60),
    ),
)
def test_ucb_cached_index_matches_recompute_reference(arms, sigma, horizon, rewards):
    state = UcbArmState(arms, sigma, horizon)
    ref = _RecomputeUcb(arms, sigma, horizon)
    for reward in rewards:
        arm = state.select()
        assert arm == ref.select()
        state.update(np.float64(reward))
        ref.update(arm, np.float64(reward))
        for a in arms:
            assert ucb_index(state, a) == ref.index_of(a)
    untracked = [a for a in range(-1, 42) if a not in arms]
    for a in untracked[:: max(1, len(untracked) // 5)]:
        with pytest.raises(KeyError):
            ucb_index(state, a)


def _boolean_overlap_graph(estimates, good_sets, delta, slack_multiplier=2.0):
    """`build_user_graph` with the near-best overlap as a boolean matrix product."""
    good = np.zeros(estimates.shape, dtype=bool)
    for i, g in enumerate(good_sets):
        good[i, g] = True
    diff = np.abs(estimates[:, None, :] - estimates[None, :, :]).max(axis=2)
    adjacency = (diff <= slack_multiplier * delta) & (good @ good.T)
    np.fill_diagonal(adjacency, False)
    return adjacency


# widths around the graph's column block: one partial block, exact blocks,
# and a partial block after several full ones
_GRAPH_WIDTHS = [1, GRAPH_BLOCK - 1, GRAPH_BLOCK, GRAPH_BLOCK + 1, 3 * GRAPH_BLOCK + 5]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    num_users=st.integers(1, 40),
    num_arms=st.sampled_from(_GRAPH_WIDTHS),
    density=st.floats(0.0, 0.6),
    delta=st.sampled_from([0.0, 0.05, 0.1, 0.25, 1.0, 10.0]),
    all_close=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_users=1, num_arms=GRAPH_BLOCK + 1, density=0.5, delta=0.1, all_close=False, seed=0)
@example(num_users=30, num_arms=3 * GRAPH_BLOCK + 5, density=0.6, delta=0.0, all_close=True, seed=1)
def test_graph_matches_boolean_overlap_reference(
    num_users, num_arms, density, delta, all_close, seed
):
    rng = np.random.default_rng(seed)
    # one decimal: many pairs sit exactly on the 2*delta threshold
    est = rng.normal(size=(num_users, num_arms)).round(1)
    if all_close:
        # identical rows: every overlapping pair survives every column block
        est[:] = est[0]
    goods = [np.flatnonzero(rng.random(num_arms) < density) for _ in range(num_users)]
    adjacency = build_user_graph(est, goods, delta)
    assert adjacency.dtype == bool
    assert np.array_equal(adjacency, _boolean_overlap_graph(est, goods, delta))


@pytest.mark.parametrize("num_arms", _GRAPH_WIDTHS)
def test_graph_checks_every_column(num_arms):
    # two rows that differ in one column only, by 2*delta exactly (linked)
    # or by more (not linked), for every column position
    goods = [np.arange(num_arms)] * 2
    for col in range(num_arms):
        for gap, linked in ((0.2, True), (0.3, False)):
            est = np.zeros((2, num_arms))
            est[1, col] = gap
            assert build_user_graph(est, goods, 0.1)[0, 1] == linked


def test_graph_peak_memory_at_400_users():
    rng = np.random.default_rng(7)
    # one-decimal rows from 2 centres: about half of the pairs are linked,
    # so many survive every column block, in every chunk of pairs
    est = rng.normal(size=(2, 400)).round(1)[rng.integers(2, size=400)]
    goods = [np.flatnonzero(rng.random(400) < 0.3) for _ in range(400)]
    tracemalloc.start()
    try:
        adjacency = build_user_graph(est, goods, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full n x n x m broadcast would take 65 MB here
    assert peak <= 16 * 2**20
    # row-at-a-time reference: the pair list spans several chunks
    good = np.zeros(est.shape, dtype=bool)
    for i, g in enumerate(goods):
        good[i, g] = True
    close = np.array([np.abs(est[i] - est).max(axis=1) <= 0.2 for i in range(400)])
    expected = close & (good @ good.T)
    np.fill_diagonal(expected, False)
    assert np.array_equal(adjacency, expected)


def _noiseless_run(seed=3):
    inst = generate_cs_instance(4, 4, 1, RowDistribution.gaussian(0, 1), seed=seed)
    cfg = LatticeConfig(
        num_clusters=1, sigma=0.0, c_prime_override=0.2, c_p=2.0, f_cap=1
    )
    hist, trace = run_policy(run_lattice, inst, cfg, 4000, seed=11, noise=NoiseModel("none"))
    return inst, hist, trace


def test_lattice_noiseless_single_cluster_regret_bound():
    inst, hist, trace = _noiseless_run()
    first = trace.records[0]
    delta2 = 0.1  # c_prime_override * 2^-1
    # exact estimates: every surviving arm is within 2*delta of the optimum
    best = inst.P[0].max()
    for arms in first.arm_sets:
        assert int(inst.best_arm[0]) in arms
        for a in arms:
            assert best - inst.P[0, a] <= 2 * delta2 + 1e-6
    after = first.rounds_used
    assert np.all(whole_run(hist, inst).inst_regret[after:] <= 2 * delta2 + 1e-6)


def test_lattice_round_accounting_exact():
    inst = generate_cs_instance(12, 8, 2, RowDistribution.gaussian(0, 1), seed=5)
    cfg = LatticeConfig(num_clusters=2, sigma=0.2, c_prime_override=0.5, f_cap=1)
    hist, trace = run_policy(
        run_lattice, inst, cfg, 3000, seed=4, noise=NoiseModel("gaussian", 0.2)
    )
    assert hist.t == 3000
    assert sum(r.rounds_used for r in trace.records) == 3000


def test_lattice_partition_valid_every_phase():
    inst = generate_cs_instance(12, 8, 2, RowDistribution.gaussian(0, 1), seed=5)
    cfg = LatticeConfig(num_clusters=2, sigma=0.2, c_prime_override=0.5, f_cap=1)
    _, trace = run_policy(run_lattice, inst, cfg, 5000, seed=9, noise=NoiseModel("gaussian", 0.2))
    for r in trace.records:
        users = sorted(u for s in r.user_sets for u in s)
        assert users == list(range(12))


def test_lattice_arm_sets_shrink_per_user():
    inst = generate_cs_instance(12, 10, 3, RowDistribution.gaussian(0, 1), seed=8)
    cfg = LatticeConfig(num_clusters=3, sigma=0.0, c_prime_override=0.4, c_p=2.0, f_cap=1)
    hist, trace = run_policy(run_lattice, inst, cfg, 6000, seed=2, noise=NoiseModel("none"))
    prev: dict[int, set[int]] = {u: set(range(10)) for u in range(12)}
    gaps = inst.X.max(axis=1)[:, None] - inst.X
    worst_prev = {u: max(gaps[inst.cluster_of[u]]) for u in range(12)}
    for r in trace.records:
        for s, arms in zip(r.user_sets, r.arm_sets):
            for u in s:
                cur = set(arms)
                assert cur <= prev[u]
                worst = max(
                    inst.P[u, inst.best_arm[u]] - inst.P[u, a] for a in cur
                )
                assert worst <= worst_prev[u] + 1e-9
                prev[u] = cur
                worst_prev[u] = worst


def test_lattice_refine_that_adds_an_arm_is_an_error(monkeypatch):
    # phase 1 leaves the first set 15 of the 16 arms; phase 2 refines it
    inst = generate_cs_instance(20, 16, 2, RowDistribution.gaussian(0, 1), seed=1)
    cfg = LatticeConfig(num_clusters=2, sigma=0.2, c_prime_override=1.0, f_cap=1)
    refine = lattice._PhasedRun._refine

    def refine_adding_an_arm(self, user_sets, arm_sets, *args, **kwargs):
        new_users, new_arms, err = refine(self, user_sets, arm_sets, *args, **kwargs)
        # the first new set takes its users from the first set
        missing = np.setdiff1d(np.arange(inst.num_arms), arm_sets[0])
        if len(missing):
            new_arms[0] = np.union1d(new_arms[0], missing[:1])
        return new_users, new_arms, err

    monkeypatch.setattr(lattice._PhasedRun, "_refine", refine_adding_an_arm)
    with pytest.raises(RuntimeError, match="arm sets must only shrink"):
        run_policy(run_lattice, inst, cfg, 20000, seed=3, noise=NoiseModel("gaussian", 0.2))


def test_lattice_trace_counts_unconverged_block_solves(monkeypatch):
    inst = generate_cs_instance(15, 10, 3, RowDistribution.gaussian(0, 1), seed=21)
    cfg = LatticeConfig(num_clusters=3, sigma=0.2, c_prime_override=1.0, f_cap=1)
    noise = NoiseModel("gaussian", 0.2)
    infos = []
    solve = completion.solve_nuclear_norm

    def recording_solve(*args, **kwargs):
        estimate, info = solve(*args, **kwargs)
        # the first block solve reports that it hit its cap, whatever it reached
        if not infos:
            info = dataclasses.replace(info, converged=False)
        infos.append(info)
        return estimate, info

    monkeypatch.setattr(completion, "solve_nuclear_norm", recording_solve)
    _, trace = run_policy(run_lattice, inst, cfg, 20000, seed=3, noise=noise)
    assert len(infos) > 1 and all(info.converged for info in infos[1:])
    assert trace.unconverged_solves == 1


def test_lattice_exact_clusters_one_phase():
    inst = generate_cs_instance(15, 10, 3, RowDistribution.gaussian(0, 1), seed=21)
    min_cross = min(
        np.max(np.abs(inst.X[c] - inst.X[d]))
        for c in range(3)
        for d in range(c + 1, 3)
    )
    cfg = LatticeConfig(
        num_clusters=3,
        sigma=0.0,
        c_prime_override=0.9 * min_cross,
        c_p=2.0,
        f_cap=1,
    )
    _, trace = run_policy(run_lattice, inst, cfg, 20000, seed=0, noise=NoiseModel("none"))
    found = sorted(tuple(sorted(s)) for s in trace.records[0].user_sets)
    truth = sorted(
        tuple(sorted(np.flatnonzero(inst.cluster_of == c).tolist())) for c in range(3)
    )
    assert found == truth


def test_lattice_determinism():
    inst = generate_cs_instance(10, 8, 2, RowDistribution.gaussian(0, 1), seed=1)
    cfg = LatticeConfig(num_clusters=2, sigma=0.3, c_prime_override=0.5, f_cap=1)
    a, _ = run_policy(run_lattice, inst, cfg, 2500, seed=77, noise=NoiseModel("gaussian", 0.3))
    b, _ = run_policy(run_lattice, inst, cfg, 2500, seed=77, noise=NoiseModel("gaussian", 0.3))
    assert np.array_equal(a.arms, b.arms)
    assert np.array_equal(a.rewards, b.rewards)


def test_lattice_tiny_horizon_graceful():
    inst = generate_cs_instance(6, 6, 2, RowDistribution.gaussian(0, 1), seed=2)
    cfg = LatticeConfig(num_clusters=2, sigma=0.1, c_prime_override=0.5, f_cap=1)
    hist, trace = run_policy(run_lattice, inst, cfg, 25, seed=3, noise=NoiseModel("gaussian", 0.1))
    assert hist.t == 25
    worst_gap = (inst.X.max(axis=1)[:, None] - inst.X).max()
    assert whole_run(hist, inst).final_regret <= 25 * worst_gap + 1e-9


def test_endgame_commits_each_user_to_its_last_estimated_best_arm(monkeypatch):
    # with the endgame at 90 % of the horizon, the phase after the first
    # refine (at round 197 of 1,000) starts no oracle: every set still large
    # enough for one commits its users greedily on their last estimated rows
    monkeypatch.setattr(lattice, "ENDGAME_FRACTION", 0.9)
    oracle_starts, rows = [], {}
    make_instance, refine = lattice._PhasedRun._make_instance, lattice._PhasedRun._refine

    def recording_make_instance(self, *args):
        oracle_starts.append(self.env.t)
        return make_instance(self, *args)

    def recording_refine(self, *args, **kwargs):
        out = refine(self, *args, **kwargs)
        rows.update(self.latest_row)
        return out

    monkeypatch.setattr(lattice._PhasedRun, "_make_instance", recording_make_instance)
    monkeypatch.setattr(lattice._PhasedRun, "_refine", recording_refine)
    inst = generate_cs_instance(10, 12, 2, RowDistribution.gaussian(0, 1), seed=1)
    cfg = LatticeConfig(num_clusters=2, sigma=0.0, gamma=1, c_prime_override=1.0, c_p=2.0, f_cap=1)
    hist, trace = run_policy(run_lattice, inst, cfg, 1000, seed=4, noise=NoiseModel("none"))
    first, last = trace.records
    assert oracle_starts == [0]  # the bootstrap oracle only
    assert last.mode == "ucb" and first.rounds_used + last.rounds_used == 1000
    assert first.rounds_used > 0.1 * 1000
    # both sets kept at least gamma * C = 2 arms, and one lost some
    assert sorted(map(len, first.arm_sets)) == [3, 10]
    want = {}
    for users, arms in zip(first.user_sets, first.arm_sets):
        for u in users:
            cur_arms, row = rows[u]
            live = np.isin(cur_arms, arms)
            want[u] = int(cur_arms[live][np.argmax(row[live])])
    played = hist.arms[first.rounds_used :]
    assert played.tolist() == [want[u] for u in hist.users[first.rounds_used :].tolist()]
