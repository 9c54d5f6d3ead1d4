import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from clusterbandits import bench
from clusterbandits.env import (
    CLOSE_CHUNK,
    NOISE_KINDS,
    RCS_SEPARATION_FACTOR,
    ArmOutOfRangeError,
    Environment,
    Instance,
    InvalidDimensionsError,
    InvalidEpsilonError,
    NoiseModel,
    RowDistribution,
    SeparationUnsatisfiableError,
    check_nu,
    generate_cs_instance,
    generate_hard_instance,
    generate_rcs_instance,
    load_instance,
    save_instance,
    seed_sequence,
)
from clusterbandits.completion import OracleInstance, OracleParams
from clusterbandits.lattice import UcbArmState, UcbTable
from helpers import ClosedRegret, PerRoundOracle, noisy_reward, ucb_index, whole_run


def validate_instance(instance, atol=1e-12):
    """Check the structural invariants; raises AssertionError on violation."""
    inst = instance
    assert inst.P.shape == (inst.num_users, inst.num_arms)
    assert inst.X.shape == (inst.num_clusters, inst.num_arms)
    assert np.all((inst.cluster_of >= 0) & (inst.cluster_of < inst.num_clusters))
    assert np.array_equal(inst.best_arm, np.argmax(inst.P, axis=1))
    assert np.all(inst.X.max(axis=1)[:, None] - inst.X >= -atol)
    if inst.nu == 0:
        assert np.allclose(inst.P, inst.X[inst.cluster_of], atol=atol)
        return
    # relaxed structure: same best arm and entrywise closeness within clusters,
    # best-arm separation across clusters
    thresh = RCS_SEPARATION_FACTOR * inst.nu
    for u in range(inst.num_users):
        for v in range(u + 1, inst.num_users):
            if inst.cluster_of[u] == inst.cluster_of[v]:
                assert inst.best_arm[u] == inst.best_arm[v]
                assert np.max(np.abs(inst.P[u] - inst.P[v])) <= inst.nu + atol
            else:
                bu, bv = inst.best_arm[u], inst.best_arm[v]
                sep_u = abs(inst.P[u, bu] - inst.P[v, bu])
                sep_v = abs(inst.P[u, bv] - inst.P[v, bv])
                assert sep_u > thresh or sep_v > thresh


def test_cs_benchmark_scale_shape_and_clusters():
    inst = generate_cs_instance(200, 200, 4, RowDistribution.gaussian(0, 1), seed=7)
    assert inst.P.shape == (200, 200)
    # 4 distinct rows, each cluster of size 50
    assert len({tuple(row) for row in inst.P}) == 4
    sizes = np.bincount(inst.cluster_of)
    assert list(sizes) == [50, 50, 50, 50]
    validate_instance(inst)


def test_cs_degenerate_uniform_all_ones():
    inst = generate_cs_instance(3, 2, 1, RowDistribution.uniform(1, 1), seed=0)
    assert np.array_equal(inst.P, np.ones((3, 2)))
    assert np.all(inst.cluster_of == 0)


def test_cs_rank_matches_cluster_count():
    inst = generate_cs_instance(8, 5, 2, RowDistribution.gaussian(0, 1), seed=42)
    # independent SVD oracle: count singular values above 1e-9
    svals = np.linalg.svd(inst.P, compute_uv=False)
    assert int(np.sum(svals > 1e-9)) == 2


def test_cs_invalid_dimensions():
    with pytest.raises(InvalidDimensionsError):
        generate_cs_instance(3, 2, 4, RowDistribution.gaussian(0, 1), seed=0)
    with pytest.raises(InvalidDimensionsError):
        generate_cs_instance(0, 2, 1, RowDistribution.gaussian(0, 1), seed=0)


def test_rcs_nu_zero_equals_cs():
    dist = RowDistribution.gaussian(0, 1)
    a = generate_rcs_instance(6, 4, 2, 0.0, dist, seed=5)
    b = generate_cs_instance(6, 4, 2, dist, seed=5)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.cluster_of, b.cluster_of)


def test_rcs_invariants_hold():
    inst = generate_rcs_instance(6, 4, 2, 0.01, RowDistribution.gaussian(0, 1), seed=3)
    validate_instance(inst)
    assert inst.nu == 0.01


def test_rcs_separation_unsatisfiable():
    # 20*nu = 200 dwarfs the achievable range of N(0, 0.1) rows
    with pytest.raises(SeparationUnsatisfiableError):
        generate_rcs_instance(4, 2, 2, 10.0, RowDistribution.gaussian(0, 0.1), seed=1)


def test_hard_instance_reward_table():
    inst = generate_hard_instance(4, 3, 2, 0.2, [0, 2], seed=0)
    expected = np.array([[0.6, 0.4, 0.4], [0.4, 0.4, 0.6]])
    assert np.allclose(inst.X, expected)
    assert inst.default_noise.kind == "bernoulli-reward"


def test_hard_instance_single_arm_zero_regret():
    inst = generate_hard_instance(3, 1, 1, 0.5, [0], seed=0)
    assert np.allclose(inst.X, [[0.75]])
    env = Environment(inst, NoiseModel("none"), seed=0, horizon=50)
    while env.t < env.horizon:
        env.play(0)
    assert whole_run(env, inst).final_regret == 0.0


def test_hard_instance_shared_best_arm_gaps():
    inst = generate_hard_instance(6, 5, 3, 0.1, [0, 0, 0], seed=0)
    gaps = inst.X.max(axis=1)[:, None] - inst.X
    for c in range(3):
        assert gaps[c, 0] == 0.0
        assert np.allclose(gaps[c, 1:], 0.1)


def test_hard_instance_invalid_epsilon():
    for eps in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(InvalidEpsilonError):
            generate_hard_instance(2, 2, 1, eps, [0], seed=0)


def test_env_step_optimal_policy_zero_regret():
    inst = generate_cs_instance(4, 3, 2, RowDistribution.gaussian(0, 1), seed=1)
    env = Environment(inst, NoiseModel("none"), seed=0, horizon=20)
    best = dict(enumerate(inst.best_arm.tolist()))
    env.run(env.horizon, [list(range(4))], [np.arange(3)], None, fixed=best)
    whole = whole_run(env, inst)
    assert whole.final_regret == 0.0
    assert np.all(whole.inst_regret[:20] == 0.0)


def test_env_step_worst_policy_matches_hand_sum():
    inst = generate_cs_instance(2, 2, 2, RowDistribution.gaussian(0, 1), seed=9)
    worst = np.argmin(inst.P, axis=1)
    env = Environment(inst, NoiseModel("none"), seed=123, horizon=10)
    # arrivals do not depend on the arms played: a twin run on the same seed
    # announces each round's user before `env` plays it
    twin = Environment(inst, NoiseModel("none"), seed=123, horizon=10)
    arrivals = []
    while env.t < env.horizon:
        arrivals.append(twin.play(0)[0])
        env.play(int(worst[arrivals[-1]]))
    # oracle: sum the per-user max gaps over the arrival sequence
    assert arrivals == env.users.tolist()
    expected = sum(inst.P[u].max() - inst.P[u].min() for u in arrivals)
    assert whole_run(env, inst).final_regret == pytest.approx(expected, abs=1e-12)


def test_env_reward_mean_concentrates():
    inst = generate_cs_instance(2, 2, 1, RowDistribution.uniform(0.3, 0.3), seed=0)
    n = 10**5
    env = Environment(inst, NoiseModel("gaussian", 0.5), seed=77, horizon=n)
    while env.t < env.horizon:
        env.play(1)
    mean = env.rewards.mean()
    assert abs(mean - 0.3) <= 3 * 0.5 / math.sqrt(n)


def test_policy_arm_out_of_range():
    inst = generate_cs_instance(2, 2, 1, RowDistribution.gaussian(0, 1), seed=0)
    env = Environment(inst, NoiseModel("none"), seed=0, horizon=5)
    with pytest.raises(ArmOutOfRangeError):
        env.step(lambda u: 2)


class _StubOracle:
    """Asks for `pulls` masked pulls of `arm`, then stops collecting.  It
    speaks both protocols: `choose`/`record` one round at a time, and
    `serve`/`credit` a block at a time, built on them."""

    def __init__(self, arm, pulls):
        self.arm = arm
        self.left = pulls
        self.recorded = 0
        self.serves = 0
        self.credited = []

    @property
    def collecting(self):
        return self.left > 0

    def choose(self, user):
        return self.arm, True

    def record(self, user, arm, reward):
        self.left -= 1
        self.recorded += 1

    def serve(self, users):
        self.serves += 1
        arms = []
        for u in users.tolist():
            if self.left <= 0:
                break
            arm, masked = self.choose(u)
            if masked:
                self.record(u, arm, None)
            arms.append(arm)
        self.pending = len(arms)
        return np.array(arms, dtype=np.int64)

    def credit(self, rewards):
        assert len(rewards) == self.pending
        self.credited.append(rewards.copy())


class _StubUcb:
    """Tracks two arms, so `Environment.run` calls it, and always selects `arm`."""

    def __init__(self, arm):
        self.arm = arm
        self.arms = [arm, arm + 1]
        self.updates = 0

    def select(self):
        return self.arm

    def update(self, reward):
        self.updates += 1


def _run_env(horizon):
    inst = generate_cs_instance(4, 6, 2, RowDistribution.gaussian(0, 1), seed=1)
    return Environment(inst, NoiseModel("none"), seed=0, horizon=horizon)


def test_env_run_stops_at_end_and_at_horizon():
    env = _run_env(100)
    rng = np.random.default_rng(0)
    env.run(30, [range(4)], [np.arange(6)], rng)
    assert env.t == 30
    env.run(500, [range(4)], [np.arange(6)], rng)
    assert env.t == 100


def test_env_run_stops_when_last_oracle_finishes():
    env = _run_env(1000)
    first, second = _StubOracle(1, 3), _StubOracle(2, 5)
    user_sets, arm_sets = [[0, 1], [2, 3]], [np.array([0]), np.array([0])]
    env.run(1000, user_sets, arm_sets, np.random.default_rng(0), oracles=[first, second])
    arms = env.arms[: env.t]
    assert first.recorded == 3 and second.recorded == 5
    assert np.sum(arms == 1) == 3 and np.sum(arms == 2) == 5
    assert arms[-1] in (1, 2)  # the run ends on the last mask pull
    # no oracle collecting: nothing to wait for
    env.run(1000, user_sets, arm_sets, None, oracles=[first, None])
    assert env.t == len(arms)


class _CountingOracle(_StubOracle):
    """A _StubOracle whose every other pull is unmasked, counting the reads
    of `collecting`."""

    def __init__(self, arm, pulls):
        super().__init__(arm, pulls)
        self.reads = self.chosen = 0

    @property
    def collecting(self):
        self.reads += 1
        return self.left > 0

    def choose(self, user):
        self.chosen += 1
        return self.arm, self.chosen % 2 == 0


def test_env_run_reads_collecting_once_per_record():
    # about 6k and 10k rounds of collecting: the oracles span three blocks
    env = _run_env(4 * CLOSE_CHUNK)
    first, second = _CountingOracle(1, 1500), _CountingOracle(2, 2500)
    user_sets, arm_sets = [[0, 1], [2, 3]], [np.array([0]), np.array([0])]
    env.run(env.horizon, user_sets, arm_sets, np.random.default_rng(0), oracles=[first, second])
    assert (first.recorded, second.recorded) == (1500, 2500)
    assert first.chosen == 3000 and second.chosen == 5000
    assert -(-env.t // CLOSE_CHUNK) == 3
    stops = []
    for oracle, users in zip((first, second), user_sets):
        # every round of its set's users, up to the one that completed it
        rounds = np.flatnonzero(np.isin(env.users[: env.t], users))[: oracle.chosen]
        stops.append(int(rounds[-1]) + 1)
        # served once per block while collecting; `collecting` read on
        # entry and after each serve
        assert oracle.serves == -(-stops[-1] // CLOSE_CHUNK)
        assert oracle.reads == oracle.serves + 1
        # credited exactly the rewards of the rounds it served, in order
        assert np.concatenate(oracle.credited).tobytes() == env.rewards[rounds].tobytes()
        assert (env.arms[rounds] == oracle.arm).all()
    # the run ends with the round that completed the last oracle
    assert env.t == max(stops)


def test_env_run_serves_oracle_then_ucb_then_fixed_then_uniform():
    env = _run_env(400)
    user_sets, arm_sets = [[0, 1, 2], [3]], [np.array([4]), np.array([5])]
    ucb = {0: _StubUcb(2), 3: _StubUcb(2)}
    fixed = {0: 3, 1: 3}
    rng = np.random.default_rng(0)
    oracles = [_StubOracle(1, 10**6), None]
    env.run(200, user_sets, arm_sets, rng, oracles=oracles, ucb=ucb, fixed=fixed)
    env.run(400, user_sets, arm_sets, rng, ucb=ucb, fixed=fixed)
    users, arms = env.users, env.arms
    expected_collecting = {0: 1, 1: 1, 2: 1, 3: 2}
    expected_after = {0: 2, 1: 3, 2: 4, 3: 2}
    assert [int(a) for a in arms[:200]] == [expected_collecting[u] for u in users[:200]]
    assert [int(a) for a in arms[200:]] == [expected_after[u] for u in users[200:]]
    assert ucb[0].updates == np.sum(users[200:] == 0)
    assert ucb[3].updates == np.sum(users == 3)


class _UncalledUcb(UcbArmState):
    def select(self):
        raise AssertionError("a UCB state over one arm is called")

    def update(self, reward):
        raise AssertionError("a UCB state over one arm is called")


@pytest.mark.parametrize("collect", [False, True], ids=["no-oracles", "oracles"])
def test_env_run_plays_a_one_arm_ucb_state_without_calling_it(collect):
    inst = generate_cs_instance(4, 6, 2, RowDistribution.gaussian(0, 1), seed=1)
    horizon = 2 * CLOSE_CHUNK + 3
    user_sets, arm_sets = [[0, 1], [2, 3]], [np.array([0, 5]), np.array([1, 2, 4])]
    outcomes = []
    for driver, one_arm in ((_per_round_run, UcbArmState), (Environment.run, _UncalledUcb)):
        env = Environment(inst, NoiseModel("gaussian", 0.5), seed=0, horizon=horizon)
        rng = np.random.default_rng(1)
        # users 0 and 2 are down to one arm; user 3's state still chooses
        ucb = {
            0: one_arm([5], 0.5, horizon), 2: one_arm([4], 0.5, horizon),
            3: UcbArmState(arm_sets[1], 0.5, horizon),
        }
        fixed = {0: 3, 1: 0}
        if collect:
            oracles = [_StubOracle(1, 50), _StubOracle(2, 3000)]
            driver(env, horizon, user_sets, arm_sets, rng, oracles=oracles, ucb=ucb, fixed=fixed)
        stopped = env.t
        driver(env, horizon, user_sets, arm_sets, rng, ucb=ucb, fixed=fixed)
        outcomes.append(
            (stopped, env.t, env.arms.tolist(), env.rewards.tobytes(), rng.bit_generator.state)
        )
    assert outcomes[0] == outcomes[1]
    stopped, _, arms, _, _ = outcomes[1]
    assert (0 < stopped < horizon) == collect
    users = env.users[stopped:]
    arms = np.array(arms[stopped:])
    assert (arms[users == 0] == 5).all() and (arms[users == 2] == 4).all()
    assert (users == 0).any() and (users == 2).any()


@pytest.mark.parametrize("arm", [6, -1])
def test_env_run_rejects_a_one_arm_ucb_state_over_an_out_of_range_arm(arm):
    for ucb, fixed in (({0: UcbArmState([arm], 0.5, 100)}, None), (None, {0: arm})):
        env = _run_env(100)
        with pytest.raises(ArmOutOfRangeError):
            env.run(100, [range(4)], [np.arange(6)], np.random.default_rng(0), ucb=ucb, fixed=fixed)
        # the plan is checked before its block plays a round
        assert env.t == 0


def test_run_determinism_bit_identical():
    inst = generate_cs_instance(5, 4, 2, RowDistribution.gaussian(0, 1), seed=3)
    outs = []
    for _ in range(2):
        env = Environment(inst, NoiseModel("gaussian", 0.3), seed=42, horizon=500)
        rng = np.random.default_rng(7)
        while env.t < env.horizon:
            env.play(int(rng.integers(0, 4)))
        outs.append(env)
    a, b = outs
    assert np.array_equal(a.users[:500], b.users[:500])
    assert np.array_equal(a.arms[:500], b.arms[:500])
    assert np.array_equal(a.rewards[:500], b.rewards[:500])
    assert np.array_equal(
        whole_run(a, inst).cumulative_regret[:500], whole_run(b, inst).cumulative_regret[:500]
    )


def _per_round_run(env, end, user_sets, arm_sets, rng, oracles=None, ucb=None, fixed=None):
    """The per-round driver `Environment.run` replaced, kept as its reference:
    one role lookup and, for a uniform pull, one `rng.integers` call per round."""
    set_of = [0] * env.num_users
    for i, us in enumerate(user_sets):
        for u in us:
            set_of[u] = i
    given = oracles is not None
    oracles = oracles or [None] * len(user_sets)
    collecting = [o is not None and o.collecting for o in oracles]
    # None (no oracles) never reaches 0, so only `end` stops the run
    waiting = sum(collecting) if given else None
    ucb = ucb or {}
    fixed = fixed or {}
    end = min(end, env.horizon)
    arrivals = env.users
    while env.t < end and waiting != 0:
        u = int(arrivals[env.t])
        i = set_of[u]
        if collecting[i]:
            oracle = oracles[i]
            arm, masked = oracle.choose(u)
            _, _, reward = env.play(arm)
            if masked:
                oracle.record(u, arm, reward)
                if not oracle.collecting:
                    collecting[i] = False
                    waiting -= 1
        elif u in ucb:
            state = ucb[u]
            _, _, reward = env.play(state.select())
            state.update(reward)
        elif u in fixed:
            env.play(fixed[u])
        else:
            arms = arm_sets[i]
            env.play(int(arms[rng.integers(len(arms))]))


class _PeriodicOracle(_StubOracle):
    """Cycles through `arms`, masks every `period`-th pull, and stops
    collecting after `pulls` records."""

    def __init__(self, arms, pulls, period):
        super().__init__(None, pulls)
        self.arms, self.period = arms, period
        self.chosen = 0

    def choose(self, user):
        self.chosen += 1
        return int(self.arms[self.chosen % len(self.arms)]), self.chosen % self.period == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    num_arms=st.integers(1, 6),
    labels=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    arm_picks=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), min_size=4, max_size=4),
    roles=st.lists(st.sampled_from("uf-"), min_size=8, max_size=8),
    oracle_specs=st.one_of(
        st.none(),
        st.lists(
            st.one_of(st.none(), st.tuples(st.integers(0, 60), st.integers(1, 3))),
            min_size=4, max_size=4,
        ),
    ),
    horizon=st.integers(1, 400),
    end_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
# three blocks: one oracle stops in the first, one in the second, and
# uniform users of both sets take over their rounds
@example(
    num_arms=3, labels=[0, 1, 1, 2, 0], arm_picks=[[0], [1, 2], [0, 1, 2], [2]],
    roles=list("u-f--uf-"), oracle_specs=[None, (600, 2), (1000, 1), None],
    horizon=2 * CLOSE_CHUNK + 3, end_share=1.0, seed=3,
)
def test_planned_run_matches_the_per_round_driver(
    num_arms, labels, arm_picks, roles, oracle_specs, horizon, end_share, seed
):
    num_users = len(labels)
    inst = generate_cs_instance(num_users, num_arms, 1, RowDistribution.gaussian(0, 1), seed=seed)
    user_sets = [[u for u in range(num_users) if labels[u] == i] for i in range(4)]
    arm_sets = [np.unique(np.array(picks) % num_arms) for picks in arm_picks]
    end = int(end_share * horizon)
    outcomes = []
    for driver in (_per_round_run, Environment.run):
        env = Environment(inst, NoiseModel("gaussian", 0.5), seed=seed, horizon=horizon)
        rng = np.random.default_rng(seed + 1)
        ucb = {
            u: UcbArmState(arm_sets[labels[u]], 0.5, max(2, horizon))
            for u in range(num_users) if roles[u] == "u"
        }
        fixed = {u: u % num_arms for u in range(num_users) if roles[u] == "f"}
        oracles = None if oracle_specs is None else [
            None if spec is None else _PeriodicOracle(arm_sets[i], *spec)
            for i, spec in enumerate(oracle_specs)
        ]
        driver(env, end, user_sets, arm_sets, rng, oracles=oracles, ucb=ucb, fixed=fixed)
        stopped = env.t
        driver(env, horizon, user_sets, arm_sets, rng, ucb=ucb, fixed=fixed)
        outcomes.append(
            (stopped, env.t, env.arms[: env.t].tolist(), env.rewards[: env.t].tobytes(),
             rng.bit_generator.state)
        )
    assert outcomes[0] == outcomes[1]


def _table_state(table):
    """Every multi-arm state's counts, sums (as bytes) and cached indices, by
    user; `Environment.run` plays a one-arm state's arm without calling it."""
    return {
        u: (list(s.counts), bytes(s.sums), [ucb_index(s, a) for a in s.arms])
        for u, s in sorted(table.items()) if len(s.arms) > 1
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    num_users=st.integers(24, 64),
    num_arms=st.integers(2, 6),
    # each user's set of three, and whether it has a UCB state ("u"), a
    # fixed arm ("f") or uniform pulls ("-"); most users have a UCB state
    labels=st.lists(st.integers(0, 2), min_size=64, max_size=64),
    roles=st.lists(st.sampled_from("uuuuuuf-"), min_size=64, max_size=64),
    noise=st.sampled_from(["gaussian", "bernoulli-reward"]),
    # (pulls, period) of each set's oracle
    oracle_specs=st.lists(
        st.one_of(st.none(), st.tuples(st.integers(0, 3000), st.integers(1, 3))),
        min_size=3, max_size=3,
    ),
    # short runs, and runs of one to two full blocks, whose rounds fill waves
    horizon=st.one_of(st.integers(1, 400), st.integers(CLOSE_CHUNK, 2 * CLOSE_CHUNK + 300)),
    cuts=st.lists(st.integers(0, 2 * CLOSE_CHUNK + 300), max_size=3),
    seed=st.integers(0, 2**16),
    expect=st.none(),
)
# 64 UCB users over 3 arms fill the full blocks' waves with about 50 rows;
# the runs cut at 1000 and 5000 resume states with arms tried, and the last
# block's 3 rounds go through select and update
@example(
    num_users=64, num_arms=3, labels=[0] * 64, roles=["u"] * 64, noise="gaussian",
    oracle_specs=[None] * 3, horizon=2 * CLOSE_CHUNK + 3, cuts=[1000, 5000], seed=7,
    expect="both",
)
# 24 UCB users fill a block's waves with about 21 rows, under WAVE_MIN_ROWS:
# past the untried arms every round goes through select and update
@example(
    num_users=24, num_arms=4, labels=[0, 1] * 32, roles=["u"] * 64, noise="bernoulli-reward",
    oracle_specs=[(200, 2), None, None], horizon=CLOSE_CHUNK, cuts=[], seed=11,
    expect="per-round",
)
def test_planned_ucb_rounds_match_the_per_round_driver(
    num_users, num_arms, labels, roles, noise, oracle_specs, horizon, cuts, seed, expect
):
    rows = RowDistribution.uniform(0, 1) if noise == "bernoulli-reward" else RowDistribution.gaussian(0, 1)
    inst = generate_cs_instance(num_users, num_arms, 1, rows, seed=seed)
    user_sets = [[u for u in range(num_users) if labels[u] == i] for i in range(3)]
    arm_sets = [np.arange(num_arms)[i % num_arms :] for i in range(3)]
    outcomes, paths = [], []
    for driver in (_per_round_run, Environment.run):
        env = Environment(inst, NoiseModel(noise, 0.5), seed=seed, horizon=horizon)
        rng = np.random.default_rng(seed + 1)
        ucb = UcbTable(num_users, 0.5, max(2, horizon))
        for u in range(num_users):
            if roles[u] == "u":
                ucb.add(u, arm_sets[labels[u]])
        fixed = {u: u % num_arms for u in range(num_users) if roles[u] == "f"}
        oracles = [
            None if spec is None else _PeriodicOracle(arm_sets[i], *spec)
            for i, spec in enumerate(oracle_specs)
        ]
        # count the wave path's calls and the per-round path's selects
        calls = {"waves": 0, "select": 0}

        def spy(name, method):
            def counted(*args):
                calls[name] += 1
                return method(*args)
            return counted

        with pytest.MonkeyPatch.context() as patch:
            if driver is Environment.run:
                patch.setattr(UcbTable, "_waves", spy("waves", UcbTable._waves))
                patch.setattr(UcbArmState, "select", spy("select", UcbArmState.select))
            stops = []
            for end in sorted(cuts) + [horizon]:
                driver(env, end, user_sets, arm_sets, rng, oracles=oracles, ucb=ucb, fixed=fixed)
                stops.append(env.t)
            driver(env, horizon, user_sets, arm_sets, rng, ucb=ucb, fixed=fixed)
        paths.append(calls)
        outcomes.append(
            (stops, env.t, env.arms[: env.t].tolist(), env.rewards[: env.t].tobytes(),
             rng.bit_generator.state, _table_state(ucb))
        )
    assert outcomes[0] == outcomes[1]
    planned = paths[1]
    if expect == "both":
        assert planned["waves"] > 0 and planned["select"] > 0
    elif expect == "per-round":
        assert planned["waves"] == 0 and planned["select"] > 0


def _oracle_state(oracle):
    """Everything an oracle has observed and estimated, as comparable values."""
    coll = oracle._collection
    current = None if coll is None else (
        coll.sums.tobytes(), coll.counts.tolist(), coll.rng.bit_generator.state
    )
    return (
        [est.tobytes() for est in oracle.rep_estimates], oracle.unconverged_solves,
        oracle.max_abs_observed, oracle.collecting, current,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    num_arms=st.integers(1, 5),
    # users 0, 1 and 2 are in sets 0, 1 and 2; the set of each other user is drawn
    extra=st.lists(st.integers(0, 2), max_size=5),
    roles=st.lists(st.sampled_from("uf-"), min_size=8, max_size=8),
    # (p, b, f) of each set's oracle; p = 1 makes rows that owe every column
    specs=st.lists(
        st.one_of(st.none(), st.tuples(st.sampled_from([0.2, 0.5, 1.0]), st.integers(1, 4),
                                       st.integers(1, 3))),
        min_size=3, max_size=3,
    ),
    horizon=st.one_of(st.integers(1, 60), st.integers(200, 900)),
    cuts=st.lists(st.integers(0, 900), max_size=4),
    seed=st.integers(0, 2**16),
)
# one user of eight collects 3 repetitions of 4 passes: every block but the
# last is cut by CLOSE_CHUNK, and most of each block's arrivals are not its
@example(
    num_arms=5, extra=[1, 1, 1, 1, 1], roles=list("u-f--u-f"),
    specs=[(1.0, 4, 3), None, None], horizon=2 * CLOSE_CHUNK + 3, cuts=[], seed=5,
)
def test_planned_oracles_match_the_per_round_reference(
    num_arms, extra, roles, specs, horizon, cuts, seed
):
    labels = [0, 1, 2] + extra
    num_users = len(labels)
    inst = generate_cs_instance(num_users, num_arms, 1, RowDistribution.gaussian(0, 1), seed=seed)
    user_sets = [[u for u in range(num_users) if labels[u] == i] for i in range(3)]
    arm_sets = [np.arange(num_arms)[i % num_arms :] for i in range(3)]
    outcomes = []
    for driver, make in ((_per_round_run, PerRoundOracle), (Environment.run, OracleInstance)):
        env = Environment(inst, NoiseModel("gaussian", 0.5), seed=seed, horizon=horizon)
        rng = np.random.default_rng(seed + 1)
        ucb = {
            u: UcbArmState(arm_sets[labels[u]], 0.5, max(2, horizon))
            for u in range(num_users) if roles[u] == "u"
        }
        fixed = {u: u % num_arms for u in range(num_users) if roles[u] == "f"}
        oracles = [
            None if spec is None else make(
                user_sets[i], arm_sets[i],
                OracleParams(p=spec[0], b=spec[1], f=spec[2], lam=0.05, zeta=0.1),
                np.random.SeedSequence([seed, i]),
            )
            for i, spec in enumerate(specs)
        ]
        # runs end at the cuts, so later runs resume oracles mid-pass
        stops = []
        for end in sorted(cuts) + [horizon]:
            driver(env, end, user_sets, arm_sets, rng, oracles=oracles, ucb=ucb, fixed=fixed)
            stops.append(env.t)
        driver(env, horizon, user_sets, arm_sets, rng, ucb=ucb, fixed=fixed)
        outcomes.append(
            (stops, env.t, env.arms[: env.t].tolist(), env.rewards[: env.t].tobytes(),
             rng.bit_generator.state, [o and _oracle_state(o) for o in oracles])
        )
    assert outcomes[0] == outcomes[1]


def _highs(kind, n, rng):
    if kind == "constant":
        return np.full(n, 7)
    if kind == "ones":
        return np.ones(n, dtype=np.int64)
    return rng.integers(1, 300, size=n) * (rng.random(n) < 0.8) + 1


@pytest.mark.parametrize("kind", ["constant", "ones", "mixed"])
def test_one_integers_call_draws_what_per_round_calls_draw(kind):
    # `Environment.run` draws a block's uniform pulls in one call, rewinds the
    # generator and redraws a prefix when an oracle stops mid-block; both are
    # exact only while numpy's bounded integers keep this behaviour
    for seed in range(20):
        highs = _highs(kind, 5000, np.random.default_rng(seed + 100))
        block, per_round = np.random.default_rng(seed), np.random.default_rng(seed)
        saved = block.bit_generator.state
        drawn = block.integers(0, highs)
        assert drawn.tolist() == [per_round.integers(h) for h in highs.tolist()]
        assert block.bit_generator.state == per_round.bit_generator.state
        # rewind and redraw a prefix: the state is the one after that prefix
        prefix = 1 + seed * 211
        block.bit_generator.state = saved
        block.integers(0, highs[:prefix])
        replay = np.random.default_rng(seed)
        for h in highs[:prefix].tolist():
            replay.integers(h)
        assert block.bit_generator.state == replay.bit_generator.state


def _per_round_reference(P, noise, seed, horizon, arms):
    """The ledger one `+=` per round builds over np.float64 entries:
    (users, rewards, inst_regret, cumulative_regret), one list each."""
    user_ss, noise_ss = seed_sequence(seed).spawn(2)
    users = np.random.default_rng(user_ss).integers(0, P.shape[0], size=horizon)
    draws = noise.draw_block(np.random.default_rng(noise_ss), horizon)
    best = P[np.arange(P.shape[0]), np.argmax(P, axis=1)]
    rewards, inst, cum, total = [], [], [], 0.0
    for t, arm in enumerate(arms):
        mean = P[users[t], arm]
        rewards.append(float(noisy_reward(noise, mean, draws[t])))
        regret = float(best[users[t]] - mean)
        total += regret
        inst.append(regret)
        cum.append(total)
    return users.tolist(), rewards, inst, cum


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    num_users=st.integers(1, 4),
    num_arms=st.integers(1, 4),
    kind=st.sampled_from(["gaussian", "uniform", "bernoulli-reward", "none"]),
    sigma=st.floats(0.0, 2.0),
    horizon=st.integers(1, 80),
    cuts=st.lists(st.integers(0, 80), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
# regret columns filled over several chunks, read back mid-chunk
@example(
    num_users=3, num_arms=4, kind="gaussian", sigma=0.5, horizon=2 * CLOSE_CHUNK + 3,
    cuts=[5, CLOSE_CHUNK + 7], seed=3,
)
def test_history_matches_per_round_ledger(num_users, num_arms, kind, sigma, horizon, cuts, seed):
    rng = np.random.default_rng(seed)
    if kind == "bernoulli-reward":
        P = rng.random((num_users, num_arms))
    else:
        # rounded entries repeat, so some rows tie for their best arm
        P = rng.normal(size=(num_users, num_arms)) * 10.0 ** rng.integers(-3, 4)
        P[:, ::2] = P[:, ::2].round(1)
    inst = Instance(num_users, num_arms, 1, P, np.zeros(num_users, dtype=int), P[:1])
    noise = NoiseModel(kind, sigma)
    arms = rng.integers(0, num_arms, size=horizon).tolist()
    users, rewards, inst_regret, cum = _per_round_reference(P, noise, seed, horizon, arms)
    env = Environment(inst, noise, seed=seed, horizon=horizon)
    # reading the ledger at a cut derives its regret up to there
    for t, arm in enumerate(arms):
        if t in cuts:
            assert env.t == t
            whole = whole_run(env, inst)
            assert whole.inst_regret[:t].tolist() == inst_regret[:t]
            assert whole.cumulative_regret[:t].tolist() == cum[:t]
            assert whole.final_regret == (cum[t - 1] if t else 0.0)
        env.play(arm)
    assert env.t == horizon
    assert env.users.tolist() == users
    assert env.arms.tolist() == arms
    assert env.rewards.tolist() == rewards
    whole = whole_run(env, inst)
    assert whole.inst_regret.tolist() == inst_regret
    assert whole.cumulative_regret.tolist() == cum
    assert whole.final_regret == cum[-1]


# no shrinking: each example plays thousands of rounds
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    horizon=st.one_of(
        st.sampled_from([1, CLOSE_CHUNK - 1, CLOSE_CHUNK, CLOSE_CHUNK + 1, 2 * CLOSE_CHUNK]),
        st.integers(1, 3 * CLOSE_CHUNK),
    ),
    reads=st.lists(st.integers(0, 3 * CLOSE_CHUNK), max_size=6),
    picks=st.lists(st.integers(1, 3 * CLOSE_CHUNK), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(horizon=CLOSE_CHUNK + 1, reads=[CLOSE_CHUNK - 3, CLOSE_CHUNK + 1], picks=[1], seed=7)
def test_derived_regret_equals_the_closed_columns(horizon, reads, picks, seed):
    # the regret columns as they were closed block by block whenever the
    # ledger was read mid-run, as the simplified policy does each phase
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-3, 4)
    P[:, ::2] = P[:, ::2].round(1)
    inst = Instance(5, 4, 1, P, np.zeros(5, dtype=int), P[:1])
    env = Environment(inst, NoiseModel("gaussian", 0.5), seed=seed, horizon=horizon)
    reference = ClosedRegret(horizon, inst)
    arms = rng.integers(0, 4, size=horizon)
    for t, arm in enumerate(arms.tolist()):
        if t in reads:
            reference.close_played(env)
        env.play(arm)
    reference.close_played(env)
    rounds = np.array(sorted({min(p, horizon) for p in picks}), dtype=np.int64)
    inst_regret, cum = bench.played_regret(env, rounds, inst)
    assert inst_regret.view(np.int64).tolist() == (
        reference.inst_regret[rounds - 1].view(np.int64).tolist()
    )
    assert cum.view(np.int64).tolist() == (
        reference.cumulative_regret[rounds - 1].view(np.int64).tolist()
    )
    whole = whole_run(env, inst)
    assert whole.inst_regret.view(np.int64).tolist() == reference.inst_regret.view(np.int64).tolist()
    assert whole.cumulative_regret.view(np.int64).tolist() == (
        reference.cumulative_regret.view(np.int64).tolist()
    )
    assert np.float64(whole.final_regret).view(np.int64) == (
        np.float64(reference.final_regret).view(np.int64)
    )


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize(
    "horizon", [1, CLOSE_CHUNK - 1, CLOSE_CHUNK, CLOSE_CHUNK + 1, 2 * CLOSE_CHUNK + 3]
)
def test_chunked_draws_equal_one_whole_horizon_draw(kind, horizon):
    inst = generate_cs_instance(7, 3, 2, RowDistribution.uniform(0, 1), seed=4)
    noise = NoiseModel(kind, 0.4)
    env = Environment(inst, noise, seed=19, horizon=horizon)
    user_ss, noise_ss = seed_sequence(19).spawn(2)
    users = np.random.default_rng(user_ss).integers(0, 7, size=horizon)
    draws = noise.draw_block(np.random.default_rng(noise_ss), horizon)
    # before any play, every reward slot holds its round's noise draw
    assert env.users.tolist() == users.tolist()
    assert env.rewards.view(np.int64).tolist() == draws.view(np.int64).tolist()


def test_environment_holds_only_its_ledger():
    inst = generate_cs_instance(64, 64, 2, RowDistribution.gaussian(0, 1), seed=5)
    horizon = 2**17
    tracemalloc.start()
    try:
        env = Environment(inst, NoiseModel("gaussian", 0.5), seed=3, horizon=horizon)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # user, arm and reward: 16 bytes a round, regret columns are derived on read
    ledger = 16 * horizon
    # the draws wait in the ledger's own columns and are drawn one chunk at a
    # time (4 MB held, not 2, with whole-horizon draw arrays beside the ledger)
    assert env.t == 0
    assert [column.dtype for column in (env.users, env.arms, env.rewards)] == [
        np.int32, np.int32, np.float64,
    ]
    assert ledger <= held <= ledger + 2**16
    assert peak <= ledger + 2**17


def test_user_frequency_binomial():
    inst = generate_cs_instance(10, 2, 1, RowDistribution.gaussian(0, 1), seed=0)
    n = 10**5
    env = Environment(inst, NoiseModel("none"), seed=11, horizon=n)
    while env.t < env.horizon:
        env.play(0)
    counts = np.bincount(env.users, minlength=10)
    p = 1 / 10
    std = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 5 * std)


def test_cumulative_regret_monotone_nonneg():
    inst = generate_cs_instance(6, 5, 3, RowDistribution.gaussian(0, 1), seed=2)
    env = Environment(inst, NoiseModel("gaussian", 1.0), seed=8, horizon=2000)
    rng = np.random.default_rng(1)
    while env.t < env.horizon:
        env.play(int(rng.integers(0, 5)))
    h = whole_run(env, inst)
    assert np.all(h.inst_regret[:2000] >= 0.0)
    assert np.all(np.diff(h.cumulative_regret[:2000]) >= 0.0)
    assert h.cumulative_regret[1999] == pytest.approx(h.inst_regret[:2000].sum())


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_cs_rank_at_most_c(seed):
    inst = generate_cs_instance(30, 20, 5, RowDistribution.gaussian(0, 1), seed=seed)
    svals = np.linalg.svd(inst.P, compute_uv=False)
    assert np.all(svals[5:] <= 1e-9 * svals[0])


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_noise_zero_mean_and_variance(kind):
    noise = NoiseModel(kind, sigma=0.7)
    draws = noise.draw_block(np.random.default_rng(0), 10**5)
    rewards = draws  # zero-mean additive part
    assert abs(rewards.mean()) < 0.02
    assert abs(rewards.var() - 0.49) <= 0.1 * 0.49


def test_bernoulli_reward_draws():
    noise = NoiseModel("bernoulli-reward", sigma=0.5)
    draws = noise.draw_block(np.random.default_rng(0), 10**5)
    rewards = np.array([noisy_reward(noise, 0.3, d) for d in draws[:10000]])
    assert set(np.unique(rewards)) <= {0.0, 1.0}
    assert abs(rewards.mean() - 0.3) < 0.02


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_noise_sigma_and_nu_must_be_finite(value):
    # a NaN or infinite sigma makes every reward NaN or infinite, and NaN
    # passes a plain `< 0` check
    with pytest.raises(ValueError, match="sigma must be finite"):
        NoiseModel("gaussian", value)
    with pytest.raises(ValueError, match="nu must be nonnegative and finite"):
        check_nu(value)


def test_bernoulli_requires_unit_interval():
    inst = generate_cs_instance(2, 2, 1, RowDistribution.gaussian(0, 5), seed=0)
    with pytest.raises(ValueError):
        Environment(inst, NoiseModel("bernoulli-reward", 0.5), seed=0, horizon=10)


def test_instance_roundtrip_exact(tmp_path):
    inst = generate_rcs_instance(6, 4, 2, 0.05, RowDistribution.gaussian(0, 1), seed=13)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.P, inst.P)
    assert np.array_equal(back.X, inst.X)
    assert np.array_equal(back.cluster_of, inst.cluster_of)
    assert back.nu == inst.nu
    assert np.array_equal(back.best_arm, inst.best_arm)


def test_row_distribution_parse_roundtrip():
    for text in ["gaussian(0,1)", "uniform(0,5)", "gaussian(-1.5,0.25)"]:
        dist = RowDistribution.parse(text)
        again = RowDistribution.parse(str(dist))
        assert dist == again
