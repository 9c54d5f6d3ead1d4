"""Phased arm elimination with matrix-completion-driven user clustering.

The run proceeds in phases with a halving accuracy target.  Each phase
collects Bernoulli-masked observations for every user set that still has a
large active arm set, completes the corresponding reward submatrix, keeps
each user's near-best arms, connects users whose estimated rows agree
entrywise and whose near-best arms overlap, and refines the partition into
the connected components.  Sets whose active arms fall below a threshold stop
clustering and run an independent UCB per user until the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .completion import MU, OracleInstance, derive_oracle_params, p_and_lam
from .env import Environment, seed_sequence

ENDGAME_FRACTION = 0.01  # do not start an oracle this close to the horizon
# the user graph checks entrywise closeness GRAPH_BLOCK columns at a time
# on at most GRAPH_PAIR_CHUNK candidate pairs at once, so each temporary
# holds 2^18 floats (2 MB)
GRAPH_BLOCK = 16
GRAPH_PAIR_CHUNK = 2**14
RCS_EDGE_SLACK = 3.0  # the relaxed variant links rows within 3*delta, not 2*delta


class UcbArmState:
    """Upper-confidence-bound state for one user over a fixed arm subset.

    Each arm's index is cached and only the pulled arm's is recomputed, so a
    round costs one `argmax` plus constant work.  Unplayed arms hold +inf and
    `argmax` returns the first maximum, so they are tried in arm order.
    `update(reward)` credits the arm that `select` last returned.
    """

    def __init__(self, arms, sigma: float, horizon: float):
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        self.arms = np.sort(np.asarray(arms, dtype=int)).tolist()
        self.sigma = float(sigma)
        self.horizon = float(horizon)
        self.counts = [0] * len(self.arms)
        self.sums = [0.0] * len(self.arms)
        self._index = np.full(len(self.arms), math.inf)
        self._bonus_scale = 6.0 * math.log(self.horizon)
        self._selected = None  # position `select` last chose

    def select(self) -> int:
        pos = self._selected = int(self._index.argmax())
        return self.arms[pos]

    def update(self, reward: float) -> None:
        pos = self._selected
        n = self.counts[pos] + 1
        total = self.sums[pos] + float(reward)
        self.counts[pos] = n
        self.sums[pos] = total
        self._index[pos] = total / n + self.sigma * math.sqrt(self._bonus_scale / n)


def good_arm_set(estimate_row: np.ndarray, delta: float) -> np.ndarray:
    """Positions whose estimated reward is within 2*delta of the row maximum."""
    row = np.asarray(estimate_row, dtype=float)
    if row.size == 0:
        raise ValueError("estimate row must be nonempty")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return np.flatnonzero(row.max() - row <= 2.0 * delta)


def build_user_graph(
    estimates: np.ndarray,
    good_sets: list[np.ndarray],
    delta: float,
    slack_multiplier: float = 2.0,
) -> np.ndarray:
    """Boolean adjacency over the rows of `estimates`: two users are linked
    when their estimated rows agree entrywise within slack_multiplier*delta
    and their near-best arm positions (`good_sets`) share at least one arm."""
    est = np.asarray(estimates, dtype=float)
    n = est.shape[0]
    if len(good_sets) != n:
        raise ValueError("good_sets must hold one entry per estimated row")
    # near-best indicators as float64: a BLAS product counts shared arms
    # exactly and is far cheaper than numpy's boolean matmul
    good = np.zeros(est.shape)
    for i, g in enumerate(good_sets):
        good[i, np.asarray(g, dtype=int)] = 1.0
    # only overlapping pairs can be linked; the entrywise test then runs one
    # column block at a time on the pairs every earlier block kept.  A pair
    # survives iff |a - b| <= thresh holds in every column, which is exactly
    # max |a - b| <= thresh (a NaN fails both), so no rounding margin is needed.
    first, second = np.nonzero(np.triu(good @ good.T > 0, k=1))
    thresh = slack_multiplier * delta
    adjacency = np.zeros((n, n), dtype=bool)
    for start in range(0, len(first), GRAPH_PAIR_CHUNK):
        a = first[start : start + GRAPH_PAIR_CHUNK]
        b = second[start : start + GRAPH_PAIR_CHUNK]
        for lo in range(0, est.shape[1], GRAPH_BLOCK):
            if not len(a):
                break
            block = est[:, lo : lo + GRAPH_BLOCK]
            keep = (np.abs(block[a] - block[b]) <= thresh).all(axis=1)
            a, b = a[keep], b[keep]
        adjacency[a, b] = True
    return adjacency | adjacency.T


def refine_partition(
    users, adjacency: np.ndarray, good_arms: list[np.ndarray]
) -> list[tuple[list[int], np.ndarray]]:
    """Connected components of the user graph, each paired with the sorted
    union of its members' near-best arms (`good_arms`, aligned with `users`).

    Components come in order of their smallest member id, members sorted.
    """
    users = np.asarray(users, dtype=int)
    # every user takes the smallest id among itself and its neighbours until
    # nothing changes; each component then carries its smallest member id
    labels = users.copy()
    while True:
        reach = np.where(adjacency, labels[None, :], labels[:, None]).min(axis=1)
        if np.array_equal(reach, labels):
            break
        labels = reach
    components = []
    for root in np.unique(labels):
        members = np.flatnonzero(labels == root)
        arms = np.unique(np.concatenate([good_arms[i] for i in members]))
        components.append((sorted(users[members].tolist()), arms))
    return components


@dataclass
class LatticeConfig:
    """Knobs for the phased-elimination run.

    The accuracy schedule is estimated from the first pass unless
    `c_prime_override` fixes its constant directly (the per-phase target is
    then override * 2^-phase).  Oracle constants are passed through to the
    completion parameter derivation.
    """

    num_clusters: int
    sigma: float
    gamma: float | None = None
    c_prime_override: float | None = None
    c_p: float = 1.0
    c_b: float = 1.0
    f_cap: int = 15

    def resolved_gamma(self, num_arms: int) -> float:
        if self.gamma is not None:
            return self.gamma
        return max(1.0, math.ceil(math.log(max(num_arms, 2)) / self.num_clusters))


@dataclass(kw_only=True)
class RcsConfig(LatticeConfig):
    """The phased-elimination knobs plus the known within-cluster separation
    `nu`."""

    nu: float

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")


@dataclass
class PhaseRecord:
    """One phase of a run.  `estimates` holds each refined set's (users, arms,
    estimated values), in set order, for the caller to measure against the
    ground truth into `oracle_error`; a policy never reads the truth itself."""

    phase: int
    delta: float | None
    mode: str
    user_sets: list[list[int]]
    arm_sets: list[list[int]]
    rounds_used: int
    oracle_error: float | None = None
    estimates: list[tuple[list[int], np.ndarray, np.ndarray]] = field(default_factory=list)


@dataclass
class PhaseTrace:
    records: list[PhaseRecord] = field(default_factory=list)
    has_mode: bool = False
    intersection_fallbacks: int = 0
    # nuclear-norm solves that hit their iteration cap unconverged: one per
    # phase set for simplified-lattice, one per oracle block for the others
    unconverged_solves: int = 0


class _PhasedRun:
    """Shared round-scheduling engine for the exact and relaxed variants; an
    `RcsConfig` selects the relaxed one."""

    def __init__(self, env: Environment, config: LatticeConfig, seed):
        self.env = env
        self.config = config
        self.horizon = env.horizon
        self.rcs = isinstance(config, RcsConfig)
        self.algo_ss = seed_sequence(seed)
        self.rng = np.random.default_rng(self.algo_ss.spawn(1)[0])
        self.trace = PhaseTrace(has_mode=self.rcs)
        self.ucb: dict[int, UcbArmState] = {}
        self.greedy_arm: dict[int, int] = {}
        self.latest_row: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.c_prime = config.c_prime_override
        self.clusterwise = False

    def run(self) -> PhaseTrace:
        cfg = self.config
        env = self.env
        num_users, num_arms = env.num_users, env.num_arms
        gamma_c = cfg.resolved_gamma(num_arms) * cfg.num_clusters
        user_sets: list[list[int]] = [list(range(num_users))]
        arm_sets: list[np.ndarray] = [np.arange(num_arms)]
        ell = 0
        while env.t < self.horizon:
            ell += 1
            delta_next = None if self.c_prime is None else self.c_prime * 2.0 ** (-ell)
            endgame = (self.horizon - env.t) < ENDGAME_FRACTION * self.horizon
            instances: dict[int, OracleInstance] = {}
            for i, (us, arms) in enumerate(zip(user_sets, arm_sets)):
                # a set with fewer users than clusters has no low-rank
                # structure to exploit; completion parameters degenerate there
                if len(arms) < gamma_c or len(us) < cfg.num_clusters:
                    for u in us:
                        if u not in self.ucb:
                            self.ucb[u] = UcbArmState(arms, cfg.sigma, max(2, self.horizon))
                    continue
                if endgame and all(u in self.latest_row for u in us):
                    for u in us:
                        cur_arms, row = self.latest_row[u]
                        live = np.isin(cur_arms, arms)
                        pick = cur_arms[live][np.argmax(row[live])] if live.any() else arms[0]
                        self.greedy_arm[u] = int(pick)
                    continue
                instances[i] = self._make_instance(us, arms, delta_next)
            rounds_before = env.t
            if instances:
                oracles = [instances.get(i) for i in range(len(user_sets))]
                env.run(self.horizon, user_sets, arm_sets, self.rng, oracles=oracles, ucb=self.ucb)
                if self.c_prime is None:
                    self._estimate_scale(instances)
                    delta_next = self.c_prime * 2.0 ** (-ell)
            incomplete = any(i.collecting for i in instances.values())
            self.trace.unconverged_solves += sum(i.unconverged_solves for i in instances.values())
            # nothing left to estimate, or a degenerate phase (e.g. an empty
            # mask) that used no rounds: play out the horizon rather than spin
            stalled = env.t == rounds_before and all(
                not i.rep_estimates for i in instances.values()
            )
            mode = "joint"
            estimates = []
            if stalled:
                env.run(
                    self.horizon, user_sets, arm_sets, self.rng, ucb=self.ucb, fixed=self.greedy_arm
                )
                mode = "ucb"
            elif not incomplete:
                if self.rcs and (
                    self.clusterwise
                    or not (delta_next >= 2.0 * cfg.nu and len(user_sets) < cfg.num_clusters)
                ):
                    self.clusterwise = True
                    mode = "clusterwise"
                user_sets, arm_sets, estimates = self._refine(
                    user_sets, arm_sets, instances, delta_next, joint=mode == "joint"
                )
            self.trace.records.append(
                PhaseRecord(
                    phase=ell,
                    delta=delta_next,
                    mode=mode,
                    user_sets=[list(s) for s in user_sets],
                    arm_sets=[list(map(int, a)) for a in arm_sets],
                    rounds_used=env.t - rounds_before,
                    estimates=estimates,
                )
            )
            if stalled or incomplete:
                break
        return self.trace

    def _make_instance(self, users, arms, delta_next) -> OracleInstance:
        cfg = self.config
        bootstrap = delta_next is None
        zeta = 1.0 if bootstrap else delta_next
        params = derive_oracle_params(
            len(users),
            len(arms),
            cfg.num_clusters,
            sigma=cfg.sigma,
            zeta=zeta,
            T=self.horizon,
            c_p=cfg.c_p,
            c_b=cfg.c_b,
            f_cap=cfg.f_cap,
        )
        if bootstrap:
            # reward scale unknown before any data: collect a single pass and
            # fix the accuracy schedule from what it sees
            _, lam = p_and_lam(min(len(users), len(arms)), cfg.c_p, cfg.sigma)
            params = replace(params, b=1, lam=lam)
        return OracleInstance(users, arms, params, self.algo_ss.spawn(1)[0])

    def _estimate_scale(self, instances: dict[int, OracleInstance]) -> None:
        cfg = self.config
        observed = [i.max_abs_observed for i in instances.values() if i.max_abs_observed > 0]
        p_inf = max(observed) if observed else 1.0
        num_arms = self.env.num_arms
        if cfg.sigma > 0:
            sigma_term = cfg.sigma * math.sqrt(MU) / math.log(max(num_arms, 3))
            scale = min(p_inf, sigma_term)
        else:
            scale = p_inf
        self.c_prime = scale / cfg.num_clusters

    def _refine(self, user_sets, arm_sets, instances, delta, joint: bool):
        """The refined user and arm sets, and each estimated set's (users,
        arms, values)."""
        new_users: list[list[int]] = []
        new_arms: list[np.ndarray] = []
        estimates = []
        for i, (us, arms) in enumerate(zip(user_sets, arm_sets)):
            inst = instances.get(i)
            values = inst.estimate() if inst is not None else None
            if values is None:
                new_users.append(list(us))
                new_arms.append(arms)
                continue
            estimates.append((us, arms, values))
            # rows are views: the phase record holds `values` anyway
            for r, u in enumerate(us):
                self.latest_row[u] = (arms, values[r])
            good_local = [good_arm_set(values[r], delta) for r in range(len(us))]
            if joint:
                slack = RCS_EDGE_SLACK if self.rcs else 2.0
                adjacency = build_user_graph(values, good_local, delta, slack_multiplier=slack)
                good_arms = [arms[g] for g in good_local]
                for comp, union in refine_partition(us, adjacency, good_arms):
                    new_users.append(comp)
                    new_arms.append(union)
            else:
                sets = [set(arms[g].tolist()) for g in good_local]
                inter, fell_back = intersect_with_union_fallback(sets)
                if fell_back:
                    self.trace.intersection_fallbacks += 1
                new_users.append(list(us))
                new_arms.append(np.array(sorted(inter), dtype=int))
        return new_users, new_arms, estimates


def intersect_with_union_fallback(arm_sets: list[set[int]]) -> tuple[set[int], bool]:
    """Common arms across all users; union if the intersection is empty."""
    if not arm_sets:
        raise ValueError("need at least one arm set")
    inter = set.intersection(*map(set, arm_sets))
    if inter:
        return inter, False
    return set.union(*map(set, arm_sets)), True


def run_lattice(env: Environment, config: LatticeConfig, seed) -> PhaseTrace:
    """Run the phased-elimination policy to `env`'s horizon: for exact
    cluster structure, or for the relaxed one when `config` is an `RcsConfig`."""
    return _PhasedRun(env, config, seed).run()
