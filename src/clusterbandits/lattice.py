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
# the user graph checks entrywise closeness GRAPH_BLOCK columns at a time on
# batches of GRAPH_PAIR_CHUNK candidate pairs (temporaries of 2^15 floats,
# 256 kB), and drops before each batch the pairs already joined; smaller
# batches drop more but make more numpy calls, and 2^11 timed best on
# cs400's 400-user graphs, while cs200's 34-50-user sets fit one batch
GRAPH_BLOCK = 16
GRAPH_PAIR_CHUNK = 2**11
RCS_EDGE_SLACK = 3.0  # the relaxed variant links rows within 3*delta, not 2*delta


# a block's UCB rounds past each user's untried arms are planned in waves, one
# argmax over the users' index rows per wave, when they fill at least this many
# rows per wave; measured, waves of 21 rows took 0.98 and of 15 rows 1.25 times
# as long as the same rounds through `select` and `update`
WAVE_MIN_ROWS = 24


def _ucb_index(total, n, sigma: float, bonus_scale: float, sqrt=math.sqrt):
    """The UCB index of an arm pulled `n` times for `total` reward: its mean
    plus sigma * sqrt(bonus_scale / n).  With `sqrt=np.sqrt` it works
    elementwise on arrays, rounding each step as the scalar form does."""
    return total / n + sigma * sqrt(bonus_scale / n)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """`np.argsort(keys, kind="stable")` of nonnegative integer keys, as one
    sort of distinct int64 keys, which is several times faster on 4096 int32s."""
    return np.argsort(keys.astype(np.int64) * len(keys) + np.arange(len(keys)))


class UcbArmState:
    """Upper-confidence-bound state for one user over a fixed arm subset.

    Each arm's index is cached and only the pulled arm's is recomputed, so a
    round costs one `argmax` plus constant work.  Unplayed arms hold +inf and
    `argmax` returns the first maximum, so they are tried in arm order: the
    tried arms are always a prefix of `arms`.  `update(reward)` credits the
    arm that `select` last returned.

    The counts, sums and cached indices are views of row `row` of a
    `UcbTable`, whose sigma and horizon the state then takes, or of a
    one-row table of the state's own when `table` is None.
    """

    def __init__(self, arms, sigma: float, horizon: float, table: UcbTable | None = None,
                 row: int = 0):
        self.arms = np.sort(np.asarray(arms, dtype=int)).tolist()
        if table is None:
            table = UcbTable(1, sigma, horizon)
        table._open_row(row, self.arms)
        self.sigma, self.horizon = table.sigma, table.horizon
        self._bonus_scale = table.bonus_scale
        self._table, self._row = table, row
        self._view()
        self._selected = None  # position `select` last chose

    def _view(self) -> None:
        """Bind the state to its row of the table; memoryviews read and write
        the counts and sums as Python scalars, nearly as fast as lists."""
        table, row, n = self._table, self._row, len(self.arms)
        self.counts = memoryview(table.counts[row, :n])
        self.sums = memoryview(table.sums[row, :n])
        self._index = table.index[row, :n]

    def select(self) -> int:
        pos = self._selected = int(self._index.argmax())
        return self.arms[pos]

    def update(self, reward: float) -> None:
        pos = self._selected
        n = self.counts[pos] + 1
        total = self.sums[pos] + float(reward)
        self.counts[pos] = n
        self.sums[pos] = total
        self._index[pos] = _ucb_index(total, n, self.sigma, self._bonus_scale)


class UcbTable(dict):
    """The UCB states of a run's users, as rows of one table, so that
    `Environment.run` can plan many users' rounds in numpy steps (`plan`)
    and play the rest through each state's `select` and `update`.

    Maps each user given a state (`add`) to its `UcbArmState`, row `user` of
    the table: its sorted `arms`, `counts`, reward `sums` and cached `index`,
    which holds -inf past the state's arms so that no argmax picks them.
    """

    def __init__(self, num_users: int, sigma: float, horizon: float):
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        super().__init__()
        self.sigma = float(sigma)
        self.horizon = float(horizon)
        self.bonus_scale = 6.0 * math.log(self.horizon)
        self.widths = np.zeros(num_users, dtype=np.int64)
        # int32, as the ledger's arms: an arm's count is at most the horizon
        self.arms = np.zeros((num_users, 0), dtype=np.int32)
        self.counts = np.zeros((num_users, 0), dtype=np.int32)
        self.sums = np.zeros((num_users, 0))
        self.index = np.zeros((num_users, 0))

    def add(self, user: int, arms) -> None:
        """Give `user` a fresh state over `arms`."""
        self[user] = UcbArmState(arms, self.sigma, self.horizon, table=self, row=user)

    def _open_row(self, row: int, arms: list[int]) -> None:
        """Set `row` to a fresh state over the sorted `arms`, first widening
        the rows if they are narrower, which rebinds every state to its row."""
        n = len(arms)
        if n > self.index.shape[1]:
            for name, pad in (("arms", 0), ("counts", 0), ("sums", 0.0), ("index", -math.inf)):
                old = getattr(self, name)
                new = np.full((len(old), n), pad, dtype=old.dtype)
                new[:, : old.shape[1]] = old
                setattr(self, name, new)
            for state in self.values():
                state._view()
        self.arms[row, :n] = arms
        self.counts[row] = 0
        self.sums[row] = 0.0
        self.index[row] = -math.inf
        self.index[row, :n] = math.inf
        self.widths[row] = n

    def plan(self, users: np.ndarray, rounds: np.ndarray, rewards_of) -> np.ndarray:
        """Plan the UCB rounds `rounds` (ascending) of the arriving `users`,
        writing into the users' rows what `select` and `update` would write;
        `rewards_of(rounds, arms)` gives the rounds' rewards without playing
        them.  Returns each round's arm, or -1 for a round left to `select`
        and `update`, which then continue from what this wrote.

        A user's arrivals first take its untried arms, in arm order.  Its
        later arrivals go in waves, the k-th of every user in one argmax over
        their index rows, when they fill at least WAVE_MIN_ROWS rows per wave;
        else each of them is left to the per-round path.
        """
        arms = np.full(len(users), -1, dtype=np.int64)
        # per user: arrivals, arms tried (a prefix of its row) and untried
        arrivals = np.bincount(users, minlength=len(self.widths))
        tried = np.count_nonzero(self.counts, axis=1)
        untried = self.widths - tried
        later = np.maximum(arrivals - untried, 0)
        waves = int(later.max())
        waved = waves > 0 and int(later.sum()) >= WAVE_MIN_ROWS * waves
        if not waved and not (arrivals > later).any():
            return arms
        # the arrivals by user, and each one's ordinal among its user's
        order = _stable_order(users)
        by_user = users[order]
        ordinal = np.arange(len(users)) - (np.cumsum(arrivals) - arrivals)[by_user]
        # an arrival's wave: its ordinal among its user's arrivals past the untried arms
        wave = ordinal - untried[by_user]
        fresh = wave < 0
        if fresh.any():
            at = order[fresh]
            pos = tried[by_user[fresh]] + ordinal[fresh]
            arms[at] = self._credit(by_user[fresh], pos, rounds[at], rewards_of)
        if waved:
            at = order[~fresh]
            arms[at] = self._waves(by_user[~fresh], rounds[at], wave[~fresh], rewards_of)
        return arms

    def _waves(self, rows, rounds, wave, rewards_of) -> np.ndarray:
        """Play each arrival at `rounds` of its row, wave by wave: wave k
        holds at most one arrival of each row, so one argmax over their rows
        chooses all of them.  Returns the arms."""
        by_wave = _stable_order(wave)
        rows, rounds = rows[by_wave], rounds[by_wave]
        arms = np.empty(len(rows), dtype=np.int64)
        bounds = np.cumsum(np.bincount(wave)).tolist()
        for lo, hi in zip([0] + bounds[:-1], bounds):
            pos = self.index[rows[lo:hi]].argmax(axis=1)
            arms[lo:hi] = self._credit(rows[lo:hi], pos, rounds[lo:hi], rewards_of)
        out = np.empty_like(arms)
        out[by_wave] = arms
        return out

    def _credit(self, rows, pos, rounds, rewards_of) -> np.ndarray:
        """Play the arm at position `pos` of row `rows` at each of `rounds`,
        as `update` would; no (row, position) cell comes twice.  Returns the
        arms."""
        cells = rows * self.index.shape[1] + pos
        arms = self.arms.take(cells)
        n = self.counts.take(cells) + 1
        total = self.sums.take(cells) + rewards_of(rounds, arms)
        self.counts.put(cells, n)
        self.sums.put(cells, total)
        self.index.put(cells, _ucb_index(total, n, self.sigma, self.bonus_scale, np.sqrt))
        return arms


def good_arm_set(estimate_row: np.ndarray, delta: float) -> np.ndarray:
    """Positions whose estimated reward is within 2*delta of the row maximum."""
    row = np.asarray(estimate_row, dtype=float)
    if row.size == 0:
        raise ValueError("estimate row must be nonempty")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return np.flatnonzero(row.max() - row <= 2.0 * delta)


def _merge_components(labels: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Merge the components that the edges (first[i], second[i]) join.

    `labels` gives each row the smallest row of its component so far (at
    the start, each row itself); returns the same for the components with
    the edges added.  Each round hooks every label an edge still spans
    onto the smallest label across its edges, then jumps pointers until
    every row holds its root, the smallest row of its tree.
    """
    while True:
        la, lb = labels[first], labels[second]
        spans = la != lb
        if not spans.any():
            return labels
        la, lb = la[spans], lb[spans]
        labels = labels.copy()
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def build_user_graph(
    estimates: np.ndarray,
    good_sets: list[np.ndarray],
    delta: float,
    slack_multiplier: float = 2.0,
) -> np.ndarray:
    """Boolean symmetric adjacency over the rows of `estimates` whose
    connected components are those of the user graph: two users are linked
    when their estimated rows agree entrywise within slack_multiplier*delta
    and their near-best arm positions (`good_sets`) share at least one arm.

    Every returned edge is such a link, but a link between users that the
    edges of earlier batches of pairs already connect is not checked and
    not returned: only the components are the graph's.  A graph with at
    most GRAPH_PAIR_CHUNK overlapping pairs is one batch and is returned
    in full.
    """
    est = np.asarray(estimates, dtype=float)
    n = est.shape[0]
    if len(good_sets) != n:
        raise ValueError("good_sets must hold one entry per estimated row")
    # near-best indicators as float64: a BLAS product counts shared arms
    # exactly and is far cheaper than numpy's boolean matmul
    good = np.zeros(est.shape)
    for i, g in enumerate(good_sets):
        good[i, np.asarray(g, dtype=int)] = 1.0
    # only overlapping pairs can be linked, taken in row order in batches;
    # the entrywise test then runs one column block at a time on the pairs
    # every earlier block kept.  A pair survives iff |a - b| <= thresh holds
    # in every column, which is exactly max |a - b| <= thresh (a NaN fails
    # both), so no rounding margin is needed.
    first, second = np.nonzero(np.triu(good @ good.T > 0, k=1))
    thresh = slack_multiplier * delta
    adjacency = np.zeros((n, n), dtype=bool)
    labels = np.arange(n)
    for start in range(0, len(first), GRAPH_PAIR_CHUNK):
        a = first[start : start + GRAPH_PAIR_CHUNK]
        b = second[start : start + GRAPH_PAIR_CHUNK]
        if start:
            joined = labels[a] == labels[b]
            a, b = a[~joined], b[~joined]
        for lo in range(0, est.shape[1], GRAPH_BLOCK):
            if not len(a):
                break
            block = est[:, lo : lo + GRAPH_BLOCK]
            keep = (np.abs(block[a] - block[b]) <= thresh).all(axis=1)
            a, b = a[keep], b[keep]
        adjacency[a, b] = True
        if start + GRAPH_PAIR_CHUNK < len(first):
            labels = _merge_components(labels, a, b)
    return adjacency | adjacency.T


def refine_partition(
    users, adjacency: np.ndarray, good_arms: list[np.ndarray]
) -> list[tuple[list[int], np.ndarray]]:
    """Connected components of the user graph `adjacency` (any adjacency
    with the graph's components, as `build_user_graph` returns), each
    paired with the sorted union of its members' near-best arms
    (`good_arms`, aligned with `users`).

    Components come in order of their smallest member id, members sorted.
    """
    users = np.asarray(users, dtype=int)
    labels = _merge_components(np.arange(len(users)), *np.nonzero(adjacency))
    components = []
    for root in np.unique(labels):
        members = np.flatnonzero(labels == root)
        arms = np.unique(np.concatenate([good_arms[i] for i in members]))
        components.append((sorted(users[members].tolist()), arms))
    components.sort(key=lambda component: component[0][0])
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
        self.ucb = UcbTable(env.num_users, config.sigma, max(2, self.horizon))
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
                            self.ucb.add(u, arms)
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
