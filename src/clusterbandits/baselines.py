"""Comparison policies: independent per-user UCB, explore-then-commit on one
matrix-completion estimate, and a simplified phased policy that pulls
uniformly inside active arm sets and clusters users with k-means at phase
boundaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .completion import OracleParams, p_and_lam, run_oracle, solve_nuclear_norm
from .env import Environment, seed_sequence
from .lattice import PhaseRecord, PhaseTrace, UcbTable


@dataclass
class UcbConfig:
    """Confidence-width scale of independent per-user UCB."""

    sigma: float


def run_per_user_ucb(env: Environment, config: UcbConfig, seed) -> None:
    """Every user runs an independent UCB over the full arm set; it draws no
    randomness of its own, so `seed` goes unused."""
    horizon = env.horizon
    arms = np.arange(env.num_arms)
    states = UcbTable(env.num_users, config.sigma, max(2, horizon))
    for u in range(env.num_users):
        states.add(u, arms)
    env.run(horizon, [range(env.num_users)], [arms], None, ucb=states)


@dataclass
class EtcConfig:
    """Oracle knobs for the explore phase of explore-then-commit (one pass,
    one estimate), and the share of the horizon that phase may use."""

    sigma: float
    c_p: float = 1.0
    explore_fraction: float = 0.1

    def __post_init__(self):
        if not 0 < self.explore_fraction < 1:
            raise ValueError("explore_fraction must lie in (0, 1)")


def run_explore_then_commit(env: Environment, config: EtcConfig, seed) -> None:
    """Spend a fixed budget collecting one full-matrix estimate, then play
    each user's estimated best arm forever.  A budget that finishes no
    repetition commits on the cells averaged so far, or, with none, keeps
    pulling uniformly to the horizon."""
    algo_ss = seed_sequence(seed)
    horizon, num_users, num_arms = env.horizon, env.num_users, env.num_arms
    explore_rounds = int(config.explore_fraction * horizon)
    p, lam = p_and_lam(min(num_users, num_arms), config.c_p, config.sigma)
    params = OracleParams(p=p, b=1, f=1, lam=lam, zeta=1.0)
    oracle = run_oracle(
        env,
        np.arange(num_users),
        np.arange(num_arms),
        params,
        budget=explore_rounds,
        seed=algo_ss.spawn(1)[0],
    )
    est = oracle.partial_estimate()
    # leftover exploration budget (estimate finished early) stays exploration:
    # uniform arms, independent of the estimate
    filler_rng = np.random.default_rng(algo_ss.spawn(1)[0])
    user_sets, arm_sets = [range(num_users)], [np.arange(num_arms)]
    env.run(explore_rounds, user_sets, arm_sets, filler_rng)
    commit_arm = {} if est is None else dict(enumerate(np.argmax(est, axis=1).tolist()))
    env.run(horizon, user_sets, arm_sets, filler_rng, fixed=commit_arm)


# k-means++ seedings tried per k; the lowest objective is kept
KMEANS_RESTARTS = 10
# Lloyd iterations per seeding, unless the labels stop changing first
KMEANS_ITERS = 100


def _kmeans_once(rows: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    n = len(rows)
    # k-means++ seeding
    centers = np.empty((k, rows.shape[1]))
    centers[0] = rows[rng.integers(n)]
    d2 = np.sum((rows - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = rows[rng.integers(n)]
        else:
            centers[j] = rows[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((rows - centers[j]) ** 2, axis=1))
    row_norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    labels = None
    for _ in range(KMEANS_ITERS):
        new_labels = _nearest_centers(rows, row_norms, centers)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = rows[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    objective = float(((rows - centers[labels]) ** 2).sum(axis=1).sum())
    return labels, objective


def _nearest_centers(rows: np.ndarray, row_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest centre by squared distance, the first on ties: the
    argmin of the broadcast distances ((rows[:, None] - centers) ** 2).sum(2),
    from one matrix product for all but the near ties.

    A row's distances are its ||r||^2 plus the scores ||c||^2 - 2 r.c.  The
    scores and the broadcast distances each round to within (d + 2) u M of
    their exact values, for rows of width d, unit roundoff u and M = (||r||
    + max ||c||)^2, which bounds every distance and score.  So where a row's
    two smallest scores differ by more than four times that, both pick the
    same centre; the rows within twice that margin take the broadcast
    distances.
    """
    if len(centers) == 1:
        return np.zeros(len(rows), dtype=np.intp)
    center_sq = np.einsum("ij,ij->i", centers, centers)
    scores = center_sq - 2.0 * (rows @ centers.T)
    labels = scores.argmin(axis=1)
    at = np.arange(len(rows))
    best = scores[at, labels]
    scores[at, labels] = np.inf
    reach = row_norms + math.sqrt(float(center_sq.max()))
    # 8 (d + 2) u M, with u = eps / 2
    bound = 4 * (rows.shape[1] + 2) * np.finfo(float).eps * reach**2
    close = np.flatnonzero(scores.min(axis=1) - best <= bound)
    if len(close):
        dists = ((rows[close, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels[close] = dists.argmin(axis=1)
    return labels


def kmeans_elbow(
    rows: np.ndarray, max_k: int, elbow_ratio: float, objective_floor: float, seed
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding, choosing k by the elbow rule:
    grow k while the objective keeps dropping by at least `elbow_ratio` and
    stays above `objective_floor`."""
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0 or max_k < 1:
        raise ValueError("rows must be nonempty and max_k >= 1")
    rng = np.random.default_rng(seed_sequence(seed))
    max_k = min(max_k, len(rows))

    def best_of(k: int) -> tuple[np.ndarray, float]:
        if k == 1:
            # every seeding ends with all labels 0 and the centre at the mean,
            # so one is run; the others only make their one seeding draw
            best = _kmeans_once(rows, 1, rng)
            for _ in range(KMEANS_RESTARTS - 1):
                rng.integers(len(rows))
            return best
        best = None
        for _ in range(KMEANS_RESTARTS):
            labels, obj = _kmeans_once(rows, k, rng)
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


# nuclear-norm solver settings of the per-phase solves
SIMPLIFIED_SOLVER_TOL = 1e-5
SIMPLIFIED_SOLVER_MAX_ITERS = 300
# the per-phase regularizer's denominator, and the k-means elbow rule
SIMPLIFIED_LAM_DENOM = 200.0
SIMPLIFIED_ELBOW_RATIO = 0.6
SIMPLIFIED_OBJECTIVE_FLOOR = 100.0


@dataclass
class SimplifiedConfig:
    """Schedule and elimination knobs for the simplified phased policy.

    Phase lengths grow linearly; the per-phase reward-gap slack is
    p_inf * nu_scale / nu_base**phase, where p_inf is the largest |reward|
    observed so far, and the nuclear-norm regularizer is
    lam_coeff * sqrt(phase_length / SIMPLIFIED_LAM_DENOM).
    """

    num_clusters: int
    sigma: float
    L: int = 5
    rho: float = 0.5
    phase_base: int = 1500
    phase_step: int = 500
    nu_scale: float = 1.0 / 6.0
    nu_base: float = 8.0
    lam_coeff: float = 5.0

    def __post_init__(self):
        if not 0 <= self.rho <= 1:
            raise ValueError("rho must lie in [0, 1]")
        if self.phase_base < 1 or self.phase_step < 0:
            raise ValueError("phase_base must be >= 1 and phase_step >= 0")

    def schedule(self, horizon: int) -> list[int]:
        out, total, ell = [], 0, 0
        while total < horizon:
            length = min(self.phase_base + self.phase_step * ell, horizon - total)
            out.append(length)
            total += length
            ell += 1
        return out

    def nu(self, ell: int, p_inf: float) -> float:
        return p_inf * self.nu_scale / self.nu_base**ell

    def lam(self, phase_length: int) -> float:
        return self.lam_coeff * math.sqrt(phase_length / SIMPLIFIED_LAM_DENOM)


def run_simplified_lattice(env: Environment, config: SimplifiedConfig, seed) -> PhaseTrace:
    """Fixed-schedule variant: uniform pulls inside active sets, one
    nuclear-norm solve per set at each phase end, k-means splits during the
    first L phases and fraction-approved arm shrinking afterwards."""
    algo_ss = seed_sequence(seed)
    rng = np.random.default_rng(algo_ss.spawn(1)[0])
    kmeans_ss = algo_ss.spawn(1)[0]
    num_users, num_arms = env.num_users, env.num_arms

    user_sets: list[list[int]] = [list(range(num_users))]
    arm_sets: list[np.ndarray] = [np.arange(num_arms)]
    trace = PhaseTrace(has_mode=False)
    observed_max = 0.0
    # observation means accumulate across phases; per-phase-only fills leave
    # the spectrum below the scheduled regularizer and the solves collapse
    sums = np.zeros((num_users, num_arms))
    counts = np.zeros((num_users, num_arms), dtype=np.int64)

    for ell, length in enumerate(config.schedule(env.horizon), start=1):
        start = env.t
        env.run(start + length, user_sets, arm_sets, rng)
        played = slice(start, env.t)
        cells, rewards = (env.users[played], env.arms[played]), env.rewards[played]
        # np.add.at accumulates in round order, as one += per round would
        np.add.at(sums, cells, rewards)
        np.add.at(counts, cells, 1)
        observed_max = max(observed_max, float(np.abs(rewards).max()))
        nu_ell = config.nu(ell, max(observed_max, 1e-12))
        lam_ell = config.lam(length)
        new_users: list[list[int]] = []
        new_arms: list[np.ndarray] = []
        for i, (us, arms) in enumerate(zip(user_sets, arm_sets)):
            us_arr = np.asarray(us, dtype=int)
            sub_counts = counts[np.ix_(us_arr, arms)]
            obs_rows, obs_cols = np.nonzero(sub_counts)
            if len(obs_rows) == 0:
                new_users.append(list(us))
                new_arms.append(arms)
                continue
            obs_vals = sums[np.ix_(us_arr, arms)][obs_rows, obs_cols] / sub_counts[obs_rows, obs_cols]
            estimate, info = solve_nuclear_norm(
                obs_vals,
                (obs_rows, obs_cols),
                (len(us_arr), len(arms)),
                lam_ell,
                tol=SIMPLIFIED_SOLVER_TOL,
                max_iters=SIMPLIFIED_SOLVER_MAX_ITERS,
            )
            trace.unconverged_solves += not info.converged
            if ell <= config.L:
                labels = kmeans_elbow(
                    estimate,
                    max_k=config.num_clusters,
                    elbow_ratio=SIMPLIFIED_ELBOW_RATIO,
                    objective_floor=SIMPLIFIED_OBJECTIVE_FLOOR,
                    seed=kmeans_ss.spawn(1)[0],
                )
                for lab in np.unique(labels):
                    members = np.flatnonzero(labels == lab)
                    row_max = estimate[members].max(axis=1)
                    near = np.abs(estimate[members] - row_max[:, None]) <= nu_ell
                    keep = np.flatnonzero(near.any(axis=0))
                    new_users.append([int(us_arr[m]) for m in members])
                    new_arms.append(arms[keep])
            else:
                row_max = estimate.max(axis=1)
                near = np.abs(estimate - row_max[:, None]) <= nu_ell
                approvals = near.sum(axis=0)
                keep = np.flatnonzero(approvals >= config.rho * len(us_arr))
                if len(keep) == 0:
                    keep = np.flatnonzero(approvals == approvals.max())
                new_users.append(list(us))
                new_arms.append(arms[keep])
        user_sets, arm_sets = new_users, new_arms
        trace.records.append(
            PhaseRecord(
                phase=ell,
                delta=nu_ell,
                mode="kmeans" if ell <= config.L else "shrink",
                user_sets=[list(s) for s in user_sets],
                arm_sets=[list(map(int, a)) for a in arm_sets],
                rounds_used=length,
            )
        )
    return trace
