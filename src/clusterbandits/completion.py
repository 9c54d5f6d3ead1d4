"""Offline low-rank matrix completion driven by bandit rounds.

The estimator observes a Bernoulli-sampled subset of (user, arm) cells, each
averaged over `b` repeated pulls to reduce variance, completes the matrix by
nuclear-norm regularized least squares (soft-impute), and boosts the success
probability by taking an entrywise median over `f` independent estimates.
Soft-impute needs only the singular values above its threshold, and on
low-rank data few survive, so each iteration takes them from a subspace
warm-started at the previous iterate's singular vectors and runs a dense SVD
only when that subspace may miss one.  Because users arrive randomly one per
round, collection is a stateful pass over the mask: whenever a masked user
arrives we pull one of their pending masked arms, otherwise a throwaway arm
outside the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import seed_sequence


class InsufficientBudgetError(RuntimeError):
    """Not even one repetition of the estimator finished within the budget."""


@dataclass(frozen=True)
class OracleParams:
    p: float
    b: int
    f: int
    lam: float
    r: int
    mu: float
    sigma: float
    zeta: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError("sampling probability must lie in (0, 1]")
        if self.b < 1 or self.f < 1 or self.lam < 0:
            raise ValueError("b, f must be >= 1 and lam >= 0")


NOISELESS_LAMBDA = 1e-3  # lam formula degenerates to 0 at sigma=0; keep solves coupled


def derive_oracle_params(
    U_size: int,
    V_size: int,
    C: int,
    mu: float,
    sigma: float,
    zeta: float,
    T: int,
    c_p: float = 1.0,
    c_b: float = 1.0,
    c_lambda: float = 2.5,
    f_cap: int = 15,
) -> OracleParams:
    """Sampling probability, repetition counts, and regularizer for a target
    entrywise error `zeta` on a |U| x |V| submatrix of rank <= C."""
    if min(U_size, V_size, C, T) <= 0 or mu <= 0 or sigma < 0 or zeta <= 0:
        raise ValueError("all size inputs must be positive, sigma nonnegative, zeta positive")
    d2 = min(U_size, V_size)
    logd = math.log(max(d2, 2))
    p = min(1.0, c_p * mu**2 * logd**3 / d2)
    if sigma == 0:
        b = 1
    else:
        b = max(1, math.ceil((c_b * sigma * C * math.sqrt(mu) / (zeta * logd)) ** 2))
    f = min(f_cap, max(1, math.ceil(math.log(U_size * V_size * T))))
    sigma_eff = sigma / math.sqrt(b)
    lam = c_lambda * sigma_eff * math.sqrt(d2 * p)
    if lam == 0.0:
        lam = NOISELESS_LAMBDA
    return OracleParams(p=p, b=b, f=f, lam=lam, r=C, mu=mu, sigma=sigma, zeta=zeta)


@dataclass
class Mask:
    """Bernoulli sample of cells from rows x cols; indices are local."""

    rows: np.ndarray  # global user ids
    cols: np.ndarray  # global arm ids
    entry_row: np.ndarray  # local row index per masked cell, nondecreasing (row-major)
    entry_col: np.ndarray  # local col index per masked cell

    def __len__(self) -> int:
        return len(self.entry_row)


def sample_mask(users, arms, p: float, rng: np.random.Generator) -> Mask:
    """Include each (user, arm) cell independently with probability p."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    users = np.asarray(users, dtype=int)
    arms = np.asarray(arms, dtype=int)
    grid = rng.random((len(users), len(arms))) < p
    entry_row, entry_col = np.nonzero(grid)
    return Mask(users, arms, entry_row, entry_col)


class MaskCollection:
    """One mask observed over b sequential passes, one arriving user at a time,
    with running sums and counts for every masked cell."""

    def __init__(self, mask: Mask, b: int, rng: np.random.Generator):
        self.mask = mask
        self.b = b
        self.rng = rng
        self.sums = np.zeros(len(mask))
        self.counts = np.zeros(len(mask), dtype=int)
        self._sums_at = memoryview(self.sums)
        self._counts_at = memoryview(self.counts)
        n_rows, n_cols = len(mask.rows), len(mask.cols)
        # the cells are in row-major order, so each row's are one range
        bounds = np.searchsorted(mask.entry_row, np.arange(n_rows + 1)).tolist()
        self._entries_of_row: list[np.ndarray] = [
            np.arange(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        self._row_of_user = {int(u): i for i, u in enumerate(mask.rows)}
        # the global arm of every masked cell, and each row's throwaway arms:
        # its unmasked columns, or every column when it has none
        self._arm_of_entry = memoryview(mask.cols[mask.entry_col])
        unmasked = np.ones((n_rows, n_cols), dtype=bool)
        unmasked[mask.entry_row, mask.entry_col] = False
        self._filler_arms: list[memoryview] = [
            memoryview(mask.cols[row] if row.any() else mask.cols) for row in unmasked
        ]
        self._pass_idx = 0
        self._pending: list[list[int]] = []
        self._outstanding = 0
        if len(mask) == 0:
            self._pass_idx = b  # nothing to collect
        else:
            self._start_pass()

    def _start_pass(self) -> None:
        self._pending = []
        for entries in self._entries_of_row:
            stack = entries.copy()
            self.rng.shuffle(stack)
            self._pending.append(stack.tolist())
        self._outstanding = len(self.mask)

    @property
    def done(self) -> bool:
        return self._pass_idx >= self.b

    def choose(self, user: int) -> tuple[int, bool]:
        """Arm (global id) for an arriving masked user; flag marks a mask pull."""
        i = self._row_of_user[user]
        if not self.done and self._pending[i]:
            return self._arm_of_entry[self._pending[i][-1]], True
        free = self._filler_arms[i]
        return free[self.rng.integers(len(free))], False

    def record(self, user: int, arm: int, reward: float) -> None:
        """Credit the reward of the mask pull issued by the last `choose`."""
        i = self._row_of_user[user]
        entry = self._pending[i].pop()
        self._sums_at[entry] += reward
        self._counts_at[entry] += 1
        self._outstanding -= 1
        if self._outstanding == 0:
            self._pass_idx += 1
            if self._pass_idx < self.b:
                self._start_pass()

    def averaged_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(local rows, local cols, averaged values) for fully observed cells."""
        done = self.counts >= self.b
        m = self.mask
        return m.entry_row[done], m.entry_col[done], self.sums[done] / self.counts[done]


@dataclass
class SolveInfo:
    iterations: int
    converged: bool
    no_convergence: bool
    objectives: list[float] = field(default_factory=list)
    dense_svds: int = 0  # iterations that thresholded through a full dense SVD


# basis columns kept beyond the previous iterate's surviving singular vectors
OVERSAMPLE = 6


def _thresholded_svd(
    G: np.ndarray, lam_k: float, basis: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Singular triplets (U, s, Vt) of G that include every singular value
    above `lam_k`, from exactly one `np.linalg.svd` call; the flag is True
    when that call was a dense SVD of G.

    With a basis (n x k, orthonormal columns) it runs one block power
    iteration from G @ basis and takes the SVD of the small k x n projection
    of G: the range finder of Halko, Martinsson & Tropp (2011), warm started
    instead of random.  When all k Ritz values exceed `lam_k` the subspace
    may miss a surviving value, and the dense SVD is used instead.
    """
    if basis is not None and basis.shape[1] + 1 <= min(G.shape) // 3:
        Y = np.linalg.qr(G @ basis)[0]
        Z = np.linalg.qr(G.T @ Y)[0]
        Y = np.linalg.qr(G @ Z)[0]
        B = Y.T @ G
        # squared Ritz values from the k x k Gram matrix, so that the guard
        # costs no second SVD
        if np.linalg.eigvalsh(B @ B.T)[0] <= lam_k * lam_k:
            Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
            return Y @ Ub, s, Vt, False
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    return U, s, Vt, True


def solve_nuclear_norm(
    values: np.ndarray,
    omega: tuple[np.ndarray, np.ndarray],
    shape: tuple[int, int],
    lam: float,
    tol: float = 1e-6,
    max_iters: int = 500,
    continuation_decay: float = 0.25,
) -> tuple[np.ndarray, SolveInfo]:
    """Soft-impute: alternate a unit gradient step on the observed-entry
    squared loss with singular-value soft-thresholding.

    Small regularizers make the plain iteration crawl, so the threshold is
    annealed geometrically from the data's top singular value down to `lam`
    (warm starts); iterations at the target `lam` are the ones reported and
    their objective 0.5 * sum_omega (Q - Z)^2 + lam * ||Q||_* is checked to
    be nonincreasing (RuntimeError otherwise).  `max_iters` caps the total
    across all stages.

    Each iteration thresholds in a rank-k subspace spanned by the previous
    iterate's r surviving right singular vectors plus OVERSAMPLE more
    (k = r + OVERSAMPLE).  It uses a dense SVD of the m x n iterate instead
    on the first iteration, after an iterate with no survivors, when
    k + 1 > min(m, n) // 3, and when all k Ritz values exceed the threshold;
    `SolveInfo.dense_svds` counts those iterations.  Either way an iteration
    makes one `np.linalg.svd` call, so a solve makes `iterations + 2` with
    the top singular value and the final stage's starting objective.
    Results agree with an all-dense solve to about 10 * tol relative to
    max |Q|, not bit for bit.
    """
    row_idx, col_idx = omega
    if len(row_idx) == 0:
        raise ValueError("omega must be nonempty")
    if lam < 0 or tol <= 0:
        raise ValueError("lam must be >= 0 and tol > 0")
    values = np.asarray(values, dtype=float)
    Q = np.zeros(shape)
    filled = Q.copy()
    filled[row_idx, col_idx] = values
    top = float(np.linalg.svd(filled, compute_uv=False)[0])
    lam_path = []
    cur = top * continuation_decay
    floor = max(lam, 1e-12 * max(top, 1.0))
    while cur > floor / continuation_decay:
        lam_path.append(cur)
        cur *= continuation_decay
    lam_path.append(lam)

    objectives: list[float] = []
    total_iters = 0
    dense_svds = 0
    basis = None
    rel_change = np.inf
    for lam_k in lam_path:
        final_stage = lam_k == lam_path[-1]
        stage_tol = tol if final_stage else max(tol, 1e-4)
        if final_stage:
            fit0 = 0.5 * float(np.sum((Q[row_idx, col_idx] - values) ** 2))
            prev_obj = fit0 + lam * float(np.linalg.svd(Q, compute_uv=False).sum())
            objectives.append(prev_obj)
        while total_iters < max_iters:
            G = Q.copy()
            G[row_idx, col_idx] = values
            U, s, Vt, dense = _thresholded_svd(G, lam_k, basis)
            dense_svds += dense
            r = int(np.count_nonzero(s > lam_k))
            s_thr = s[:r] - lam_k
            Q_new = (U[:, :r] * s_thr) @ Vt[:r]
            basis = Vt[: r + OVERSAMPLE].T if r else None
            total_iters += 1
            if final_stage:
                # Q_new's singular values are exactly s_thr
                fit = 0.5 * float(np.sum((Q_new[row_idx, col_idx] - values) ** 2))
                obj = fit + lam * float(s_thr.sum())
                if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj)):
                    raise RuntimeError(f"soft-impute objective increased: {prev_obj!r} -> {obj!r}")
                objectives.append(obj)
                prev_obj = obj
            denom = max(float(np.linalg.norm(Q)), 1e-30)
            rel_change = float(np.linalg.norm(Q_new - Q)) / denom
            Q = Q_new
            if rel_change < stage_tol:
                break
    converged = rel_change < tol
    info = SolveInfo(
        iterations=total_iters,
        converged=converged,
        no_convergence=(not converged) and rel_change > 100 * tol,
        objectives=objectives,
        dense_svds=dense_svds,
    )
    return Q, info


@dataclass
class SubmatrixEstimate:
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    claimed_error: float
    info: "EstimateInfo | None" = None


@dataclass
class EstimateInfo:
    rounds_used: int
    reps_completed: int
    spawn_keys: list[tuple]
    diagnostics: list[dict]
    rep_estimates: list[np.ndarray]


def _partitioned_solve(
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    n_cols: int,
    lam: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[dict]]:
    """Split the larger dimension into ~square blocks and solve each one."""
    if n_rows > n_cols:
        est, diags = _partitioned_solve(col_idx, row_idx, values, n_cols, n_rows, lam, rng)
        return est.T, diags
    k = math.ceil(n_cols / n_rows)
    assignment = rng.integers(0, k, size=n_cols)
    groups = [np.flatnonzero(assignment == q) for q in range(k)]
    groups = [g for g in groups if len(g)]
    # a block whose columns carry no observations cannot be solved; hand its
    # columns to the smallest block that has observations
    obs_count = np.bincount(col_idx, minlength=n_cols)
    has_obs = [int(obs_count[g].sum()) > 0 for g in groups]
    if not any(has_obs):
        raise ValueError("no observations in any block")
    keep = [g for g, ok in zip(groups, has_obs) if ok]
    orphans = [g for g, ok in zip(groups, has_obs) if not ok]
    if orphans:
        smallest = min(range(len(keep)), key=lambda i: len(keep[i]))
        keep[smallest] = np.concatenate([keep[smallest]] + orphans)
    estimate = np.zeros((n_rows, n_cols))
    diags = []
    local = np.empty(n_cols, dtype=int)
    for block_no, g in enumerate(keep):
        local[g] = np.arange(len(g))
        sel = np.isin(col_idx, g)
        b_rows = row_idx[sel]
        b_cols = local[col_idx[sel]]
        b_vals = values[sel]
        block, info = solve_nuclear_norm(b_vals, (b_rows, b_cols), (n_rows, len(g)), lam)
        estimate[:, g] = block
        diags.append(
            {
                "block": block_no,
                "iterations": info.iterations,
                "converged": info.converged,
                "no_convergence": info.no_convergence,
                "dense_svds": info.dense_svds,
                "final_objective": info.objectives[-1],
            }
        )
    return estimate, diags


class OracleInstance:
    """Stateful estimator for one (users, arms) submatrix.

    Collects f independent Bernoulli masks (each over b passes) one arriving
    user at a time, solves the per-block convex programs as each repetition's
    data completes, and returns the entrywise median of the repetitions.
    """

    def __init__(self, users, arms, params: OracleParams, seed_seq: np.random.SeedSequence):
        self.users = np.asarray(users, dtype=int)
        self.arms = np.asarray(arms, dtype=int)
        self.params = params
        self._seed_seq = seed_seq
        self.rep_estimates: list[np.ndarray] = []
        self.spawn_keys: list[tuple] = []
        self.diagnostics: list[dict] = []
        self.max_abs_observed = 0.0
        self.rounds_used = 0
        self._collection: MaskCollection | None = None
        self._rep_rng: np.random.Generator | None = None
        self._start_repetition()

    def _start_repetition(self) -> None:
        if len(self.rep_estimates) >= self.params.f:
            self._collection = None
            return
        rep_ss = self._seed_seq.spawn(1)[0]
        self.spawn_keys.append(tuple(rep_ss.spawn_key))
        self._rep_rng = np.random.default_rng(rep_ss)
        mask = sample_mask(self.users, self.arms, self.params.p, self._rep_rng)
        if len(mask) == 0:
            # resample once with a fresh stream; tiny masks happen only for
            # tiny p * |U| * |V|
            mask = sample_mask(self.users, self.arms, self.params.p, self._rep_rng)
        self._collection = MaskCollection(mask, self.params.b, self._rep_rng)

    @property
    def collecting(self) -> bool:
        return self._collection is not None and not self._collection.done

    def choose(self, user: int) -> tuple[int, bool]:
        self.rounds_used += 1
        return self._collection.choose(user)

    def record(self, user: int, arm: int, reward: float) -> None:
        coll = self._collection
        coll.record(user, arm, reward)
        if abs(reward) > self.max_abs_observed:
            self.max_abs_observed = abs(reward)
        if coll.done:
            self._finish_repetition()

    def _finish_repetition(self) -> None:
        self._solve_repetition()
        self._start_repetition()

    def _solve_repetition(self) -> None:
        rows, cols, vals = self._collection.averaged_entries()
        est, diags = _partitioned_solve(
            rows,
            cols,
            vals,
            len(self.users),
            len(self.arms),
            self.params.lam,
            self._rep_rng,
        )
        rep_no = len(self.rep_estimates)
        for d in diags:
            d["repetition"] = rep_no
        self.diagnostics.extend(diags)
        self.rep_estimates.append(est)

    def estimate(self) -> SubmatrixEstimate | None:
        """Entrywise median of completed repetitions; None if none completed."""
        if not self.rep_estimates:
            return None
        values = np.median(np.stack(self.rep_estimates), axis=0)
        info = EstimateInfo(
            rounds_used=self.rounds_used,
            reps_completed=len(self.rep_estimates),
            spawn_keys=list(self.spawn_keys),
            diagnostics=list(self.diagnostics),
            rep_estimates=list(self.rep_estimates),
        )
        return SubmatrixEstimate(self.users, self.arms, values, self.params.zeta, info)

    def partial_estimate(self) -> SubmatrixEstimate | None:
        """`estimate`, or, when no repetition has completed, the current one
        solved on its fully averaged cells; None if it has none either."""
        # with no repetition completed, the first one is still collecting
        if not self.rep_estimates and (self._collection.counts >= self.params.b).any():
            self._solve_repetition()
        return self.estimate()


def run_oracle(
    env, users, arms, params: OracleParams, budget: int | None = None, seed: int = 0
) -> OracleInstance:
    """Collect for one `OracleInstance` over `users` x `arms` against a live
    environment, until all f repetitions finish or the budget runs out.
    Users outside the target set pull throwaway arms from the target arm set.
    """
    users = np.asarray(users, dtype=int)
    arms = np.asarray(arms, dtype=int)
    ss = seed_sequence(seed)
    inst = OracleInstance(users, arms, params, ss)
    outsiders = np.setdiff1d(np.arange(env.instance.num_users), users)
    outsider_rng = np.random.default_rng(ss.spawn(1)[0])
    end = env.horizon if budget is None else env.t + budget
    env.run(end, [users, outsiders], [arms, arms], outsider_rng, oracles=[inst, None])
    return inst


def low_rank_matrix_estimate(
    env, users, arms, params: OracleParams, budget: int | None = None, seed: int = 0
) -> SubmatrixEstimate:
    """The estimate of `run_oracle`; at least one repetition must complete."""
    est = run_oracle(env, users, arms, params, budget, seed).estimate()
    if est is None:
        raise InsufficientBudgetError(
            f"budget exhausted before any of the {params.f} repetitions finished"
        )
    return est
