"""Helpers shared by the test modules."""

import numpy as np

from clusterbandits import bench
from clusterbandits.completion import (
    OVERSAMPLE,
    SolveInfo,
    _partitioned_solve,
    _thresholded_svd,
    sample_mask,
)


def regret_at(history, t: int) -> float:
    """Cumulative regret of `history` after round t (1-based round count)."""
    if t <= 0:
        return 0.0
    return float(history.cumulative_regret[min(t, len(history)) - 1])


def _text(value) -> str:
    """Config-file text of one parsed value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def serialize_config(config) -> str:
    """Config-file text of a parsed `bench.ExperimentConfig`."""
    experiment = {key: getattr(config, key) for key in bench.EXPERIMENT_TYPES}
    lines: list[str] = []
    sections = [("instance", config.instance), ("experiment", experiment)]
    for name, body in sections + [(f"algorithm {a}", b) for a, b in config.algorithms]:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_text(value)}" for key, value in body.items())
    return "\n".join(lines) + "\n"


class IndexedMaskCollection:
    """`MaskCollection` as it served one arrival at a time, indexing numpy
    arrays on every call: the per-arrival reference of `plan` and `credit`."""

    def __init__(self, mask, b, rng):
        self.mask, self.b, self.rng = mask, b, rng
        self.sums = np.zeros(len(mask))
        self.counts = np.zeros(len(mask), dtype=int)
        self._entries_of_row = [np.flatnonzero(mask.entry_row == i) for i in range(len(mask.rows))]
        self._row_of_user = {int(u): i for i, u in enumerate(mask.rows)}
        all_cols = np.arange(len(mask.cols))
        self._filler_cols = []
        for entries in self._entries_of_row:
            free = np.setdiff1d(all_cols, np.unique(mask.entry_col[entries]))
            self._filler_cols.append(free if len(free) else all_cols)
        self._pass_idx = 0 if len(mask) else b
        if len(mask):
            self._start_pass()

    def _start_pass(self):
        self._pending = []
        for entries in self._entries_of_row:
            stack = entries.copy()
            self.rng.shuffle(stack)
            self._pending.append(list(stack))
        self._outstanding = len(self.mask)

    @property
    def done(self):
        return self._pass_idx >= self.b

    def choose(self, user):
        i = self._row_of_user[user]
        if self._pass_idx < self.b and self._pending[i]:
            entry = self._pending[i][-1]
            return int(self.mask.cols[self.mask.entry_col[entry]]), True
        free = self._filler_cols[i]
        return int(self.mask.cols[free[self.rng.integers(len(free))]]), False

    def record(self, user, arm, reward):
        i = self._row_of_user[user]
        entry = self._pending[i].pop()
        self.sums[entry] += reward
        self.counts[entry] += 1
        self._outstanding -= 1
        if self._outstanding == 0:
            self._pass_idx += 1
            if self._pass_idx < self.b:
                self._start_pass()

    def averaged_entries(self):
        done = self.counts >= self.b
        m = self.mask
        return m.entry_row[done], m.entry_col[done], self.sums[done] / self.counts[done]


class PerRoundOracle:
    """`OracleInstance` as it served one arrival at a time through `choose`
    and `record`, solving each repetition in the record that completed it:
    the per-round reference of `serve` and `credit`."""

    def __init__(self, users, arms, params, seed_seq):
        self.users, self.arms = np.asarray(users, dtype=int), np.asarray(arms, dtype=int)
        self.params, self._seed_seq = params, seed_seq
        self.rep_estimates, self.spawn_keys, self.diagnostics = [], [], []
        self.max_abs_observed = 0.0
        self.rounds_used = 0
        self._start_repetition()

    def _start_repetition(self):
        if len(self.rep_estimates) >= self.params.f:
            self._collection = None
            return
        rep_ss = self._seed_seq.spawn(1)[0]
        self.spawn_keys.append(tuple(rep_ss.spawn_key))
        self._rep_rng = np.random.default_rng(rep_ss)
        mask = sample_mask(self.users, self.arms, self.params.p, self._rep_rng)
        if len(mask) == 0:
            mask = sample_mask(self.users, self.arms, self.params.p, self._rep_rng)
        self._collection = IndexedMaskCollection(mask, self.params.b, self._rep_rng)

    @property
    def collecting(self):
        return self._collection is not None and not self._collection.done

    def choose(self, user):
        self.rounds_used += 1
        return self._collection.choose(user)

    def record(self, user, arm, reward):
        coll = self._collection
        coll.record(user, arm, reward)
        if abs(reward) > self.max_abs_observed:
            self.max_abs_observed = abs(reward)
        if coll.done:
            rows, cols, vals = coll.averaged_entries()
            est, diags = _partitioned_solve(
                rows, cols, vals, len(self.users), len(self.arms), self.params.lam, self._rep_rng
            )
            for d in diags:
                d["repetition"] = len(self.rep_estimates)
            self.diagnostics.extend(diags)
            self.rep_estimates.append(est)
            self._start_repetition()


def dense_iterate_solve(values, omega, shape, lam, tol=1e-6, max_iters=500, continuation_decay=0.25):
    """`solve_nuclear_norm` as it held the iterate Q as a dense matrix,
    building each iteration's fill from a copy of Q and taking the relative
    change from dense norms of Q and Q_new - Q: the reference that the
    factored iterate must match bit for bit."""
    row_idx, col_idx = omega
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
    objectives = []
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
    info = SolveInfo(
        iterations=total_iters,
        converged=rel_change < tol,
        objectives=objectives,
        dense_svds=dense_svds,
    )
    return Q, info
