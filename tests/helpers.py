"""Helpers shared by the test modules."""

import csv
import io
import typing

import numpy as np

from clusterbandits import bench, env
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
    return float(history.regret([min(t, len(history))])[1][0])


class WholeRun(typing.NamedTuple):
    inst_regret: np.ndarray
    cumulative_regret: np.ndarray
    final_regret: float


def whole_run(history) -> WholeRun:
    """The instantaneous and cumulative regret of every round `history`
    played, and its final regret (0.0 before any round)."""
    inst, cum = history.regret(np.arange(1, len(history) + 1))
    return WholeRun(inst, cum, float(cum[-1]) if len(cum) else 0.0)


class ClosedRegret:
    """Regret columns filled block by block as rounds are played, each
    block's running total its first addend: the reference that
    `RunHistory.regret` must equal bit for bit, wherever the blocks end.
    `instance`, if given, is the matrix whose ledgers `close_played` reads."""

    def __init__(self, capacity: int, instance=None):
        if instance is not None:
            self._P = instance.P
            self._best = instance.P[np.arange(instance.num_users), instance.best_arm]
        self._n = 0
        self.inst_regret = np.empty(capacity, dtype=float)
        self.cumulative_regret = np.empty(capacity, dtype=float)
        self._total = 0.0

    def __len__(self) -> int:
        return self._n

    def close(self, inst_regret: np.ndarray) -> None:
        """Record the instantaneous regrets of the next `len(inst_regret)` rounds."""
        n, k = self._n, len(inst_regret)
        if not k:
            return
        self.inst_regret[n : n + k] = inst_regret
        cum = self.cumulative_regret[n : n + k]
        cum[:] = inst_regret
        cum[0] = self._total + cum[0]
        np.cumsum(cum, out=cum)
        self._total = float(cum[-1])
        self._n = n + k

    def close_played(self, history) -> None:
        """Close `history`'s rounds played since the last close, CLOSE_CHUNK
        rounds at a time."""
        for n in range(self._n, len(history), env.CLOSE_CHUNK):
            rounds = slice(n, min(n + env.CLOSE_CHUNK, len(history)))
            users, arms = history.users[rounds], history.arms[rounds]
            self.close(self._best[users] - self._P[users, arms])

    @property
    def final_regret(self) -> float:
        return self._total


def ledger_with_regrets(regrets) -> env.RunHistory:
    """A played one-user ledger whose instantaneous regrets are `regrets`,
    bit for bit.  Arm 0 counts as the best arm and pays -0.0; round i plays
    arm i, which pays p with -0.0 - p == regrets[i - 1]: -r for a nonzero r,
    and 0.0 for -0.0 and -0.0 for 0.0.  A negative regret is allowed."""
    values = np.asarray(regrets, dtype=float)
    pays = np.where(values == 0.0, np.where(np.signbit(values), 0.0, -0.0), -values)
    P = np.concatenate([[-0.0], pays])[None, :]
    instance = env.Instance(1, P.shape[1], 1, P, [0], P)
    instance.best_arm = np.zeros(1, dtype=int)
    history = env.RunHistory(instance, len(values))
    history.users[:], history.rewards[:] = 0, 0.0
    history.arms[:] = np.arange(1, len(values) + 1)
    history.played = len(values)
    return history


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


def _trace_rows(trace) -> list[dict]:
    """The phase_trace.csv fields of each record of `trace`, as dicts."""
    rows = []
    for r in trace.records:
        row = {
            "phase": r.phase,
            "delta": "" if r.delta is None else format(r.delta, ".17g"),
            "num_sets": len(r.user_sets),
            "set_sizes": ";".join(str(len(s)) for s in r.user_sets),
            "arm_set_sizes": ";".join(str(len(a)) for a in r.arm_sets),
            "rounds_used": r.rounds_used,
            "oracle_error": "" if r.oracle_error is None else format(r.oracle_error, ".17g"),
        }
        if trace.has_mode:
            row["mode"] = r.mode
        rows.append(row)
    return rows


def reference_trace_csv(report) -> str:
    """phase_trace.csv of `report` as it was written from one dict per
    record through `csv.writer`: the byte-for-byte reference of
    `bench.emit_report`'s trace rows."""
    rows = []
    for run in report.runs:
        if run.trace is None:
            continue
        for row in _trace_rows(run.trace):
            row.setdefault("mode", "")
            row.update(run_id=run.run_id, algorithm=run.algorithm, seed=run.seed)
            rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(bench.TRACE_FIELDS)
    writer.writerows([row.get(k, "") for k in bench.TRACE_FIELDS] for row in rows)
    return buf.getvalue()


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
        self.rep_estimates, self.diagnostics = [], []
        self.max_abs_observed = 0.0
        self._start_repetition()

    def _start_repetition(self):
        if len(self.rep_estimates) >= self.params.f:
            self._collection = None
            return
        self._rep_rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        mask = sample_mask(self.users, self.arms, self.params.p, self._rep_rng)
        if len(mask) == 0:
            mask = sample_mask(self.users, self.arms, self.params.p, self._rep_rng)
        self._collection = IndexedMaskCollection(mask, self.params.b, self._rep_rng)

    @property
    def collecting(self):
        return self._collection is not None and not self._collection.done

    def choose(self, user):
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
    factored iterate must match bit for bit.  Like it, the final stage's
    starting objective takes Q's nuclear norm from Q's left factor P (Q = P @
    Vt with orthonormal rows), which must agree with Q's own singular values
    to 1e-12 relative."""
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
    P = np.zeros((shape[0], 0))
    for lam_k in lam_path:
        final_stage = lam_k == lam_path[-1]
        stage_tol = tol if final_stage else max(tol, 1e-4)
        if final_stage:
            fit0 = 0.5 * float(np.sum((Q[row_idx, col_idx] - values) ** 2))
            nuclear = float(np.linalg.svd(P, compute_uv=False).sum())
            dense_norm = float(np.linalg.svd(Q, compute_uv=False).sum())
            assert abs(nuclear - dense_norm) <= 1e-12 * max(dense_norm, 1.0)
            prev_obj = fit0 + lam * nuclear
            objectives.append(prev_obj)
        while total_iters < max_iters:
            G = Q.copy()
            G[row_idx, col_idx] = values
            U, s, Vt, dense = _thresholded_svd(G, lam_k, basis)
            dense_svds += dense
            r = int(np.count_nonzero(s > lam_k))
            s_thr = s[:r] - lam_k
            P = U[:, :r] * s_thr
            Q_new = P @ Vt[:r]
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
