"""Helpers shared by the test modules."""

import contextlib
import csv
import io
import typing

import numpy as np
import pytest

from clusterbandits import bench, env
from clusterbandits.baselines import KMEANS_ITERS
from clusterbandits.completion import (
    OVERSAMPLE,
    SolveInfo,
    _partitioned_solve,
    _thresholded_svd,
    sample_mask,
)


def run_policy(run, instance, config, horizon: int, seed, noise=None):
    """(environment, trace) of one cell of the policy `run` on `instance`:
    the environment, which is the run's ledger, and the policy seed are
    `bench.open_cell`'s, and the finished run is checked and its trace's
    oracle errors measured as a report's are."""
    cell, policy_seed = bench.open_cell(instance, noise, horizon, seed)
    trace = run(cell, config, policy_seed)
    bench.check_run(cell, trace)
    bench.measure_oracle(trace, instance.P)
    return cell, trace


def ucb_index(state, arm: int) -> float:
    """The cached UCB index of `arm` in the `lattice.UcbArmState` `state`;
    KeyError for an arm it does not track."""
    if arm not in state.arms:
        raise KeyError(f"arm {arm} not tracked")
    return float(state._index[state.arms.index(arm)])


@contextlib.contextmanager
def svd_calls():
    """Records every `np.linalg.svd` call, in call order, as (input shape,
    whether it computes singular vectors) into the list it yields.  Of a
    solve's calls, the (m x n, True) ones are its dense SVDs of the iterate:
    the top singular value and the nuclear norms take no vectors."""
    calls = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", recording_svd)
        yield calls


def noisy_reward(noise: env.NoiseModel, mean: float, draw: float) -> float:
    """The reward a round of mean `mean` pays under `noise` with its noise
    draw `draw`: the reference rule that `Environment.play` applies."""
    if noise.kind == "bernoulli-reward":
        return 1.0 if draw < mean else 0.0
    return mean + draw


def regret_at(ledger, instance, t: int) -> float:
    """Cumulative regret of the environment `ledger` on `instance` after
    round t (1-based round count)."""
    if t <= 0:
        return 0.0
    return float(bench.played_regret(ledger, [min(t, ledger.t)], instance)[1][0])


class WholeRun(typing.NamedTuple):
    inst_regret: np.ndarray
    cumulative_regret: np.ndarray
    final_regret: float


def whole_run(ledger, instance) -> WholeRun:
    """The instantaneous and cumulative regret on `instance` of every round
    the environment `ledger` played, and its final regret (0.0 before any
    round)."""
    inst, cum = bench.played_regret(ledger, np.arange(1, ledger.t + 1), instance)
    return WholeRun(inst, cum, float(cum[-1]) if len(cum) else 0.0)


class ClosedRegret:
    """Regret columns filled block by block as rounds are played, each
    block's running total its first addend: the reference that
    `bench.played_regret` must equal bit for bit, wherever the blocks end.
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

    def close_played(self, ledger) -> None:
        """Close the rounds that the environment `ledger` played since the
        last close, CLOSE_CHUNK rounds at a time."""
        for n in range(self._n, ledger.t, env.CLOSE_CHUNK):
            rounds = slice(n, min(n + env.CLOSE_CHUNK, ledger.t))
            users, arms = ledger.users[rounds], ledger.arms[rounds]
            self.close(self._best[users] - self._P[users, arms])

    @property
    def final_regret(self) -> float:
        return self._total


def ledger_with_regrets(regrets) -> tuple[env.Environment, env.Instance]:
    """A played one-user environment and the instance on which its
    instantaneous regrets are `regrets`, bit for bit.  Arm 0 counts as the
    best arm and pays -0.0; round i plays arm i, which pays p with -0.0 - p
    == regrets[i - 1]: -r for a nonzero r, and 0.0 for -0.0 and -0.0 for
    0.0.  A negative regret is allowed."""
    values = np.asarray(regrets, dtype=float)
    pays = np.where(values == 0.0, np.where(np.signbit(values), 0.0, -0.0), -values)
    P = np.concatenate([[-0.0], pays])[None, :]
    instance = env.Instance(1, P.shape[1], 1, P, [0], P)
    instance.best_arm = np.zeros(1, dtype=int)
    # a horizon is at least one round, played or not
    ledger = env.Environment(instance, None, 0, max(len(values), 1))
    # the one user arrives every round; round i plays arm i
    ledger.arms[: len(values)] = np.arange(1, len(values) + 1)
    ledger.t = len(values)
    return ledger, instance


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
        self.rep_estimates, self.unconverged_solves = [], 0
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
            est, unconverged = _partitioned_solve(
                rows, cols, vals, len(self.users), len(self.arms), self.params.lam, self._rep_rng
            )
            self.unconverged_solves += unconverged
            self.rep_estimates.append(est)
            self._start_repetition()


def dense_iterate_solve(values, omega, shape, lam, tol=1e-6, max_iters=500, continuation_decay=0.25):
    """`solve_nuclear_norm` as it held the iterate Q as a dense matrix,
    building each iteration's fill from a copy of Q and taking the relative
    change from dense norms of Q and Q_new - Q: the reference that the
    factored iterate must match bit for bit.  Like it, the final stage's
    starting objective takes Q's nuclear norm from Q's left factor P (Q = P @
    Vt with orthonormal rows), which must agree with Q's own singular values
    to 1e-12 relative.  Returns (Q, SolveInfo, the final stage's objectives:
    its starting one, then one per iteration)."""
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
            U, s, Vt = _thresholded_svd(G, lam_k, basis)
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
    return Q, SolveInfo(iterations=total_iters, converged=rel_change < tol), objectives


def reference_thresholded_svd(G, lam_k, basis):
    """`completion._thresholded_svd` as it orthonormalized three times per
    power iteration and took the SVD of the wide k x n projection Y^T G: the
    reference that the two-QR step with its tall SVD must agree with."""
    if basis is not None and basis.shape[1] + 1 <= min(G.shape) // 3:
        Y = np.linalg.qr(G @ basis)[0]
        Z = np.linalg.qr(G.T @ Y)[0]
        Y = np.linalg.qr(G @ Z)[0]
        B = Y.T @ G
        if np.linalg.eigvalsh(B @ B.T)[0] <= lam_k * lam_k:
            Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
            return Y @ Ub, s, Vt
    return np.linalg.svd(G, full_matrices=False)


def reference_kmeans_once(rows, k, rng):
    """`baselines._kmeans_once` as it assigned every Lloyd step and took the
    objective from the broadcast distances of every row to every centre: the
    reference whose labels and objective the one-product assignment must
    reproduce bit for bit."""
    n = len(rows)
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
    labels = None
    for _ in range(KMEANS_ITERS):
        dists = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dists, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = rows[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    dists = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    objective = float(dists[np.arange(n), labels].sum())
    return labels, objective
