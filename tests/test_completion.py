import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterbandits import completion
from clusterbandits.completion import (
    C_LAMBDA,
    MU,
    Mask,
    MaskCollection,
    OracleParams,
    _change_norm,
    derive_oracle_params,
    run_oracle,
    sample_mask,
    solve_nuclear_norm,
)
from clusterbandits.env import Environment, NoiseModel, RowDistribution, generate_cs_instance
from helpers import IndexedMaskCollection, dense_iterate_solve, svd_calls

# LatticeConfig's oracle constants, which `derive_oracle_params` requires
CONSTANTS = dict(c_p=1.0, c_b=1.0, f_cap=15)


def test_derive_params_zero_noise_single_pass():
    params = derive_oracle_params(100, 100, 2, sigma=0.0, zeta=0.1, T=1000, **CONSTANTS)
    assert params.b == 1
    assert params.lam > 0  # noiseless floor keeps unobserved entries coupled


def test_derive_params_b_formula():
    params = derive_oracle_params(50, 200, 4, sigma=1.0, zeta=0.05, T=1000, **CONSTANTS)
    # scripted evaluation of the formula
    expected = math.ceil((1.0 * 1.0 * 4 * math.sqrt(MU) / (0.05 * math.log(50))) ** 2)
    assert params.b == expected
    lam = C_LAMBDA * (1.0 / math.sqrt(expected)) * math.sqrt(50 * params.p)
    assert params.lam == pytest.approx(lam)


def test_derive_params_p_clamps_to_one():
    # c_p * MU**2 * log(10)**3 / 10 is about 1.22
    params = derive_oracle_params(10, 10, 2, sigma=1.0, zeta=0.5, T=100, **CONSTANTS)
    assert params.p == 1.0


def test_derive_params_f_formula_and_cap():
    params = derive_oracle_params(200, 200, 4, sigma=0.5, zeta=0.1, T=60000, **CONSTANTS)
    assert params.f == 15
    params2 = derive_oracle_params(4, 4, 2, sigma=0.5, zeta=0.1, T=10, **CONSTANTS)
    assert params2.f == math.ceil(math.log(4 * 4 * 10))


def _omega(mask):
    """Masked cells as global (user, arm) pairs."""
    return set(zip(mask.rows[mask.entry_row].tolist(), mask.cols[mask.entry_col].tolist()))


def test_sample_mask_full_when_p_one():
    rng = np.random.default_rng(0)
    mask = sample_mask([3, 5, 9], [1, 2], 1.0, rng)
    assert len(mask) == 6
    assert _omega(mask) == {(3, 1), (3, 2), (5, 1), (5, 2), (9, 1), (9, 2)}


def test_sample_mask_binomial_concentration():
    sizes = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mask = sample_mask(np.arange(100), np.arange(100), 0.3, rng)
        sizes.append(len(mask))
    bound = 5 * math.sqrt(10**4 * 0.3 * 0.7)
    assert all(abs(s - 3000) <= bound for s in sizes)


def test_sample_mask_deterministic():
    a = sample_mask(np.arange(10), np.arange(10), 0.5, np.random.default_rng(42))
    b = sample_mask(np.arange(10), np.arange(10), 0.5, np.random.default_rng(42))
    assert _omega(a) == _omega(b)


def _one_entry_per_user_mask(num_users, num_arms, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.arange(num_users)
    cols = np.arange(num_arms)
    entry_row = np.arange(num_users)
    entry_col = rng.integers(0, num_arms, size=num_users)
    return Mask(rows, cols, entry_row, entry_col)


class _Collector:
    """A MaskCollection in the oracle role of `Environment.run`."""

    def __init__(self, coll):
        self.coll = coll
        self.row_of = {int(u): i for i, u in enumerate(coll.mask.rows)}

    @property
    def collecting(self):
        return not self.coll.done

    def serve(self, users):
        return self.coll.plan(np.array([self.row_of[u] for u in users.tolist()]))[0]

    def credit(self, rewards):
        self.coll.credit(rewards)


def _collect(env, mask, b, budget, seed):
    """Drive a MaskCollection through Environment.run for at most `budget`
    rounds; users outside the mask pull a random mask column, drawn from a
    generator of their own.  Returns the collection and the rounds used."""
    coll = MaskCollection(mask, b, np.random.default_rng(seed))
    members = set(mask.rows.tolist())
    others = [u for u in range(env.num_users) if u not in members]
    start = env.t
    env.run(
        start + budget, [mask.rows.tolist(), others], [mask.cols, mask.cols],
        np.random.default_rng([seed, 1]), oracles=[_Collector(coll), None],
    )
    return coll, env.t - start


def test_collect_noiseless_single_observation_exact():
    inst = generate_cs_instance(5, 4, 2, RowDistribution.gaussian(0, 1), seed=1)
    mask = _one_entry_per_user_mask(5, 4, seed=3)
    env = Environment(inst, NoiseModel("none"), seed=0, horizon=500)
    coll, _ = _collect(env, mask, b=1, budget=500, seed=9)
    assert coll.done
    rows, cols, vals = coll.averaged_entries()
    for i, j, v in zip(rows, cols, vals):
        assert v == inst.P[int(mask.rows[i]), int(mask.cols[j])]


def test_collect_variance_reduction():
    inst = generate_cs_instance(5, 5, 1, RowDistribution.uniform(0.5, 0.5), seed=0)
    mask = sample_mask(np.arange(5), np.arange(5), 1.0, np.random.default_rng(0))
    cell_values = []
    for seed in range(200):
        env = Environment(inst, NoiseModel("gaussian", 1.0), seed=seed, horizon=4000)
        coll, _ = _collect(env, mask, b=4, budget=4000, seed=seed)
        assert coll.done
        _, _, vals = coll.averaged_entries()
        cell_values.append(vals[0])
    var = np.var(cell_values)
    assert 0.25 / 1.5 <= var <= 0.25 * 1.5


def test_collect_budget_zero():
    inst = generate_cs_instance(4, 4, 2, RowDistribution.gaussian(0, 1), seed=1)
    mask = sample_mask(np.arange(4), np.arange(4), 0.5, np.random.default_rng(0))
    env = Environment(inst, NoiseModel("none"), seed=0, horizon=100)
    coll, rounds = _collect(env, mask, b=1, budget=0, seed=0)
    assert not coll.done
    assert rounds == 0 and env.t == 0
    assert np.all(coll.counts == 0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    num_rows=st.integers(1, 4),
    num_cols=st.integers(1, 4),
    # 0 and 1 give the empty mask and full rows, which have no free column
    p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    b=st.integers(1, 3),
    arrivals=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_collection_matches_numpy_indexed_reference(num_rows, num_cols, p, b, arrivals, seed):
    rng = np.random.default_rng(seed)
    rows = rng.choice(50, size=num_rows, replace=False)
    cols = rng.choice(50, size=num_cols, replace=False)
    entry_row, entry_col = np.nonzero(rng.random((num_rows, num_cols)) < p)
    mask = Mask(rows, cols, entry_row, entry_col)
    coll = MaskCollection(mask, b, np.random.default_rng(seed + 1))
    ref = IndexedMaskCollection(mask, b, np.random.default_rng(seed + 1))
    pulls = []
    for _ in range(arrivals):
        # `choose` serves one arrival while the collection collects
        if ref.done:
            break
        user = int(rows[rng.integers(num_rows)])
        arm, masked = coll.choose(user)
        assert (arm, masked) == ref.choose(user)
        assert type(arm) is int
        pulls.append(masked)
        if masked:
            reward = float(rng.normal())
            coll.record(user, arm, reward)
            ref.record(user, arm, reward)
    assert sum(pulls) <= b * len(mask)
    assert coll.done == (ref._pass_idx >= b)
    assert coll.sums.tobytes() == ref.sums.tobytes()
    assert np.array_equal(coll.counts, ref.counts) and coll.counts.dtype == ref.counts.dtype
    assert coll.rng.bit_generator.state == ref.rng.bit_generator.state


def _shaped_mask(num_cols, shapes, rng):
    """A mask over len(shapes) rows: row i holds no cell ("empty"), one cell
    ("single"), about half its columns ("half") or all of them ("full")."""
    grid = np.zeros((len(shapes), num_cols), dtype=bool)
    for i, shape in enumerate(shapes):
        if shape == "single":
            grid[i, rng.integers(num_cols)] = True
        elif shape == "half":
            grid[i] = rng.random(num_cols) < 0.5
        elif shape == "full":
            grid[i] = True
    entry_row, entry_col = np.nonzero(grid)
    rows = rng.choice(50, size=len(shapes), replace=False)
    return Mask(rows, rng.choice(50, size=num_cols, replace=False), entry_row, entry_col)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    num_cols=st.integers(1, 5),
    shapes=st.lists(st.sampled_from(["empty", "single", "half", "full"]), min_size=1, max_size=5),
    b=st.integers(1, 4),
    picks=st.lists(st.integers(0, 4), max_size=150),
    cuts=st.lists(st.integers(0, 150), max_size=8),
    pass_cuts=st.lists(st.integers(0, 20), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# one arrival completes the only pass
@example(num_cols=1, shapes=["single"], b=1, picks=[0], cuts=[], pass_cuts=[0], seed=0)
# rows that owe every column, cut at every pass end
@example(num_cols=3, shapes=["full", "empty", "full"], b=4, picks=[0, 1, 2] * 20, cuts=[],
         pass_cuts=[0, 1, 2, 3], seed=1)
# one block of 40 passes over a mask with no multi-cell row: one draw call
@example(num_cols=2, shapes=["single", "empty", "empty"], b=40, picks=[0, 1, 2] * 50, cuts=[],
         pass_cuts=[], seed=2)
# one block of 30 passes with a full row, shuffled at every pass end
@example(num_cols=3, shapes=["full", "single"], b=30, picks=[0, 1, 0, 1, 0] * 40, cuts=[],
         pass_cuts=[], seed=3)
def test_planned_collection_matches_per_arrival_reference(
    num_cols, shapes, b, picks, cuts, pass_cuts, seed
):
    rng = np.random.default_rng(seed)
    mask = _shaped_mask(num_cols, shapes, rng)
    rows = np.array(picks, dtype=np.int64) % len(shapes)
    rewards = rng.normal(size=len(rows))
    # the reference serves one arrival at a time until it is done; it notes
    # where each pass ends
    ref = IndexedMaskCollection(mask, b, np.random.default_rng(seed + 1))
    want_arms, want_masked, pass_ends = [], [], []
    for a, row in enumerate(rows.tolist()):
        if ref.done:
            break
        user = int(mask.rows[row])
        arm, masked = ref.choose(user)
        want_arms.append(arm)
        want_masked.append(masked)
        if masked:
            before = ref._pass_idx
            ref.record(user, arm, rewards[a])
            if ref._pass_idx > before:
                pass_ends.append(a + 1)
    # blocks cut at arbitrary points and exactly at pass ends (the last of
    # which is the end of the collection)
    marks = {c % (len(rows) + 1) for c in cuts}
    marks |= {pass_ends[k % len(pass_ends)] for k in pass_cuts} if pass_ends else set()
    bounds = sorted(marks | {0, len(rows)})
    coll = MaskCollection(mask, b, np.random.default_rng(seed + 1))
    got_arms, got_masked = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo == 1 and not coll.done:
            # the one-arrival case, through `choose` and `record`
            user = int(mask.rows[rows[lo]])
            arm, masked = coll.choose(user)
            assert type(arm) is int
            if masked:
                coll.record(user, arm, rewards[lo])
            got_arms.append(arm)
            got_masked.append(masked)
            continue
        arms, masked = coll.plan(rows[lo:hi])
        assert len(arms) == len(masked) <= hi - lo
        # a block is served whole unless the collection finished in it
        assert len(arms) == hi - lo or coll.done
        coll.credit(rewards[lo : lo + len(arms)])
        got_arms += arms.tolist()
        got_masked += masked.tolist()
    assert got_arms == want_arms
    assert got_masked == want_masked
    assert coll.done == ref.done
    assert coll.sums.tobytes() == ref.sums.tobytes()
    assert np.array_equal(coll.counts, ref.counts) and coll.counts.dtype == ref.counts.dtype
    assert coll.rng.bit_generator.state == ref.rng.bit_generator.state


def test_solver_unregularized_full_observation_returns_input():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(6, 5))
    rows, cols = np.nonzero(np.ones_like(Z, dtype=bool))
    out, info = solve_nuclear_norm(Z[rows, cols], (rows, cols), Z.shape, lam=0.0)
    assert np.allclose(out, Z, atol=1e-10)
    assert info.converged


def test_solver_recovers_rank_one_noiseless():
    rng = np.random.default_rng(2)
    u = rng.normal(size=20)
    v = rng.normal(size=20)
    truth = np.outer(u, v)
    mask = rng.random(truth.shape) < 0.6
    rows, cols = np.nonzero(mask)
    out, _ = solve_nuclear_norm(truth[rows, cols], (rows, cols), truth.shape, lam=1e-3)
    assert np.max(np.abs(out - truth)) <= 1e-2


def test_solver_large_lambda_returns_zero():
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(8, 8))
    top_sv = np.linalg.svd(Z, compute_uv=False)[0]
    rows, cols = np.nonzero(np.ones_like(Z, dtype=bool))
    vals = Z[rows, cols]
    out, _ = solve_nuclear_norm(vals, (rows, cols), Z.shape, lam=top_sv * 1.01)
    assert np.allclose(out, 0.0)
    # the fixed point is optimal: objective at 0 no worse than at Z
    def objective(Q):
        fit = 0.5 * float(np.sum((Q[rows, cols] - vals) ** 2))
        return fit + top_sv * 1.01 * float(np.linalg.svd(Q, compute_uv=False).sum())

    assert objective(out) <= objective(Z)


def test_solver_objective_monotone():
    rng = np.random.default_rng(5)
    truth = np.outer(rng.normal(size=15), rng.normal(size=12))
    mask = rng.random(truth.shape) < 0.5
    rows, cols = np.nonzero(mask)
    noisy = truth[rows, cols] + rng.normal(0, 0.2, size=len(rows))
    # the solver keeps only the last objective; the dense reference, whose
    # iterates it matches bit for bit, lists them all
    Q, _ = solve_nuclear_norm(noisy, (rows, cols), truth.shape, lam=0.5)
    ref_Q, _, objectives = dense_iterate_solve(noisy, (rows, cols), truth.shape, lam=0.5)
    assert np.array_equal(Q, ref_Q)
    objs = np.array(objectives)
    assert len(objs) > 2
    assert np.all(np.diff(objs) <= 1e-9 * (1 + np.abs(objs[:-1])))


def test_solver_raises_when_a_final_stage_objective_increases(monkeypatch):
    # inflate the singular values of the second final-stage iteration: its
    # iterate then overshoots the data, and the objective guard must fire
    rng = np.random.default_rng(5)
    truth = np.outer(rng.normal(size=15), rng.normal(size=12))
    rows, cols = np.nonzero(rng.random(truth.shape) < 0.5)
    noisy = truth[rows, cols] + rng.normal(0, 0.2, size=len(rows))
    thresholded = completion._thresholded_svd
    final_calls = []

    def inflating(G, lam_k, basis):
        U, s, Vt = thresholded(G, lam_k, basis)
        if lam_k == 0.5:
            final_calls.append(lam_k)
            if len(final_calls) == 2:
                s = 10.0 * s + 1.0
        return U, s, Vt

    monkeypatch.setattr(completion, "_thresholded_svd", inflating)
    with pytest.raises(RuntimeError, match="objective increased") as raised:
        solve_nuclear_norm(noisy, (rows, cols), truth.shape, lam=0.5)
    before, after = map(float, str(raised.value).split(": ")[1].split(" -> "))
    assert after > before > 0
    assert len(final_calls) == 2


def test_solver_error_nonincreasing_in_p():
    rng = np.random.default_rng(11)
    truth = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 30))
    p_grid = [0.3, 0.5, 0.8]
    mean_errors = []
    for p in p_grid:
        errs = []
        for seed in range(10):
            mask_rng = np.random.default_rng(seed)
            mask = mask_rng.random(truth.shape) < p
            rows, cols = np.nonzero(mask)
            out, _ = solve_nuclear_norm(truth[rows, cols], (rows, cols), truth.shape, lam=1e-3)
            errs.append(np.max(np.abs(out - truth)))
        mean_errors.append(np.mean(errs))
    inversions = [
        (a - b) / max(b, 1e-12)
        for a, b in zip(mean_errors[1:], mean_errors[:-1])
        if a > b
    ]
    assert len(inversions) <= 1
    assert all(size <= 0.10 for size in inversions)


def _dense_soft_impute(values, omega, shape, lam, tol=1e-6, max_iters=500, decay=0.25):
    """Reference: the same annealed soft-impute with a full dense SVD every
    iteration; returns (Q, iterations)."""
    rows, cols = omega
    Q = np.zeros(shape)
    filled = Q.copy()
    filled[rows, cols] = values
    top = float(np.linalg.svd(filled, compute_uv=False)[0])
    path, cur, floor = [], top * decay, max(lam, 1e-12 * max(top, 1.0))
    while cur > floor / decay:
        path.append(cur)
        cur *= decay
    path.append(lam)
    iters = 0
    for k, lam_k in enumerate(path):
        stage_tol = tol if k == len(path) - 1 else max(tol, 1e-4)
        while iters < max_iters:
            G = Q.copy()
            G[rows, cols] = values
            U, s, Vt = np.linalg.svd(G, full_matrices=False)
            Q_new = (U * np.maximum(s - lam_k, 0.0)) @ Vt
            iters += 1
            change = np.linalg.norm(Q_new - Q) / max(np.linalg.norm(Q), 1e-30)
            Q = Q_new
            if change < stage_tol:
                break
    return Q, iters


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.integers(8, 70),
    n=st.integers(8, 70),
    rank=st.integers(1, 4),
    p=st.floats(0.3, 1.0),
    sigma=st.floats(0.0, 0.5),
    lam_scale=st.sampled_from([0.0, 1.0, 3.0]),
    tol=st.sampled_from([1e-6, 1e-5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_solver_matches_dense_reference(m, n, rank, p, sigma, lam_scale, tol, seed):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    rows, cols = np.nonzero(rng.random((m, n)) < p)
    if len(rows) == 0:
        return
    vals = truth[rows, cols] + sigma * rng.normal(size=len(rows))
    lam = 1e-3 + lam_scale * sigma * math.sqrt(min(m, n) * p)
    out, info = solve_nuclear_norm(vals, (rows, cols), (m, n), lam, tol=tol)
    ref, ref_iters = _dense_soft_impute(vals, (rows, cols), (m, n), lam, tol=tol)
    scale = max(float(np.abs(ref).max()), 1e-30)
    assert np.abs(out - ref).max() <= 10 * tol * scale
    assert abs(info.iterations - ref_iters) <= 1


def _counted_solve(values, omega, shape, lam):
    """(SolveInfo, dense SVDs of the m x n iterate) of a solve, whose
    np.linalg.svd calls are one per iteration, plus the top singular value
    and the final stage's starting objective."""
    with svd_calls() as calls:
        out, info = solve_nuclear_norm(values, omega, shape, lam)
    assert len(calls) == info.iterations + 2
    ref, ref_iters = _dense_soft_impute(values, omega, shape, lam)
    assert np.abs(out - ref).max() <= 1e-5 * max(float(np.abs(ref).max()), 1e-30)
    assert info.iterations == ref_iters
    return info, calls.count((tuple(shape), True))


def _full(Z):
    rows, cols = np.nonzero(np.ones_like(Z, dtype=bool))
    return Z[rows, cols], (rows, cols), Z.shape


def test_solver_dense_only_on_first_iteration_for_low_rank():
    # rank 2: every iterate keeps at most 2 survivors, which the warm-started
    # subspace of 2 + OVERSAMPLE columns always holds
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(60, 2)) @ rng.normal(size=(2, 60))
    info, dense = _counted_solve(*_full(Z), lam=1e-3)
    assert info.iterations > 1
    assert dense == 1


def test_solver_dense_when_many_values_survive():
    # a full-rank fill at a tiny lam: more survivors than min(m, n) // 3 allows
    Z = np.random.default_rng(1).normal(size=(30, 30))
    info, dense = _counted_solve(*_full(Z), lam=1e-3)
    assert dense == info.iterations


def test_solver_dense_when_ritz_values_all_exceed_the_threshold():
    # singular values 100, nine near 10, the rest 0.1; lam path 25, 6.25, 1.
    # At 25 one value survives, so the basis holds 1 + OVERSAMPLE = 7 columns;
    # at 6.25 ten survive, all 7 Ritz values exceed the threshold, and that
    # iteration must go dense.  Full observation converges in 2 iterations per
    # stage: dense (first), rank-k, dense (guard), then rank-k with 16 columns.
    rng = np.random.default_rng(2)
    U = np.linalg.qr(rng.normal(size=(60, 60)))[0]
    V = np.linalg.qr(rng.normal(size=(60, 60)))[0]
    s = np.full(60, 0.1)
    s[0] = 100.0
    s[1:10] = np.linspace(11.0, 10.0, 9)
    info, dense = _counted_solve(*_full((U * s) @ V.T), lam=1.0)
    assert info.iterations == 6
    assert dense == 2


def test_solver_svd_count_on_partial_observation():
    rng = np.random.default_rng(3)
    truth = rng.normal(size=(50, 3)) @ rng.normal(size=(3, 40))
    rows, cols = np.nonzero(rng.random(truth.shape) < 0.5)
    vals = truth[rows, cols] + 0.1 * rng.normal(size=len(rows))
    info, dense = _counted_solve(vals, (rows, cols), truth.shape, lam=0.5)
    assert dense < info.iterations


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 64),
    n=st.integers(1, 64),
    rank=st.integers(1, 4),
    sigma=st.sampled_from([0.0, 0.1, 1.0]),
    # cells observed out of m * n, from one to all of them
    share=st.floats(0.0, 1.0),
    # lam as a share of the fill's top singular value; above 1 every iterate is 0
    lam_share=st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.3, 0.9, 1.5]),
    tol=st.sampled_from([1e-6, 1e-4]),
    max_iters=st.sampled_from([1, 2, 3, 8, 40, 500]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, n=40, rank=1, sigma=0.1, share=0.5, lam_share=0.01, tol=1e-6, max_iters=500, seed=0)
@example(m=40, n=1, rank=1, sigma=0.1, share=1.0, lam_share=0.0, tol=1e-6, max_iters=500, seed=1)
@example(m=1, n=1, rank=1, sigma=0.0, share=0.0, lam_share=0.2, tol=1e-6, max_iters=500, seed=2)
# low rank at 60x60 and 64x60: most iterations threshold in the rank-k
# subspace (164 of 179 and 87 of 94)
@example(m=60, n=60, rank=2, sigma=0.0, share=0.5, lam_share=1e-3, tol=1e-6, max_iters=500, seed=3)
@example(m=64, n=60, rank=3, sigma=0.1, share=0.5, lam_share=0.05, tol=1e-6, max_iters=500, seed=4)
# capped among the rank-k iterations of an annealing stage
@example(m=60, n=60, rank=2, sigma=0.0, share=0.5, lam_share=1e-3, tol=1e-6, max_iters=40, seed=3)
# lam above the top singular value: the first iterate is 0
@example(m=50, n=60, rank=2, sigma=0.0, share=0.6, lam_share=1.5, tol=1e-6, max_iters=500, seed=5)
def test_factored_iterate_matches_dense_iterate_bit_for_bit(
    m, n, rank, sigma, share, lam_share, tol, max_iters, seed
):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    count = 1 + round(share * (m * n - 1))
    rows, cols = np.unravel_index(np.sort(rng.permutation(m * n)[:count]), (m, n))
    vals = truth[rows, cols] + sigma * rng.normal(size=count)
    filled = np.zeros((m, n))
    filled[rows, cols] = vals
    lam = lam_share * float(np.linalg.svd(filled, compute_uv=False)[0])
    args = (vals, (rows, cols), (m, n), lam)
    with svd_calls() as calls:
        Q, info = solve_nuclear_norm(*args, tol=tol, max_iters=max_iters)
    with svd_calls() as ref_calls:
        ref_Q, ref_info, _ = dense_iterate_solve(*args, tol=tol, max_iters=max_iters)
    assert np.array_equal(Q, ref_Q)
    assert info == ref_info
    # the same iterations went through a dense SVD of the m x n iterate
    assert calls.count(((m, n), True)) == ref_calls.count(((m, n), True))


def _factors(m, n, r, rng):
    """(U, s, Vt) of a random rank-r m x n matrix, with orthonormal U and Vt rows."""
    U = np.linalg.qr(rng.normal(size=(m, max(r, 1))))[0][:, :r]
    Vt = np.linalg.qr(rng.normal(size=(n, max(r, 1))))[0][:, :r].T
    return U, np.sort(rng.uniform(0.5, 10.0, size=r))[::-1], Vt


def _nudged(U, s, Vt, size, rng):
    """Factors of a matrix within about `size` relative of U diag(s) Vt, with
    both singular subspaces rotated."""
    U1 = np.linalg.qr(U + size * rng.normal(size=U.shape))[0]
    Vt1 = np.linalg.qr((Vt + size * rng.normal(size=Vt.shape)).T)[0].T
    return U1, s * (1 + size * rng.normal(size=len(s))), Vt1


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    case=st.sampled_from(["from zero", "to zero", "grows", "shrinks", "rotated", "near equal"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_change_norm_matches_the_dense_difference(m, n, case, seed):
    rng = np.random.default_rng(seed)
    d = min(m, n)
    r0 = {"from zero": 0, "grows": d // 2}.get(case, int(rng.integers(1, d + 1)))
    U0, s0, V0t = _factors(m, n, r0, rng)
    if case == "to zero":
        U1, s1, V1t = _factors(m, n, 0, rng)
    elif case == "grows":
        U1, s1, V1t = _factors(m, n, int(rng.integers(r0, d + 1)), rng)
    elif case == "shrinks":
        U1, s1, V1t = _factors(m, n, int(rng.integers(0, r0 + 1)), rng)
    elif case == "rotated":
        U1, s1, V1t = _nudged(U0, s0, V0t, 0.1, rng)
    elif case == "near equal":
        U1, s1, V1t = _nudged(U0, s0, V0t, 1e-9, rng)
    else:  # from zero
        U1, s1, V1t = _factors(m, n, int(rng.integers(0, d + 1)), rng)
    Q0, Q1 = (U0 * s0) @ V0t, (U1 * s1) @ V1t
    scale = max(float(np.linalg.norm(Q0)), float(np.linalg.norm(Q1)))
    got = _change_norm(U0 * s0, V0t, U1, s1, V1t)
    assert abs(got - float(np.linalg.norm(Q1 - Q0))) <= 1e-12 * scale


def test_solve_peak_memory_is_bounded():
    # a 400x400 rank-4 matrix of 4 cluster rows, about 13 % observed with
    # noise 0.5, at the regularizer the oracle derives for it (lam = 2.5 *
    # sigma * sqrt(d p)).  One m x n array is 1.28 MB: a single buffer holds
    # the dense iterate, and a dense SVD's factors are freed before the next
    # SVD runs, so the peak stays below six of them
    rng = np.random.default_rng(0)
    truth = rng.normal(size=(4, 400))[rng.integers(0, 4, size=400)]
    rows, cols = np.nonzero(rng.random(truth.shape) < 0.13)
    vals = truth[rows, cols] + 0.5 * rng.normal(size=len(rows))
    lam = 2.5 * 0.5 * math.sqrt(400 * 0.13)
    tracemalloc.start()
    try:
        _, info = solve_nuclear_norm(vals, (rows, cols), truth.shape, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.converged
    assert peak <= 7.5e6


def test_estimate_noiseless_rank2_recovery():
    inst = generate_cs_instance(80, 80, 2, RowDistribution.gaussian(0, 1), seed=21)
    env = Environment(inst, NoiseModel("none"), seed=5, horizon=200_000)
    params = OracleParams(p=0.5, b=1, f=3, lam=1e-3, zeta=0.01)
    oracle = run_oracle(env, np.arange(80), np.arange(80), params, seed=3)
    assert np.max(np.abs(oracle.estimate() - inst.P)) <= 1e-2
    assert len(oracle.rep_estimates) == 3


def test_estimate_f_one_median_identity():
    inst = generate_cs_instance(12, 12, 2, RowDistribution.gaussian(0, 1), seed=2)
    env = Environment(inst, NoiseModel("none"), seed=1, horizon=20_000)
    params = OracleParams(p=0.8, b=1, f=1, lam=1e-3, zeta=0.1)
    oracle = run_oracle(env, np.arange(12), np.arange(12), params, seed=8)
    assert len(oracle.rep_estimates) == 1
    assert np.array_equal(oracle.estimate(), oracle.rep_estimates[0])


def test_estimate_insufficient_budget():
    inst = generate_cs_instance(12, 12, 2, RowDistribution.gaussian(0, 1), seed=2)
    env = Environment(inst, NoiseModel("none"), seed=1, horizon=20_000)
    params = OracleParams(p=0.8, b=1, f=2, lam=1e-3, zeta=0.1)
    # no repetition finishes within the budget, so there is no estimate
    oracle = run_oracle(env, np.arange(12), np.arange(12), params, budget=5, seed=8)
    assert oracle.estimate() is None


def test_estimate_masks_use_fresh_substreams():
    inst = generate_cs_instance(10, 10, 2, RowDistribution.gaussian(0, 1), seed=4)
    env = Environment(inst, NoiseModel("none"), seed=2, horizon=50_000)
    params = OracleParams(p=0.6, b=1, f=4, lam=1e-3, zeta=0.1)
    masks = []

    def sample(*args):
        masks.append(sample_mask(*args))
        return masks[-1]

    with mock.patch.object(completion, "sample_mask", sample):
        oracle = run_oracle(env, np.arange(10), np.arange(10), params, seed=0)
    # one mask per repetition, each drawn from its own stream, so neither the
    # masks nor the estimates of two repetitions are the same
    assert len(masks) == len(oracle.rep_estimates) == 4
    cells = {(m.entry_row.tobytes(), m.entry_col.tobytes()) for m in masks}
    assert len(cells) == 4
    assert len({est.tobytes() for est in oracle.rep_estimates}) == 4


@pytest.mark.parametrize("seed", range(5))
def test_median_robust_to_minority_corruption(seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(5, 6, 6))
    corrupted = stack.copy()
    corrupted[0, 2, 3] = 1e6
    corrupted[1, 2, 3] = -1e6
    med = np.median(corrupted, axis=0)
    clean = np.sort(stack[2:, 2, 3])
    assert clean[0] <= med[2, 3] <= clean[-1]


def test_partition_handles_wide_matrices():
    # 10 users x 37 arms forces a column partition into 4 blocks; with a full
    # mask each block solve is near-exact, so assembly errors would show up
    inst = generate_cs_instance(10, 37, 2, RowDistribution.gaussian(0, 1), seed=9)
    env = Environment(inst, NoiseModel("none"), seed=3, horizon=100_000)
    params = OracleParams(p=1.0, b=1, f=2, lam=1e-3, zeta=0.1)
    est = run_oracle(env, np.arange(10), np.arange(37), params, seed=6).estimate()
    assert np.max(np.abs(est - inst.P)) <= 2e-2


def test_partition_handles_tall_matrices():
    # more users than arms exercises the row/column swap
    inst = generate_cs_instance(37, 10, 2, RowDistribution.gaussian(0, 1), seed=9)
    env = Environment(inst, NoiseModel("none"), seed=3, horizon=100_000)
    params = OracleParams(p=1.0, b=1, f=2, lam=1e-3, zeta=0.1)
    est = run_oracle(env, np.arange(37), np.arange(10), params, seed=6).estimate()
    assert np.max(np.abs(est - inst.P)) <= 2e-2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    num_rows=st.integers(1, 30),
    num_cols=st.integers(1, 30),
    # each row's share of masked cells: 0 leaves it empty, 1 fills it
    shares=st.lists(st.sampled_from([0.0, 0.2, 0.6, 1.0]), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_rows=5, num_cols=1, shares=[0.0, 1.0, 0.6], seed=3)
@example(num_rows=4, num_cols=6, shares=[1.0], seed=5)
@example(num_rows=3, num_cols=3, shares=[0.0], seed=6)
def test_collection_setup_matches_per_row_scans(num_rows, num_cols, shares, seed):
    rng = np.random.default_rng(seed)
    rows = rng.choice(100, size=num_rows, replace=False)
    cols = rng.choice(100, size=num_cols, replace=False)
    share = np.resize(shares, num_rows)[:, None]
    entry_row, entry_col = np.nonzero(rng.random((num_rows, num_cols)) < share)
    mask = Mask(rows, cols, entry_row, entry_col)
    coll = MaskCollection(mask, 2, np.random.default_rng(seed + 1))
    # the per-row scans of `IndexedMaskCollection`, and its shuffles
    ref = IndexedMaskCollection(mask, 2, np.random.default_rng(seed + 1))
    # each row's cells are one range of the collection's stack
    assert len(coll._lo) == len(coll._hi) == len(ref._entries_of_row) == num_rows
    for lo, hi, theirs in zip(coll._lo.tolist(), coll._hi.tolist(), ref._entries_of_row):
        assert list(range(lo, hi)) == theirs.tolist()
    free = zip(coll._free_cols, coll._free_n.tolist())
    assert [cols[ours[:n]].tolist() for ours, n in free] == [
        cols[free].tolist() for free in ref._filler_cols
    ]
    pending = [
        coll._stack[lo : lo + owed].tolist() for lo, owed in zip(coll._lo, coll._owed)
    ]
    assert pending == (ref._pending if len(mask) else [[]] * num_rows)
    assert coll.rng.bit_generator.state == ref.rng.bit_generator.state
