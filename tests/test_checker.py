import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbandits import checker
from clusterbandits.checker import (
    ZeroMatrixError,
    assumption_report,
    cluster_factor_smoothness,
    cluster_size_ratio,
    spectrum,
    subset_smoothness_estimate,
)
from clusterbandits.env import RowDistribution, generate_cs_instance, generate_rcs_instance


def test_identity_block_matrix_is_maximally_coherent():
    C, M = 4, 20
    X = np.hstack([np.eye(C), np.zeros((C, M - C))])
    kappa, mu_row, mu_col = spectrum(X)[:3]
    assert kappa == pytest.approx(1.0)
    assert mu_col == pytest.approx(M / C)


def test_orthonormal_scaled_rows_condition_one():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(10, 3)))
    X = 2.5 * Q.T  # 3 x 10 with equal singular values
    kappa = spectrum(X)[0]
    assert kappa == pytest.approx(1.0, abs=1e-9)


def test_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        spectrum(np.zeros((3, 4)))


def test_gaussian_x_spectral_thresholds():
    # scaled-down version of the feasibility sweep (full one in acceptance)
    hits = 0
    for seed in range(5):
        inst = generate_cs_instance(8, 500, 4, RowDistribution.gaussian(0, 1), seed=seed)
        kappa, _, mu_col = spectrum(inst.X)[:3]
        if kappa <= 4.0 and mu_col <= 16.0 * math.log(500):
            hits += 1
    assert hits >= 4


def test_subset_smoothness_full_subset_exactly_one():
    # orthonormal V with gamma*C equal to the full row count: the only subset
    # is everything and the normalized minimum eigenvalue is exactly 1
    C, k = 3, 5
    M = C * k
    V = np.vstack([np.eye(C)] * k) / math.sqrt(k)
    rng = np.random.default_rng(0)
    alpha = subset_smoothness_estimate(V, gamma=M / C, C=C, num_subsets=5, rng=rng)
    assert alpha == pytest.approx(1.0, abs=1e-12)


def test_subset_smoothness_zero_row():
    V = np.ones((6, 1))
    V[3, 0] = 0.0
    rng = np.random.default_rng(1)
    alpha = subset_smoothness_estimate(V, gamma=1.0, C=1, num_subsets=200, rng=rng)
    assert alpha == 0.0


def test_subset_smoothness_nonincreasing_in_samples():
    rng_state = np.random.default_rng(7)
    V = np.linalg.qr(rng_state.normal(size=(40, 4)))[0]
    a50 = subset_smoothness_estimate(V, 3.0, 4, 50, np.random.default_rng(3))
    a200 = subset_smoothness_estimate(V, 3.0, 4, 200, np.random.default_rng(3))
    assert a200 <= a50 + 1e-12


def test_gaussian_alpha_at_least_sixteenth():
    hits = 0
    for seed in range(5):
        inst = generate_cs_instance(8, 500, 4, RowDistribution.gaussian(0, 1), seed=seed)
        _, s, Vt = np.linalg.svd(inst.X, full_matrices=False)
        V = Vt.T
        gamma = 16.0 * math.log(500) / 4
        alpha = subset_smoothness_estimate(
            V, gamma, 4, 200, np.random.default_rng(seed)
        )
        hits += alpha >= 1.0 / 16.0
    assert hits >= 4


def test_cluster_factor_zero_separation_is_degenerate():
    inst = generate_cs_instance(12, 8, 3, RowDistribution.gaussian(0, 1), seed=3)
    U, s, _ = np.linalg.svd(inst.P, full_matrices=False)
    beta, deficient = cluster_factor_smoothness(U[:, :3], inst.cluster_of, tau=1.0)
    assert deficient
    assert beta == pytest.approx(0.0, abs=1e-12)


def test_cluster_factor_positive_for_rcs():
    inst = generate_rcs_instance(12, 8, 3, 0.1, RowDistribution.gaussian(0, 1), seed=5)
    U, s, _ = np.linalg.svd(inst.P, full_matrices=False)
    beta, deficient = cluster_factor_smoothness(U[:, :3], inst.cluster_of, tau=1.0)
    assert not deficient
    assert beta > 0.0


def test_cluster_factor_single_cluster_closed_form():
    # N = C with an orthonormal factor: the only block is the identity gram
    C = 4
    U = np.eye(C)
    beta, deficient = cluster_factor_smoothness(U, np.zeros(C, dtype=int), tau=1.0)
    assert not deficient
    assert beta == pytest.approx(C * 1.0)


def test_cluster_size_ratio():
    assert cluster_size_ratio(np.array([0, 0, 0, 1])) == 3.0


def _nice_submatrix(inst, rng):
    clusters = rng.choice(
        inst.num_clusters, size=rng.integers(1, inst.num_clusters + 1), replace=False
    )
    rows = np.flatnonzero(np.isin(inst.cluster_of, clusters))
    return inst.P[rows], rows


@pytest.mark.parametrize("seed", range(5))
def test_lemma_condition_number_of_nice_submatrices(seed):
    inst = generate_cs_instance(30, 20, 3, RowDistribution.gaussian(0, 1), seed=seed)
    kappa_x = spectrum(inst.X)[0]
    tau = cluster_size_ratio(inst.cluster_of)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        sub, _ = _nice_submatrix(inst, rng)
        kappa_sub = spectrum(sub)[0]
        assert kappa_sub <= kappa_x * math.sqrt(tau) + 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_lemma_incoherence_of_nice_submatrices(seed):
    inst = generate_cs_instance(30, 20, 3, RowDistribution.gaussian(0, 1), seed=seed)
    C = inst.num_clusters
    M = inst.num_arms
    _, mu_row_x, mu_col_x = spectrum(inst.X)[:3]
    tau = cluster_size_ratio(inst.cluster_of)
    _, s, Vt = np.linalg.svd(inst.X, full_matrices=False)
    gamma = 2.0
    alpha_hat = subset_smoothness_estimate(
        Vt.T, gamma, C, 200, np.random.default_rng(seed)
    )
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        sub, rows = _nice_submatrix(inst, rng)
        U, s, Vt_sub = np.linalg.svd(sub, full_matrices=False)
        r = int(np.sum(s > 1e-9 * s[0]))
        u_norm = float(np.max(np.linalg.norm(U[:, :r], axis=1)))
        v_norm = float(np.max(np.linalg.norm(Vt_sub[:r, :].T, axis=1)))
        assert u_norm <= math.sqrt(C * tau / len(rows)) + 1e-6
        assert v_norm <= math.sqrt(mu_col_x * C / (alpha_hat * M)) + 1e-6


def _looped_subset_estimate(V, gamma, C, num_subsets, rng):
    """`subset_smoothness_estimate` one subset at a time: a Gram and an
    eigensolve per subset, and a running minimum."""
    M = V.shape[0]
    worst = math.inf
    for _ in range(num_subsets):
        S = rng.choice(M, size=math.ceil(gamma * C), replace=False)
        gram = V[S].T @ V[S]
        worst = min(worst, float(np.linalg.eigvalsh(gram)[0]) * M / (gamma * C))
    return max(worst, 0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    num_arms=st.integers(2, 60),
    rank=st.integers(1, 5),
    gamma=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    num_subsets=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_subset_estimate_equals_a_loop(num_arms, rank, gamma, num_subsets, seed):
    C = rank
    if math.ceil(gamma * C) > num_arms:
        gamma = num_arms / C
    X = np.random.default_rng(seed).normal(size=(C, num_arms))
    V = np.linalg.svd(X, full_matrices=False)[2].T
    batched = subset_smoothness_estimate(V, gamma, C, num_subsets, np.random.default_rng(seed))
    looped = _looped_subset_estimate(V, gamma, C, num_subsets, np.random.default_rng(seed))
    assert batched == looped


def test_batched_subset_estimate_on_the_benchmark_instance():
    inst = generate_cs_instance(200, 200, 4, RowDistribution.gaussian(0, 1), seed=7)
    gamma = min(16.0 * math.log(200), 200.0) / 4
    V = np.linalg.svd(inst.X, full_matrices=False)[2].T
    batched = subset_smoothness_estimate(V, gamma, 4, 200, np.random.default_rng(0))
    assert batched == _looped_subset_estimate(V, gamma, 4, 200, np.random.default_rng(0))
    # the report draws its subsets from SeedSequence(0), the same stream
    assert assumption_report(inst).alpha_hat == batched


def test_assumption_report_roundtrip_fields():
    inst = generate_cs_instance(20, 30, 4, RowDistribution.gaussian(0, 1), seed=1)
    report = assumption_report(inst)
    assert report.subsets_sampled == checker.REPORT_SUBSETS
    assert report.kappa >= 1.0
    assert report.mu_row >= 1.0 - 1e-12
    assert report.mu_col >= 1.0 - 1e-12
    assert report.alpha_hat >= 0.0
    assert report.beta_warning  # zero separation makes cluster blocks singular
    text = report.to_text()
    assert "kappa" in text and "alpha_hat" in text
