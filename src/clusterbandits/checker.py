"""Spectral diagnostics for generated instances: condition number,
incoherence of the singular factors, and Monte-Carlo estimates of the
restricted eigenvalue lower bounds that the completion oracle leans on."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Instance


# singular values at or below this share of the largest count as zero
RANK_TOL = 1e-9
# row subsets `assumption_report` samples for alpha_hat, and their seed
REPORT_SUBSETS = 200
REPORT_SEED = 0


class ZeroMatrixError(ValueError):
    pass


@dataclass
class AssumptionReport:
    kappa: float
    mu_row: float
    mu_col: float
    alpha_hat: float
    beta_hat: float | None
    beta_warning: bool
    gamma_used: float
    subsets_sampled: int
    tau: float
    rank: int

    def to_text(self) -> str:
        lines = ["[assumption_report]"]
        for name in (
            "kappa",
            "mu_row",
            "mu_col",
            "alpha_hat",
            "beta_hat",
            "gamma_used",
            "tau",
        ):
            value = getattr(self, name)
            lines.append(f"{name} = {'' if value is None else format(value, '.17g')}")
        lines.append(f"beta_warning = {str(self.beta_warning).lower()}")
        lines.append(f"subsets_sampled = {self.subsets_sampled}")
        lines.append(f"rank = {self.rank}")
        return "\n".join(lines) + "\n"


def spectrum(matrix) -> tuple[float, float, float, int, np.ndarray]:
    """Condition number kappa and row/column incoherence of the rank-truncated
    SVD, then the truncated rank r and the right singular factor, from one SVD.

    Incoherence is normalized so that mu >= 1, with mu = dim * max_row_norm^2
    of the corresponding singular factor divided by the truncated rank.
    """
    A = np.asarray(matrix, dtype=float)
    if not np.any(A):
        raise ZeroMatrixError("matrix is identically zero")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > RANK_TOL * s[0]))
    r = max(r, 1)
    kappa = float(s[0] / s[r - 1])
    n, m = A.shape
    mu_row = float(n * np.max(np.sum(U[:, :r] ** 2, axis=1)) / r)
    mu_col = float(m * np.max(np.sum(Vt[:r, :] ** 2, axis=0)) / r)
    return kappa, mu_row, mu_col, r, Vt


def subset_smoothness_estimate(
    V: np.ndarray,
    gamma: float,
    C: int,
    num_subsets: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo upper bound on the restricted eigenvalue constant of the
    column factor: the minimum over sampled size-ceil(gamma*C) row subsets S
    of lambda_min(V_S^T V_S) * M / (gamma * C)."""
    V = np.asarray(V, dtype=float)
    M = V.shape[0]
    size = math.ceil(gamma * C)
    if size > M:
        raise ValueError("gamma * C exceeds the number of rows of V")
    subsets = [rng.choice(M, size=size, replace=False) for _ in range(num_subsets)]
    worst = math.inf
    if subsets:
        rows = V[np.array(subsets)]
        # every Gram in one stacked product and one stacked eigensolve, each
        # matrix bit for bit as its own call makes it
        lam_mins = np.linalg.eigvalsh(rows.transpose(0, 2, 1) @ rows)[:, 0].tolist()
        worst = min([worst, *(lam * M / (gamma * C) for lam in lam_mins)])
    return max(worst, 0.0)


def cluster_factor_smoothness(
    U: np.ndarray, cluster_of: np.ndarray, tau: float
) -> tuple[float, bool]:
    """Exact minimum over clusters of lambda_min(U_S^T U_S) * C / tau for the
    left factor restricted to each cluster's rows.  Returns (beta_hat,
    rank_deficient_flag); a singular cluster block is expected when the
    within-cluster separation is zero."""
    U = np.asarray(U, dtype=float)
    cluster_of = np.asarray(cluster_of, dtype=int)
    C = U.shape[1]
    beta = math.inf
    deficient = False
    for c in np.unique(cluster_of):
        block = U[cluster_of == c]
        vals = np.linalg.eigvalsh(block.T @ block)
        lam_min, lam_max = float(vals[0]), float(vals[-1])
        if lam_max <= 0 or lam_min < 1e-12 * lam_max:
            deficient = True
        beta = min(beta, max(lam_min, 0.0) * C / tau)
    return beta, deficient


def cluster_size_ratio(cluster_of: np.ndarray) -> float:
    sizes = np.bincount(np.asarray(cluster_of, dtype=int))
    sizes = sizes[sizes > 0]
    return float(sizes.max() / sizes.min())


def assumption_report(instance: Instance) -> AssumptionReport:
    """Measure all assumption-related quantities on one instance."""
    X = instance.X
    M = instance.num_arms
    C = instance.num_clusters
    gamma = min(16.0 * math.log(max(M, 2)), float(M)) / C
    kappa, mu_row, mu_col, r, Vt = spectrum(X)
    V = Vt[:r, :].T
    rng = np.random.default_rng(np.random.SeedSequence(REPORT_SEED))
    alpha_hat = subset_smoothness_estimate(V, gamma, C, REPORT_SUBSETS, rng)
    tau = cluster_size_ratio(instance.cluster_of)
    Up, sp, _ = np.linalg.svd(instance.P, full_matrices=False)
    rp = max(1, int(np.sum(sp > RANK_TOL * sp[0])))
    beta_hat, deficient = cluster_factor_smoothness(Up[:, :rp], instance.cluster_of, tau)
    return AssumptionReport(
        kappa=kappa,
        mu_row=mu_row,
        mu_col=mu_col,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        beta_warning=deficient,
        gamma_used=gamma,
        subsets_sampled=REPORT_SUBSETS,
        tau=tau,
        rank=r,
    )
