"""Multi-user bandits with latent cluster structure: instance generators,
a matrix-completion oracle, phased-elimination policies, baselines, and a
benchmark harness."""

from .env import (
    Environment,
    Instance,
    NoiseModel,
    RowDistribution,
    RunHistory,
    generate_cs_instance,
    generate_hard_instance,
    generate_rcs_instance,
    load_instance,
    save_instance,
)
from .completion import (
    OracleParams,
    derive_oracle_params,
    sample_mask,
    solve_nuclear_norm,
)
from .lattice import LatticeConfig, run_lattice
from .rcs import RcsConfig, run_lattice_rcs
from .baselines import (
    EtcConfig,
    SimplifiedConfig,
    UcbConfig,
    kmeans_elbow,
    run_explore_then_commit,
    run_per_user_ucb,
    run_simplified_lattice,
)
from .checker import assumption_report

__version__ = "0.1.0"

__all__ = [
    "Environment",
    "EtcConfig",
    "Instance",
    "LatticeConfig",
    "NoiseModel",
    "OracleParams",
    "RcsConfig",
    "RowDistribution",
    "RunHistory",
    "SimplifiedConfig",
    "UcbConfig",
    "assumption_report",
    "derive_oracle_params",
    "generate_cs_instance",
    "generate_hard_instance",
    "generate_rcs_instance",
    "kmeans_elbow",
    "load_instance",
    "run_explore_then_commit",
    "run_lattice",
    "run_lattice_rcs",
    "run_per_user_ucb",
    "run_simplified_lattice",
    "sample_mask",
    "save_instance",
    "solve_nuclear_norm",
    "__version__",
]
