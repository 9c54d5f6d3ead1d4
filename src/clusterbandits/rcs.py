"""Phased elimination for the relaxed cluster structure.

While the accuracy target stays at least twice the known within-cluster
separation and fewer groups than clusters exist, the run refines the user
partition exactly as the exact-cluster variant does (with a slightly looser
edge rule).  After that the partition is frozen and each group's active arms
shrink to the intersection of its members' near-best arms, which eliminates
more aggressively than the union rule used while clustering.
"""

from __future__ import annotations

from .env import Instance, NoiseModel, RunHistory
from .lattice import PhaseTrace, RcsConfig, _PhasedRun


def run_lattice_rcs(
    instance: Instance,
    config: RcsConfig,
    horizon: int,
    seed,
    noise: NoiseModel | None = None,
) -> tuple[RunHistory, PhaseTrace]:
    """Run the relaxed-cluster phased-elimination policy."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return _PhasedRun(instance, config, horizon, seed, noise).run()
