"""Phased elimination for the relaxed cluster structure.

While the accuracy target stays at least twice the known within-cluster
separation and fewer groups than clusters exist, the run refines the user
partition exactly as the exact-cluster variant does (with a slightly looser
edge rule).  After that the partition is frozen and each group's active arms
shrink to the intersection of its members' near-best arms, which eliminates
more aggressively than the union rule used while clustering.
"""

# `_PhasedRun` runs the relaxed variant when its config is an `RcsConfig`
from .lattice import RcsConfig, run_lattice as run_lattice_rcs

__all__ = ["RcsConfig", "run_lattice_rcs"]
