import csv

import numpy as np

from clusterbandits import bench
from clusterbandits.env import NoiseModel, RowDistribution, generate_rcs_instance
from clusterbandits.lattice import intersect_with_union_fallback
from clusterbandits.rcs import RcsConfig, run_lattice_rcs


def test_intersect_identical_sets():
    assert intersect_with_union_fallback([{1, 2, 3}, {1, 2, 3}]) == ({1, 2, 3}, False)


def test_intersect_hand_case():
    assert intersect_with_union_fallback([{0, 1}, {1, 2}, {1, 3}]) == ({1}, False)


def test_intersect_empty_falls_back_to_union():
    assert intersect_with_union_fallback([{0}, {1}]) == ({0, 1}, True)


def _rcs_instance():
    return generate_rcs_instance(30, 20, 3, 0.02, RowDistribution.gaussian(0, 1), seed=17)


def _config(**kw):
    return RcsConfig(
        num_clusters=3, sigma=0.3, gamma=1.0, c_prime_override=0.7,
        c_p=0.5, c_b=0.5, f_cap=1, nu=0.02, **kw
    )


def test_rcs_mode_switch_and_monotone_partition():
    inst = _rcs_instance()
    hist, trace = run_lattice_rcs(inst, _config(), 20000, seed=5, noise=NoiseModel("gaussian", 0.3))
    assert len(hist) == 20000
    modes = [r.mode for r in trace.records]
    # once cluster-wise mode starts, it never reverts to joint
    if "clusterwise" in modes:
        first = modes.index("clusterwise")
        assert all(m != "joint" for m in modes[first:])
        frozen = [tuple(sorted(map(tuple, map(sorted, r.user_sets))))
                  for r in trace.records[first:] if r.mode == "clusterwise"]
        assert all(p == frozen[0] for p in frozen)


def test_rcs_clusterwise_arms_shrink_by_inclusion():
    inst = _rcs_instance()
    _, trace = run_lattice_rcs(inst, _config(), 20000, seed=6, noise=NoiseModel("gaussian", 0.3))
    cw = [r for r in trace.records if r.mode == "clusterwise"]
    if len(cw) >= 2 and trace.intersection_fallbacks == 0:
        for earlier, later in zip(cw, cw[1:]):
            by_users = {tuple(sorted(s)): set(a) for s, a in zip(earlier.user_sets, earlier.arm_sets)}
            for s, a in zip(later.user_sets, later.arm_sets):
                assert set(a) <= by_users[tuple(sorted(s))]


def test_rcs_nu_zero_joins_then_clusterwise():
    inst = generate_rcs_instance(12, 10, 2, 0.0, RowDistribution.gaussian(0, 1), seed=4)
    cfg = RcsConfig(
        num_clusters=2, sigma=0.0, gamma=1.0, c_prime_override=0.4, c_p=2.0, f_cap=1, nu=0.0
    )
    _, trace = run_lattice_rcs(inst, cfg, 8000, seed=1, noise=NoiseModel("none"))
    modes = [r.mode for r in trace.records]
    assert modes[0] == "joint"
    # with exact estimates the partition reaches the cluster count and the
    # run switches permanently to cluster-wise elimination
    if "clusterwise" in modes:
        first = modes.index("clusterwise")
        rec = trace.records[first]
        truth = sorted(
            tuple(sorted(np.flatnonzero(inst.cluster_of == c).tolist())) for c in range(2)
        )
        assert sorted(tuple(sorted(s)) for s in rec.user_sets) == truth


def test_rcs_exact_partition_matches_clusters_noiseless():
    inst = generate_rcs_instance(18, 12, 3, 0.01, RowDistribution.gaussian(0, 1), seed=9)
    cfg = RcsConfig(
        num_clusters=3, sigma=0.0, gamma=1.0, c_prime_override=0.8, c_p=2.0, f_cap=1, nu=0.01
    )
    _, trace = run_lattice_rcs(inst, cfg, 30000, seed=2, noise=NoiseModel("none"))
    cw = [r for r in trace.records if r.mode == "clusterwise"]
    assert cw, "expected the run to reach cluster-wise mode"
    truth = sorted(
        tuple(sorted(np.flatnonzero(inst.cluster_of == c).tolist())) for c in range(3)
    )
    assert sorted(tuple(sorted(s)) for s in cw[0].user_sets) == truth


def test_rcs_trace_has_mode_column(tmp_path):
    inst = _rcs_instance()
    hist, trace = run_lattice_rcs(inst, _config(), 5000, seed=3, noise=NoiseModel("gaussian", 0.3))
    assert trace.has_mode
    config = bench.ExperimentConfig(
        {"kind": "rcs", "num_users": 30, "num_arms": 20, "num_clusters": 3},
        [("lattice-rcs", {})], horizon=[5000], seeds=[3],
    )
    record = bench.regret_record(hist, bench.checkpoint_grid(5000))
    report = bench.Report(config, [bench.RunResult(0, "lattice-rcs", 3, 5000, record, trace)])
    with open(bench.emit_report(report, tmp_path)["phase_trace"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and [row["mode"] for row in rows] == [r.mode for r in trace.records]
