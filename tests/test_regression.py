"""Exact final regret of every policy on small instances, pinned.

The values were recorded with numpy 2.4.6 before the per-policy round loops
were merged into `Environment.run`; a refactor of the round dispatch must
reproduce them to the last bit.  A numpy release that changes a generator's
stream or a LAPACK result may move them.

The sha256 of every file `emit_report` writes for the relaxed-structure run
with full history is pinned the same way: recorded before the emitters
formatted each distinct value once, it holds a rewrite of the writers to the
same bytes.  The `regret.svg` digest was re-recorded when the chart began to
draw only each series' M4 points per pixel column; the three CSV digests
predate that change and did not move with it.  The `summary.csv` digest was
re-recorded when summary.csv gained its `horizon` column; its earlier digest
is still asserted on the file with that column taken out of every line, so
on this one-horizon config the column is all that moved.
"""

import hashlib

import pytest

from clusterbandits import bench

CS_CONFIG = """\
[instance]
kind = cs
num_users = 24
num_arms = 20
num_clusters = 2
row_distribution = gaussian(0,1)
seed = 3
noise = gaussian
sigma = 0.4

[experiment]
horizon = 20000
seeds = {seed}

[algorithm lattice]
c_prime_override = 0.5
c_p = 0.5
c_b = 0.5
f_cap = 2

[algorithm etc]
explore_fraction = 0.3

[algorithm simplified-lattice]
lam_coeff = 1.5
phase_base = 600
phase_step = 300

[algorithm ucb]
"""

RCS_CONFIG = """\
[instance]
kind = rcs
num_users = 24
num_arms = 16
num_clusters = 2
nu = 0.02
row_distribution = gaussian(0,1)
seed = 17
noise = gaussian
sigma = 0.3

[experiment]
horizon = 20000
seeds = {seed}

[algorithm lattice-rcs]
nu = 0.02
gamma = 1
c_prime_override = 0.7
c_p = 2.0
c_b = 0.5
f_cap = 1
"""

EXPECTED = {
    (5, "lattice"): 4203.649085291974,
    (5, "etc"): 17246.41001256994,
    (5, "simplified-lattice"): 1569.1676113111782,
    (5, "ucb"): 2480.450382125869,
    (5, "lattice-rcs"): 1657.2241387974468,
    (6, "lattice"): 3742.404768670046,
    (6, "etc"): 15998.215526971213,
    (6, "simplified-lattice"): 1764.2764338697557,
    (6, "ucb"): 2477.936439748953,
    (6, "lattice-rcs"): 1645.5934017405334,
}


@pytest.mark.parametrize("seed", [5, 6])
def test_final_regret_is_pinned(seed):
    got = {}
    for text in (CS_CONFIG, RCS_CONFIG):
        report = bench.run_experiment(bench.parse_config(text.format(seed=seed)))
        for run in report.runs:
            got[(seed, run.algorithm)] = run.history.final_regret
    assert got == {k: v for k, v in EXPECTED.items() if k[0] == seed}


EMITTED = {
    "regret.csv": "c1f1f13568c1e21b9d43b75d46f1c828ac6deef9402c6e52667e4293ae8d9364",
    "summary.csv": "73daf0c9a882791559733ca446061a756e7caf4cd37a5df6ba5f703b9af2b46f",
    "phase_trace.csv": "94bbc241060b77d4e368822acf6033f9185e91d562750dbf79662368be1bc224",
    "regret.svg": "8701b44cb97e34baf04d2865d410116e7eb61fad2f4587ba83b5ace678e169a9",
}
# summary.csv before it had a horizon column
SUMMARY_WITHOUT_HORIZON = "6202dd07b6e18c3893667cf97d3ead9526d06a224cc02526882ea9f808e01510"


def test_emitted_files_are_pinned(tmp_path):
    text = RCS_CONFIG.format(seed="5,6").replace(
        "[experiment]\n", "[experiment]\nfull_history = true\n"
    )
    paths = bench.emit_report(bench.run_experiment(bench.parse_config(text)), tmp_path)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths.values()}
    assert got == EMITTED
    # summary.csv before its horizon column, the second field of every line
    lines = [line.split(",") for line in paths["summary"].read_text().splitlines(keepends=True)]
    assert {fields[1] for fields in lines} == {"horizon", "20000"}
    without = "".join(",".join(fields[:1] + fields[2:]) for fields in lines)
    assert hashlib.sha256(without.encode()).hexdigest() == SUMMARY_WITHOUT_HORIZON

