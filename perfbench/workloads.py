"""Benchmark workloads: config text generated from the run seed.

Each workload is a list of configs that the benchmark feeds, one after the
other, through the same public path as ``clusterbandits run``.  The program
only ever sees the generated text.

Why these workloads:

- ``cs200``: the paper's headline comparison (phased elimination against
  per-user UCB and the simplified phased policy) on the 200x200, C=4,
  sigma=0.5, 60k-round instance.  Most cell time goes to dense SVDs inside
  the nuclear-norm solves; the ``ucb`` cell is pure per-round dispatch.
- ``tail64``: long horizons on small matrices with per-round regret output.
  Most cell time is the UCB tail and ``Environment.play``; writing about
  171k regret rows takes longer than the cells.  It also runs the relaxed
  variant's clusterwise/intersection path.
- ``cs400``: the ``cs200`` generator at 400x400 with ``lattice`` only; the
  size-scaling cell, where one solve costs about 110 dense SVDs and the user
  graph build grows quadratically.  Its horizon ends during phase 2.

The run seed drives every cell's interaction randomness except the 64x64
``lattice`` cell of ``tail64``, which keeps seed 301: at T=2^17 its final
regret ranges over 17k-44k across seeds (phase 2 splits its 2 clusters into
16-41 sets), which would make ``final_regret`` useless as a guard.  The
instances use the fixed generator seeds of the checked-in configs.
"""

from __future__ import annotations

NAMES = ("cs200", "tail64", "cs400")

# (set-up, pass) share of each workload's time spent in dense linear algebra:
# the checker's SVDs over set-up time and the nuclear-norm solves over wall
# time, from a traced run at seed 101, rounded to a tenth.  speed.py weighs
# its kernel's two parts by it.
LINALG_SHARE = {
    "cs200": (0.6, 0.7),
    "tail64": (0.0, 0.0),
    "cs400": (0.0, 0.8),
}

# calibrated desk-scale constants of configs/benchmark_cs.cfg
_CS_LATTICE = """\
[algorithm lattice]
c_prime_override = 0.5
c_p = 0.25
c_b = 0.4
f_cap = 1
"""

_CS_INSTANCE = """\
[instance]
kind = cs
num_users = {n}
num_arms = {n}
num_clusters = 4
row_distribution = gaussian(0,1)
seed = 7
noise = gaussian
sigma = 0.5
"""


def _cs200(seed: int) -> list[str]:
    return [
        _CS_INSTANCE.format(n=200)
        + f"""
[experiment]
horizon = 60000
seeds = {seed}
check = true

"""
        + _CS_LATTICE
        + """
[algorithm simplified-lattice]
lam_coeff = 1.5

[algorithm ucb]
"""
    ]


def _cs400(seed: int) -> list[str]:
    return [
        _CS_INSTANCE.format(n=400)
        + f"""
[experiment]
horizon = 60000
seeds = {seed}

"""
        + _CS_LATTICE
    ]


def _tail64(seed: int) -> list[str]:
    scaling = """\
[instance]
kind = cs
num_users = 64
num_arms = 64
num_clusters = 2
row_distribution = gaussian(0,1)
seed = 5
noise = gaussian
sigma = 0.5

[experiment]
horizon = 131072
seeds = 301
full_history = true

[algorithm lattice]
gamma = 1
c_prime_override = 0.5
c_p = 0.5
c_b = 0.5
f_cap = 1
"""
    relaxed = f"""\
[instance]
kind = rcs
num_users = 60
num_arms = 40
num_clusters = 3
nu = 0.02
row_distribution = gaussian(0,1)
seed = 17
noise = gaussian
sigma = 0.3

[experiment]
horizon = 40000
seeds = {seed}
full_history = true

[algorithm lattice-rcs]
nu = 0.02
gamma = 1
c_prime_override = 0.7
c_p = 2.0
c_b = 0.5
f_cap = 1
"""
    return [scaling, relaxed]


_BUILDERS = {"cs200": _cs200, "tail64": _tail64, "cs400": _cs400}


def configs(name: str, seed: int) -> list[str]:
    """Config texts of workload `name` for run seed `seed`."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _BUILDERS[name](seed)
