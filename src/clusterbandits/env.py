"""Problem instances and the round-by-round bandit simulation.

A problem instance is a ground-truth reward matrix over (user, arm) pairs in
which users sharing a latent cluster have identical rows (cluster structure)
or entrywise-close rows with a common best arm (relaxed cluster structure).
Each simulation round samples a user uniformly at random, asks a policy for
an arm, and returns the matrix entry plus additive noise.  `Environment.run`
is the one place rounds are dispatched: every policy plays its rounds through
it, serving each arriving user by the role that user holds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

RCS_SEPARATION_FACTOR = 20.0
# candidate cluster-row draws before a relaxed instance gives up on separation
RCS_MAX_ATTEMPTS = 1000
# rounds that `Environment` draws, and whose regret `RunHistory.regret`
# derives, at once; bounds the temporaries of both
CLOSE_CHUNK = 2**12
NOISE_KINDS = ("gaussian", "uniform", "bernoulli-reward", "none")
# the roles a round's plan holds in place of an arm; a planned arm is >= 0
_UCB, _UNIFORM, _OUT_OF_RANGE = -1, -2, -3


class InvalidDimensionsError(ValueError):
    """Instance dimensions are inconsistent (e.g. more clusters than users)."""


class SeparationUnsatisfiableError(RuntimeError):
    """Rejection sampling could not produce sufficiently separated cluster rows."""


class InvalidEpsilonError(ValueError):
    """Bernoulli gap parameter outside (0, 1)."""


class ArmOutOfRangeError(IndexError):
    """A policy returned an arm index outside the instance's arm set."""


def _checked(arms: np.ndarray, num_arms: int) -> np.ndarray:
    """`arms` with every arm outside 0..num_arms-1 marked out of range."""
    return np.where((arms >= 0) & (arms < num_arms), arms, _OUT_OF_RANGE)


def seed_sequence(seed) -> np.random.SeedSequence:
    """`seed` itself if it is a SeedSequence, else a SeedSequence built from it."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


@dataclass(frozen=True)
class RowDistribution:
    """Entry distribution for cluster reward rows: gaussian(mean, std) or uniform(lo, hi)."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind == "gaussian" and self.b < 0:
            raise ValueError(f"gaussian std must be nonnegative, got {self.b:g}")
        if self.kind == "uniform" and self.a > self.b:
            raise ValueError(f"uniform bounds must satisfy lo <= hi, got {self}")

    @staticmethod
    def gaussian(mean: float = 0.0, std: float = 1.0) -> "RowDistribution":
        return RowDistribution("gaussian", mean, std)

    @staticmethod
    def uniform(lo: float = 0.0, hi: float = 1.0) -> "RowDistribution":
        return RowDistribution("uniform", lo, hi)

    @staticmethod
    def parse(text: str) -> "RowDistribution":
        m = re.fullmatch(r"\s*(gaussian|uniform)\(([^,]+),([^)]+)\)\s*", text)
        if m is None:
            raise ValueError(f"cannot parse row distribution: {text!r}")
        return RowDistribution(m.group(1), float(m.group(2)), float(m.group(3)))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(self.a, self.b, size=size)
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size=size)
        raise ValueError(f"unknown row distribution kind {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.kind}({self.a:g},{self.b:g})"


@dataclass(frozen=True)
class NoiseModel:
    """Additive observation noise; `bernoulli-reward` replaces the whole draw.

    For gaussian and uniform kinds the samples are zero-mean with variance
    sigma^2 (uniform support is scaled accordingly).  `bernoulli-reward`
    draws the reward as Bernoulli(mean entry) and requires entries in [0, 1];
    `none` returns the matrix entry exactly.
    """

    kind: str = "none"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def draw_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Pre-draw the per-round randomness consumed by `reward`."""
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size=n)
        if self.kind == "uniform":
            half_width = self.sigma * math.sqrt(3.0)
            return rng.uniform(-half_width, half_width, size=n)
        if self.kind == "bernoulli-reward":
            return rng.uniform(0.0, 1.0, size=n)
        return np.zeros(n)

    def reward(self, mean: float, draw: float) -> float:
        if self.kind == "bernoulli-reward":
            return 1.0 if draw < mean else 0.0
        return mean + draw


@dataclass
class Instance:
    """Ground-truth multi-user bandit instance with latent cluster structure."""

    num_users: int
    num_arms: int
    num_clusters: int
    P: np.ndarray
    cluster_of: np.ndarray
    X: np.ndarray
    nu: float = 0.0
    default_noise: NoiseModel | None = None
    best_arm: np.ndarray = field(init=False)

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        self.cluster_of = np.asarray(self.cluster_of, dtype=int)
        # np.argmax breaks ties by lowest index, keeping best_arm deterministic.
        self.best_arm = np.argmax(self.P, axis=1)


def check_nu(nu: float) -> None:
    if nu < 0:
        raise ValueError("nu must be nonnegative")


def check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise InvalidEpsilonError(f"epsilon must lie in (0, 1), got {epsilon}")


def check_noise_range(noise: NoiseModel, P: np.ndarray) -> None:
    if noise.kind == "bernoulli-reward" and (P.min() < 0.0 or P.max() > 1.0):
        raise ValueError("bernoulli-reward noise requires entries in [0, 1]")


def check_dimensions(num_users: int, num_arms: int, num_clusters: int) -> None:
    if num_users <= 0 or num_arms <= 0 or num_clusters <= 0:
        raise InvalidDimensionsError("all dimensions must be positive")
    if num_clusters > min(num_users, num_arms):
        raise InvalidDimensionsError(
            f"num_clusters={num_clusters} exceeds min(num_users, num_arms)="
            f"{min(num_users, num_arms)}"
        )


def generate_cs_instance(
    num_users: int,
    num_arms: int,
    num_clusters: int,
    row_distribution: RowDistribution,
    seed: int,
) -> Instance:
    """Exact cluster structure: user u inherits row (u mod C) of a random X."""
    check_dimensions(num_users, num_arms, num_clusters)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X = row_distribution.sample(rng, (num_clusters, num_arms))
    cluster_of = np.arange(num_users) % num_clusters
    P = X[cluster_of]
    return Instance(num_users, num_arms, num_clusters, P, cluster_of, X, nu=0.0)


def generate_rcs_instance(
    num_users: int,
    num_arms: int,
    num_clusters: int,
    nu: float,
    row_distribution: RowDistribution,
    seed: int,
) -> Instance:
    """Relaxed cluster structure via rejection sampling.

    Cluster rows are resampled until (a) every cross-cluster pair is separated
    by more than 20*nu at one of the two best arms, with margin nu/2 so the
    per-user perturbation cannot break it, and (b) each row's best arm leads
    its runner-up by more than nu/2 so perturbing non-best arms preserves the
    argmax.  Users then get the cluster row plus i.i.d. uniform noise in
    [-nu/2, nu/2] on their non-best arms.
    """
    check_nu(nu)
    check_dimensions(num_users, num_arms, num_clusters)
    if nu == 0:
        return generate_cs_instance(num_users, num_arms, num_clusters, row_distribution, seed)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sep = RCS_SEPARATION_FACTOR * nu + nu / 2.0
    X = None
    for _ in range(RCS_MAX_ATTEMPTS):
        cand = row_distribution.sample(rng, (num_clusters, num_arms))
        best = np.argmax(cand, axis=1)
        top = cand[np.arange(num_clusters), best]
        runner_up = np.partition(cand, -2, axis=1)[:, -2] if num_arms > 1 else top - np.inf
        if num_arms > 1 and not np.all(top - runner_up > nu / 2.0):
            continue
        ok = True
        for c in range(num_clusters):
            for d in range(c + 1, num_clusters):
                at_c = abs(cand[c, best[c]] - cand[d, best[c]])
                at_d = abs(cand[c, best[d]] - cand[d, best[d]])
                margin_c = sep if best[c] != best[d] else RCS_SEPARATION_FACTOR * nu
                if not (at_c > margin_c or at_d > sep):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            X = cand
            break
    if X is None:
        raise SeparationUnsatisfiableError(
            f"could not satisfy {RCS_SEPARATION_FACTOR:g}*nu separation "
            f"in {RCS_MAX_ATTEMPTS} attempts"
        )

    cluster_of = np.arange(num_users) % num_clusters
    best = np.argmax(X, axis=1)
    P = X[cluster_of].copy()
    perturb = rng.uniform(-nu / 2.0, nu / 2.0, size=(num_users, num_arms))
    perturb[np.arange(num_users), best[cluster_of]] = 0.0
    P += perturb
    return Instance(num_users, num_arms, num_clusters, P, cluster_of, X, nu=nu)


def generate_hard_instance(
    num_users: int,
    num_arms: int,
    num_clusters: int,
    epsilon: float,
    optimal_arms: list[int],
    seed: int = 0,
) -> Instance:
    """Bernoulli hard instance: every arm pays (1-eps)/2 except each cluster's
    optimal arm, which pays (1+eps)/2."""
    check_dimensions(num_users, num_arms, num_clusters)
    check_epsilon(epsilon)
    optimal_arms = list(optimal_arms)
    if len(optimal_arms) != num_clusters:
        raise InvalidDimensionsError("optimal_arms must have one entry per cluster")
    if any(a < 0 or a >= num_arms for a in optimal_arms):
        raise ArmOutOfRangeError("optimal arm index outside the arm set")
    X = np.full((num_clusters, num_arms), (1.0 - epsilon) / 2.0)
    X[np.arange(num_clusters), optimal_arms] = (1.0 + epsilon) / 2.0
    cluster_of = np.arange(num_users) % num_clusters
    P = X[cluster_of]
    return Instance(
        num_users, num_arms, num_clusters, P, cluster_of, X, nu=0.0,
        default_noise=NoiseModel("bernoulli-reward", sigma=0.5),
    )


class RunHistory:
    """Per-round ledger of (user, arm, reward), the columns policies read: 16
    bytes a round.  Rounds beyond `capacity` do not fit.  The user and reward
    columns are written ahead (a reward slot holds the round's noise draw
    until the round is played); `played` counts the rounds played.

    Regret is derived on read, from `instance`'s matrix: a round's
    instantaneous regret is its user's best mean reward minus the played
    arm's, and its cumulative regret the sum of those up to and including it.
    """

    def __init__(self, instance: Instance, capacity: int):
        self.played = 0
        self.users = np.empty(capacity, dtype=np.int32)
        self.arms = np.empty(capacity, dtype=np.int32)
        self.rewards = np.empty(capacity, dtype=float)
        self._P = instance.P
        self._best_reward = instance.P[np.arange(instance.num_users), instance.best_arm]

    def __len__(self) -> int:
        return self.played

    def regret(self, rounds) -> tuple[np.ndarray, np.ndarray]:
        """The instantaneous and cumulative regret at each of `rounds`: round
        counts from 1 to `len(self)`, in nondecreasing order, read in their
        own integer dtype (an int32 grid is not copied to int64).

        One pass over CLOSE_CHUNK-round blocks, up to the last of `rounds`,
        sums every round's regret in round order, each block's running total
        its first addend, exactly as one `+=` per round would; so the values
        do not depend on where the blocks end."""
        rounds = np.asarray(rounds)
        inst_out, cum_out = np.empty(len(rounds)), np.empty(len(rounds))
        end = int(rounds[-1]) if len(rounds) else 0
        if end > self.played or (len(rounds) and rounds[0] < 1):
            raise ValueError(f"rounds must lie in 1..{self.played}")
        total, done = 0.0, 0
        for n in range(0, end, CLOSE_CHUNK):
            stop = min(n + CLOSE_CHUNK, end)
            users, arms = self.users[n:stop], self.arms[n:stop]
            inst = self._best_reward[users] - self._P[users, arms]
            cum = inst.copy()
            cum[0] = total + cum[0]
            np.cumsum(cum, out=cum)
            total = float(cum[-1])
            # `stop` in the rounds' own dtype, or searchsorted copies them to int64
            upto = done + int(np.searchsorted(rounds[done:], rounds.dtype.type(stop), side="right"))
            at = rounds[done:upto] - (n + 1)
            inst_out[done:upto], cum_out[done:upto] = inst[at], cum[at]
            done = upto
        return inst_out, cum_out


class Environment:
    """Round-driven simulator over one instance.

    The run seed splits into independent streams for user sampling and noise,
    pre-drawn for the whole horizon into the ledger's user and reward columns,
    so a run is bit-reproducible and holds nothing beside its ledger.
    """

    def __init__(
        self,
        instance: Instance,
        noise: NoiseModel | None,
        seed,
        horizon: int,
    ):
        self.instance = instance
        self.noise = noise if noise is not None else (instance.default_noise or NoiseModel("none"))
        check_noise_range(self.noise, instance.P)
        self.horizon = int(horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        user_ss, noise_ss = seed_sequence(seed).spawn(2)
        user_rng, noise_rng = np.random.default_rng(user_ss), np.random.default_rng(noise_ss)
        hist = self._history = RunHistory(instance, capacity=self.horizon)
        # every round's arrival, and its noise draw in its reward slot until the
        # round is played; draws continue their stream from chunk to chunk, so
        # they equal one draw over the whole horizon
        for n in range(0, self.horizon, CLOSE_CHUNK):
            k = min(CLOSE_CHUNK, self.horizon - n)
            hist.users[n : n + k] = user_rng.integers(0, instance.num_users, size=k)
            hist.rewards[n : n + k] = self.noise.draw_block(noise_rng, k)
        self.t = 0
        self._num_arms = instance.num_arms
        # `NoiseModel.reward`'s rule, resolved once for every round
        self._bernoulli = self.noise.kind == "bernoulli-reward"
        # a round reads and writes Python scalars through views of the ledger
        self._user_at = memoryview(hist.users)
        self._mean_at = memoryview(instance.P)
        self._arm_out = memoryview(hist.arms)
        self._reward_out = memoryview(hist.rewards)

    @property
    def history(self) -> RunHistory:
        """The ledger of every round played so far."""
        self._history.played = self.t
        return self._history

    def step(self, policy_choice) -> tuple[int, int, float]:
        """Advance one round; returns (user, arm, reward)."""
        t = self.t
        if t >= self.horizon:
            raise RuntimeError("environment horizon exhausted")
        return self._play(int(policy_choice(self._user_at[t])))

    def play(self, arm: int) -> tuple[int, int, float]:
        """Advance one round with the arm already chosen for the pending user;
        returns (user, arm, reward).  `arm` is a Python or numpy integer: the
        ledger's memoryview takes nothing else (TypeError)."""
        t = self.t
        if t >= self.horizon:
            raise RuntimeError("environment horizon exhausted")
        if not 0 <= arm < self._num_arms:
            raise ArmOutOfRangeError(f"policy returned arm {arm}")
        u = self._user_at[t]
        # the round's noise draw waits in its reward slot
        mean, draw = self._mean_at[u, arm], self._reward_out[t]
        if self._bernoulli:
            reward = 1.0 if draw < mean else 0.0
        else:
            reward = mean + draw
        self._arm_out[t] = arm
        self._reward_out[t] = reward
        self.t = t + 1
        return u, arm, reward

    # `step` plays through this name, so that each round is one call of
    # `play` or `step`, whichever the caller made
    _play = play

    def run(self, end, user_sets, arm_sets, rng, oracles=None, ucb=None, fixed=None) -> None:
        """Play rounds until round `end` (capped at the horizon); when
        `oracles` is given, stop as well once none of them is collecting.

        The arriving user u of `user_sets[i]` is served by `oracles[i]` while
        that oracle collects, else by its UCB state `ucb[u]`, else by its
        fixed arm `fixed[u]`, else by a uniform pull from `arm_sets[i]` drawn
        with `rng`.  A UCB state over one arm is planned as that arm, like a
        fixed one, and is not called.

        Rounds are planned CLOSE_CHUNK at a time.  Each collecting oracle
        `serve`s the block's arrivals of its set, up to the one that completes
        it; one `rng.integers(0, highs)` call draws the uniform pulls, the same
        values one call per round would draw.  Every round is then one `play`,
        and each oracle is `credit`ed the rewards of the rounds it served.
        """
        num_users, num_arms = self.instance.num_users, self.instance.num_arms
        set_of = np.zeros(num_users, dtype=np.int64)
        for i, us in enumerate(user_sets):
            set_of[np.asarray(us, dtype=np.int64)] = i
        # every set's arms, one after another; a uniform pull indexes its set's stretch
        sizes = np.array([len(arms) for arms in arm_sets], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        pool = _checked(np.concatenate([np.asarray(a, dtype=np.int64) for a in arm_sets]), num_arms)
        # each user's role while no oracle collects for its set: UCB, else
        # its fixed arm, else a uniform pull; only `select` reads what `update`
        # writes, so a UCB state over one arm is planned as that arm instead
        ucb = ucb or {}
        planned = {**(fixed or {}), **{u: s.arms[0] for u, s in ucb.items() if len(s.arms) == 1}}
        role = np.full(num_users, _UNIFORM, dtype=np.int64)
        if planned:
            arms = np.fromiter(planned.values(), np.int64, len(planned))
            role[np.fromiter(planned, np.int64, len(planned))] = _checked(arms, num_arms)
        role[[u for u, s in ucb.items() if len(s.arms) != 1]] = _UCB
        given = oracles is not None
        collecting = [i for i, o in enumerate(oracles or []) if o is not None and o.collecting]
        end = min(end, self.horizon)
        user_at, play = self._user_at, self.play
        while self.t < end and (collecting or not given):
            start = self.t
            users = self._history.users[start : min(start + CLOSE_CHUNK, end)]
            sets = set_of[users]
            plan = role[users]
            served = []
            for i in collecting:
                at = np.flatnonzero(sets == i)
                oracle = oracles[i]
                arms = oracle.serve(users[at])
                at = at[: len(arms)]
                plan[at] = _checked(arms, num_arms)
                served.append((oracle, at))
            if served:
                collecting = [i for i in collecting if oracles[i].collecting]
                if not collecting:
                    # the block ends with the round that completed the last oracle
                    plan = plan[: max(at[-1] for _, at in served if len(at)) + 1]
            uniform = np.flatnonzero(plan == _UNIFORM)
            if len(uniform):
                highs = sizes[sets[uniform]]
                plan[uniform] = pool[offsets[sets[uniform]] + rng.integers(0, highs)]
            if plan.min() == _OUT_OF_RANGE:
                raise ArmOutOfRangeError("policy returned an arm outside the arm set")
            for arm in memoryview(plan):
                if arm >= 0:
                    play(arm)
                else:
                    state = ucb[user_at[self.t]]
                    arm = state.select()
                    _, _, reward = play(arm)
                    state.update(arm, reward)
            rewards = self._history.rewards
            for oracle, at in served:
                oracle.credit(rewards[start + at])


# the [meta] keys that `save_instance` writes, and the only ones `load_instance` reads
META_KEYS = ("num_users", "num_arms", "num_clusters", "nu", "noise_kind", "noise_sigma")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_instance(instance: Instance, path) -> None:
    """Write the instance as structured text with 17-significant-digit floats."""
    inst = instance
    noise = inst.default_noise
    lines = ["# clusterbandits instance v1", "[meta]"]
    lines.append(f"num_users = {inst.num_users}")
    lines.append(f"num_arms = {inst.num_arms}")
    lines.append(f"num_clusters = {inst.num_clusters}")
    lines.append(f"nu = {_fmt(inst.nu)}")
    lines.append(f"noise_kind = {noise.kind if noise else 'none'}")
    lines.append(f"noise_sigma = {_fmt(noise.sigma if noise else 0.0)}")
    lines.append("[cluster_of]")
    lines.append(" ".join(str(int(c)) for c in inst.cluster_of))
    lines.append("[X]")
    for row in inst.X:
        lines.append(" ".join(_fmt(v) for v in row))
    lines.append("[P]")
    for row in inst.P:
        lines.append(" ".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parsed(where: str, parse, texts: list) -> list:
    """`parse` of each of `texts`, None marking a missing one; a ValueError
    names `where`, the [meta] key or the section that they come from."""
    if None in texts:
        raise ValueError(f"{where}: missing")
    try:
        return [parse(text) for text in texts]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _matrix(lines: list[str], name: str, num_rows: int, num_cols: int) -> np.ndarray:
    """The rows of an instance file's [name] section, which must be num_rows x num_cols."""
    rows = [_parsed(f"[{name}]", float, line.split()) for line in lines]
    if len(rows) != num_rows or any(len(row) != num_cols for row in rows):
        raise ValueError(f"[{name}] must hold {num_rows} rows of {num_cols} values")
    return np.array(rows)


def load_instance(path) -> Instance:
    """The instance of an instance file; a ValueError names the [meta] key,
    or the section, that is unknown, missing, cannot be parsed or does not
    fit [meta], or a line outside any section."""
    meta: dict[str, str] = {}
    sections: dict[str, list[str]] = {"cluster_of": [], "X": [], "P": []}
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current != "meta" and current not in sections:
                    raise ValueError(f"[{current}]: unknown section")
                continue
            if current == "meta":
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in META_KEYS:
                    raise ValueError(f"[meta] {key}: unknown key")
                meta[key] = value.strip()
            elif current is None:
                raise ValueError(f"{line!r}: outside any section")
            else:
                sections[current].append(line)
    num_users, num_arms, num_clusters = (
        _parsed(f"[meta] {key}", int, [meta.get(key)])[0]
        for key in ("num_users", "num_arms", "num_clusters")
    )
    cells = " ".join(sections["cluster_of"]).split()
    cluster_of = np.array(_parsed("[cluster_of]", int, cells), dtype=int)
    if len(cluster_of) != num_users or not np.all((0 <= cluster_of) & (cluster_of < num_clusters)):
        raise ValueError(f"[cluster_of] must hold {num_users} clusters in 0..{num_clusters - 1}")
    X = _matrix(sections["X"], "X", num_clusters, num_arms)
    P = _matrix(sections["P"], "P", num_users, num_arms)
    sigma, nu = (
        _parsed(f"[meta] {key}", float, [meta.get(key, "0")])[0] for key in ("noise_sigma", "nu")
    )
    noise_kind = meta.get("noise_kind", "none")
    noise = NoiseModel(noise_kind, sigma) if noise_kind != "none" else None
    return Instance(num_users, num_arms, num_clusters, P, cluster_of, X, nu=nu, default_noise=noise)
