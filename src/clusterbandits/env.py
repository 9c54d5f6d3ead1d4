"""Problem instances and the round-by-round bandit simulation.

A problem instance is a ground-truth reward matrix over (user, arm) pairs in
which users sharing a latent cluster have identical rows (cluster structure)
or entrywise-close rows with a common best arm (relaxed cluster structure).
Each simulation round samples a user uniformly at random, asks a policy for
an arm, and returns the matrix entry plus additive noise.  `Environment.run`
is the one place rounds are dispatched: every policy plays its rounds through
it, serving each arriving user by the role that user holds.  Instance files
and config files share one reader of typed `[section]` text (`read_sections`).
"""

from __future__ import annotations

import itertools
import math
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

RCS_SEPARATION_FACTOR = 20.0
# candidate cluster-row draws before a relaxed instance gives up on separation
RCS_MAX_ATTEMPTS = 1000
# rounds that `Environment` draws, and whose regret `bench.played_regret`
# derives, at once; bounds the temporaries of both
CLOSE_CHUNK = 2**12
NOISE_KINDS = ("gaussian", "uniform", "bernoulli-reward", "none")
# the roles a round's plan holds in place of an arm; a planned arm is >= 0
_UCB, _UNIFORM, _OUT_OF_RANGE = -1, -2, -3


class ConfigError(ValueError):
    """An invalid config or instance file; the message names its section, key or line."""


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
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"row distribution bounds must be finite, got {self}")
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
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def draw_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Pre-draw the per-round randomness that `Environment.play` turns
        into rewards."""
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size=n)
        if self.kind == "uniform":
            half_width = self.sigma * math.sqrt(3.0)
            return rng.uniform(-half_width, half_width, size=n)
        if self.kind == "bernoulli-reward":
            return rng.uniform(0.0, 1.0, size=n)
        return np.zeros(n)


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


def check_key(key: str, check, *args) -> None:
    """`check(*args)`, whose ValueError becomes a ConfigError naming `key`."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def check_nu(nu: float) -> None:
    if not 0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative and finite, got {nu}")


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


def check_optimal_arms(optimal_arms: list[int], num_arms: int, num_clusters: int) -> None:
    if len(optimal_arms) != num_clusters or not all(0 <= a < num_arms for a in optimal_arms):
        raise InvalidDimensionsError(f"need {num_clusters} arms in 0..{num_arms - 1}, "
                                     f"one per cluster; got {optimal_arms}")


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
    for _ in range(RCS_MAX_ATTEMPTS):
        cand = row_distribution.sample(rng, (num_clusters, num_arms))
        best = np.argmax(cand, axis=1)
        top = cand[np.arange(num_clusters), best]
        runner_up = np.partition(cand, -2, axis=1)[:, -2] if num_arms > 1 else top - np.inf
        if num_arms > 1 and not np.all(top - runner_up > nu / 2.0):
            continue
        if all(
            abs(cand[c, best[c]] - cand[d, best[c]])
            > (sep if best[c] != best[d] else RCS_SEPARATION_FACTOR * nu)
            or abs(cand[c, best[d]] - cand[d, best[d]]) > sep
            for c, d in itertools.combinations(range(num_clusters), 2)
        ):
            X = cand
            break
    else:
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
    check_optimal_arms(optimal_arms, num_arms, num_clusters)
    X = np.full((num_clusters, num_arms), (1.0 - epsilon) / 2.0)
    X[np.arange(num_clusters), optimal_arms] = (1.0 + epsilon) / 2.0
    cluster_of = np.arange(num_users) % num_clusters
    P = X[cluster_of]
    return Instance(
        num_users, num_arms, num_clusters, P, cluster_of, X, nu=0.0,
        default_noise=NoiseModel("bernoulli-reward", sigma=0.5),
    )


class Environment:
    """Round-driven simulator over one instance, and its run's ledger: the
    `users`, `arms` (int32) and `rewards` (float64) of the horizon's rounds,
    16 bytes a round, of which the first `t` are played.

    The run seed splits into independent streams for user sampling and noise,
    pre-drawn for the whole horizon into the user and reward columns (a
    reward slot holds its round's noise draw until the round is played), so
    a run is bit-reproducible and holds nothing beside its ledger and the
    mean rewards that `play` reads; `bench.played_regret` derives its regret
    from the instance.  A policy reads only its shape (`num_users`,
    `num_arms`, `horizon`), the round `t` and the ledger, and plays through
    `run`.
    """

    def __init__(
        self,
        instance: Instance,
        noise: NoiseModel | None,
        seed,
        horizon: int,
    ):
        self.noise = noise if noise is not None else (instance.default_noise or NoiseModel("none"))
        check_noise_range(self.noise, instance.P)
        self.horizon = int(horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        user_ss, noise_ss = seed_sequence(seed).spawn(2)
        user_rng, noise_rng = np.random.default_rng(user_ss), np.random.default_rng(noise_ss)
        self.users = np.empty(self.horizon, dtype=np.int32)
        self.arms = np.empty(self.horizon, dtype=np.int32)
        self.rewards = np.empty(self.horizon, dtype=float)
        # every round's arrival, and its noise draw in its reward slot until the
        # round is played; draws continue their stream from chunk to chunk, so
        # they equal one draw over the whole horizon
        for n in range(0, self.horizon, CLOSE_CHUNK):
            k = min(CLOSE_CHUNK, self.horizon - n)
            self.users[n : n + k] = user_rng.integers(0, instance.num_users, size=k)
            self.rewards[n : n + k] = self.noise.draw_block(noise_rng, k)
        self.t = 0
        self.num_users, self.num_arms = instance.num_users, instance.num_arms
        # whether a round's reward is Bernoulli(mean) rather than mean plus its draw
        self._bernoulli = self.noise.kind == "bernoulli-reward"
        # a round reads and writes Python scalars through views of the ledger
        self._user_at = memoryview(self.users)
        self._mean_at = memoryview(instance.P)
        self._arm_out = memoryview(self.arms)
        self._reward_out = memoryview(self.rewards)

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
        if not 0 <= arm < self.num_arms:
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

    def rewards_for(self, rounds: np.ndarray, arms: np.ndarray) -> np.ndarray:
        """The rewards that `play` would write at the unplayed `rounds` for
        `arms`, the same doubles, computed without writing them: a policy
        plans rounds with them before it plays the rounds."""
        if len(arms) and not (0 <= arms.min() and arms.max() < self.num_arms):
            raise ArmOutOfRangeError("policy returned an arm outside the arm set")
        mean = np.asarray(self._mean_at).take(self.users[rounds] * self.num_arms + arms)
        draw = self.rewards[rounds]
        if self._bernoulli:
            return np.where(draw < mean, 1.0, 0.0)
        return mean + draw

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
        values one call per round would draw.  When `ucb` is a
        `lattice.UcbTable`, its `plan` then chooses the block's UCB rounds
        from the rewards `rewards_for` gives, untried arms in bulk and the
        rest in waves over users where the block's arrivals fill them, and
        writes the states as per-round updates would; a round it leaves, and
        every UCB round of any other mapping, is played through its state's
        `select` and `update`.  Every round is then one `play`, and each
        oracle is `credit`ed the rewards of the rounds it served.
        """
        num_users, num_arms = self.num_users, self.num_arms
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
        # a UcbTable plans its states' rounds before they are played
        plan_ucb = getattr(ucb, "plan", None)
        given = oracles is not None
        collecting = [i for i, o in enumerate(oracles or []) if o is not None and o.collecting]
        end = min(end, self.horizon)
        user_at, play = self._user_at, self.play
        while self.t < end and (collecting or not given):
            start = self.t
            users = self.users[start : min(start + CLOSE_CHUNK, end)]
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
            lowest = plan.min()
            if lowest == _OUT_OF_RANGE:
                raise ArmOutOfRangeError("policy returned an arm outside the arm set")
            if lowest == _UCB and plan_ucb is not None:
                at = np.flatnonzero(plan == _UCB)
                plan[at] = plan_ucb(users[at], start + at, self.rewards_for)
            for arm in memoryview(plan):
                if arm >= 0:
                    play(arm)
                else:
                    state = ucb[user_at[self.t]]
                    arm = state.select()
                    _, _, reward = play(arm)
                    state.update(reward)
            for oracle, at in served:
                oracle.credit(self.rewards[start + at])


def int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def true_or_false(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def float_finite(text: str) -> float:
    """`float(text)`, which must be finite: NaN and the infinities fail."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# field type -> parser of its text in a config or instance file
_PARSERS = {
    int: int, float: float_finite, bool: true_or_false, list[int]: int_list, str: str,
    RowDistribution: RowDistribution.parse,
}


def option_types(cls, skip=()) -> dict[str, object]:
    """Key -> parser for every field of the dataclass `cls` not in `skip`,
    reading `X | None` as X."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        hint = hints[f.name]
        if isinstance(hint, types.UnionType):
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            hint = args[0] if len(args) == 1 else hint
        if hint not in _PARSERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no parser for {hint}")
        out[f.name] = _PARSERS[hint]
    return out


def read_sections(text: str, keyed=None) -> dict[str, dict[str, str] | list[str]]:
    """The sections of a config or instance file's text by name: the `key =
    value` lines of a section in `keyed` (every section when None) as a dict,
    any other's stripped lines as rows, skipping blank and `#` lines.  A line
    outside any section, a second [name], a key without `=` or a key set
    twice is a ConfigError naming its line."""
    sections: dict[str, dict[str, str] | list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"line {lineno}: [{name}] may appear only once")
            sections[name] = {} if keyed is None or name in keyed else []
        elif not sections:
            raise ConfigError(f"line {lineno}: {line!r}: outside any section")
        elif isinstance(body := sections[name], list):
            body.append(line)
        else:
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise ConfigError(f"line {lineno}: expected 'key = value' in [{name}]")
            if key in body:
                raise ConfigError(f"line {lineno}: {key} is set twice in [{name}]")
            body[key] = value.strip()
    return sections


def parse_section(section: str, params: dict[str, str], parsers: dict) -> dict[str, object]:
    """Typed values of one section's keys, given each accepted key's parser;
    an unknown key or an unparsable value is a ConfigError naming both."""
    values: dict[str, object] = {}
    for key, raw in params.items():
        parse = parsers.get(key)
        if parse is None:
            raise ConfigError(f"{section}.{key}: unknown key; accepted keys: {', '.join(parsers)}")
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{section}.{key}: cannot parse {raw!r} as {parse.__qualname__} ({exc})"
            ) from None
    return values


@dataclass(frozen=True, kw_only=True)
class _Meta:
    """The [meta] keys of an instance file: what `save_instance` writes."""

    num_users: int
    num_arms: int
    num_clusters: int
    nu: float = 0.0
    noise_kind: str = "none"
    noise_sigma: float = 0.0

    def __post_init__(self):
        dimensions = self.num_users, self.num_arms, self.num_clusters
        check_key("meta.num_users, num_arms, num_clusters", check_dimensions, *dimensions)
        check_key("meta.nu", check_nu, self.nu)
        check_key("meta.noise_kind, noise_sigma", NoiseModel, self.noise_kind, self.noise_sigma)


_META_TYPES = option_types(_Meta)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_instance(instance: Instance, path) -> None:
    """Write the instance as structured text with 17-significant-digit floats."""
    inst, noise = instance, instance.default_noise or NoiseModel("none")
    meta = _Meta(num_users=inst.num_users, num_arms=inst.num_arms,
                 num_clusters=inst.num_clusters, nu=inst.nu, noise_kind=noise.kind,
                 noise_sigma=noise.sigma)
    lines = ["# clusterbandits instance v1", "[meta]"]
    for f in fields(meta):
        value = getattr(meta, f.name)
        lines.append(f"{f.name} = {_fmt(value) if isinstance(value, float) else value}")
    lines += ["[cluster_of]", " ".join(str(int(c)) for c in inst.cluster_of)]
    for name, matrix in (("X", inst.X), ("P", inst.P)):
        lines.append(f"[{name}]")
        lines.extend(" ".join(_fmt(v) for v in row) for row in matrix)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> Instance:
    """The instance of an instance file.  A ConfigError names the line, [meta]
    key or section that is unknown, repeated, missing, not finite, cannot be
    parsed or does not fit [meta]."""
    with open(path) as fh:
        sections = read_sections(fh.read(), keyed=("meta",))
    if unknown := [name for name in sections if name not in ("meta", "cluster_of", "X", "P")]:
        raise ConfigError(f"[{unknown[0]}]: unknown section")
    values = parse_section("meta", sections.get("meta", {}), _META_TYPES)
    for f in fields(_Meta):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"meta.{f.name}: missing")
    meta = _Meta(**values)
    num_users, num_arms, num_clusters = meta.num_users, meta.num_arms, meta.num_clusters

    def entries(name: str, parse) -> list[list]:
        try:
            return [[parse(x) for x in line.split()] for line in sections.get(name, [])]
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None

    cluster_of = np.fromiter(itertools.chain.from_iterable(entries("cluster_of", int)), int)
    if len(cluster_of) != num_users or not np.all((0 <= cluster_of) & (cluster_of < num_clusters)):
        raise ConfigError(f"[cluster_of] must hold {num_users} clusters in 0..{num_clusters - 1}")
    matrices = []
    for name, num_rows in (("X", num_clusters), ("P", num_users)):
        rows = entries(name, float_finite)
        if len(rows) != num_rows or any(len(row) != num_arms for row in rows):
            raise ConfigError(f"[{name}] must hold {num_rows} rows of {num_arms} values")
        matrices.append(np.array(rows))
    X, P = matrices
    noise = NoiseModel(meta.noise_kind, meta.noise_sigma) if meta.noise_kind != "none" else None
    return Instance(
        num_users, num_arms, num_clusters, P, cluster_of, X, nu=meta.nu, default_noise=noise
    )
