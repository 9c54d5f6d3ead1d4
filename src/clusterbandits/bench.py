"""Experiment harness: config parsing, seeded multi-run execution, CSV and
SVG emission, and regret-scaling studies.

Config files are flat key = value text with [section] headers, read as
instance files are (`env.read_sections`).  Each section's keys are the
fields of a dataclass, parsed by their types: [instance]'s are its kind's
spec (`CsSpec`, `RcsSpec`, `HardSpec`, or `FileSpec` for a saved instance),
[experiment]'s are `ExperimentConfig`'s, and [algorithm <name>]'s are that
policy's config, whose run function is `run(env, config, seed)` on the
environment and seed that `open_cell` makes.  A key or section may appear
once, and each horizon and seed once per experiment.  Every run of an
experiment shares the instance; its interaction randomness varies with the
per-run seed.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, checker, env, lattice, rcs
from .env import ConfigError


class CellError(RuntimeError):
    """A cell of `run_experiment` raised; `report` holds the cells that
    finished before it, and the message names the failed cell."""

    def __init__(self, algorithm: str, horizon: int, seed: int, report: "Report", cause):
        super().__init__(f"{algorithm} T={horizon} seed={seed}: {cause}")
        self.report = report


# algorithm section -> (config dataclass, module and name of its run function).
# num_clusters, sigma and nu, where a section has them, default to the
# instance's and the noise model's values.  The run function is looked up on
# its module at call time, so a wrapper installed there sees every cell.
_SECTIONS = {
    "lattice": (lattice.LatticeConfig, lattice, "run_lattice"),
    "lattice-rcs": (rcs.RcsConfig, rcs, "run_lattice_rcs"),
    "ucb": (baselines.UcbConfig, baselines, "run_per_user_ucb"),
    "etc": (baselines.EtcConfig, baselines, "run_explore_then_commit"),
    "simplified-lattice": (baselines.SimplifiedConfig, baselines, "run_simplified_lattice"),
}
ALGORITHM_NAMES = tuple(_SECTIONS)

# accepted keys and their parsers, per algorithm section
ALGORITHM_OPTIONS = {name: env.option_types(cls) for name, (cls, _, _) in _SECTIONS.items()}


@dataclass(kw_only=True)
class InstanceSpec:
    """The [instance] keys every kind reads: `kind`, and the `noise` (scaled by
    `sigma`) that replaces the instance's default noise.  A generated kind's
    other keys are its `make`'s arguments.  Range errors are ConfigErrors."""

    kind: str
    noise: str = ""
    sigma: float = 0.0

    def __post_init__(self):
        if self.noise not in ("", *env.NOISE_KINDS):
            raise ConfigError(f"instance.noise: must be one of {', '.join(env.NOISE_KINDS)}")
        env.check_key("instance.sigma", env.NoiseModel, self.noise or "none", self.sigma)

    def build(self) -> env.Instance:
        skip = ("kind", "noise", "sigma")
        return self.make(**{key: v for key, v in vars(self).items() if key not in skip})


@dataclass(kw_only=True)
class _GeneratedSpec(InstanceSpec):
    """The keys of every generated kind: its dimensions."""

    num_users: int = 0
    num_arms: int = 0
    num_clusters: int = 1

    def __post_init__(self):
        super().__post_init__()
        dimensions = self.num_users, self.num_arms, self.num_clusters
        key = "instance.num_users, num_arms, num_clusters"
        env.check_key(key, env.check_dimensions, *dimensions)


@dataclass(kw_only=True)
class CsSpec(_GeneratedSpec):
    """kind = cs: exact clusters, whose rows are drawn from `row_distribution`
    by the generator seeded with `seed`."""

    row_distribution: env.RowDistribution = env.RowDistribution.gaussian()
    seed: int = 0
    make = staticmethod(env.generate_cs_instance)

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ConfigError(f"instance.seed: must be >= 0, got {self.seed}")


@dataclass(kw_only=True)
class RcsSpec(CsSpec):
    """kind = rcs: relaxed clusters, whose users' rows differ by up to `nu`."""

    nu: float = 0.0
    make = staticmethod(env.generate_rcs_instance)

    def __post_init__(self):
        super().__post_init__()
        env.check_key("instance.nu", env.check_nu, self.nu)


@dataclass(kw_only=True)
class HardSpec(_GeneratedSpec):
    """kind = hard: the Bernoulli lower-bound instance, each cluster's best
    arm (`optimal_arms`) `epsilon` above the rest."""

    epsilon: float = 0.5
    optimal_arms: list[int] = field(default_factory=list)
    make = staticmethod(env.generate_hard_instance)

    def __post_init__(self):
        super().__post_init__()
        env.check_key("instance.epsilon", env.check_epsilon, self.epsilon)
        arms = self.optimal_arms, self.num_arms, self.num_clusters
        env.check_key("instance.optimal_arms", env.check_optimal_arms, *arms)


@dataclass(kw_only=True)
class FileSpec(InstanceSpec):
    """kind = file: the instance saved at `path`."""

    path: str = ""

    def __post_init__(self):
        super().__post_init__()
        if not self.path:
            raise ConfigError("instance.path: required when kind = file")

    def build(self) -> env.Instance:
        try:
            return env.load_instance(self.path)
        except ValueError as exc:
            raise ConfigError(f"instance.path: {self.path}: {exc}") from None


# [instance] kind -> its spec, and the keys that kind reads with their parsers
INSTANCE_KINDS = {"cs": CsSpec, "rcs": RcsSpec, "hard": HardSpec, "file": FileSpec}
INSTANCE_TYPES = {kind: env.option_types(cls) for kind, cls in INSTANCE_KINDS.items()}
# every key some kind reads: a section's values parse before its kind is checked
_INSTANCE_PARSERS = {key: p for types in INSTANCE_TYPES.values() for key, p in types.items()}


def instance_spec(values: dict[str, object]) -> InstanceSpec:
    """The checked spec of an [instance] section's parsed values, whose kind
    must read every key given; ranges are checked before unread keys."""
    kind = values.get("kind", "")
    if kind not in INSTANCE_KINDS:
        raise ConfigError(f"instance.kind: must be one of {', '.join(INSTANCE_KINDS)}")
    read = INSTANCE_TYPES[kind]
    spec = INSTANCE_KINDS[kind](**{key: v for key, v in values.items() if key in read})
    if unread := [key for key in values if key not in read]:
        raise ConfigError(f"instance.{unread[0]}: not read when kind = {kind}, which reads "
                          f"{' '.join(sorted(read))}")
    if "sigma" in values and not values.get("noise"):
        raise ConfigError("instance.sigma: not read without instance.noise, which it scales")
    return spec


@dataclass
class ExperimentConfig:
    """A parsed config: the [instance] values by key, each [algorithm <name>]
    section as (name, values by key), and the [experiment] keys as fields.
    Building one checks it and keeps its instance's `spec`; `replace` checks the copy."""

    instance: dict[str, object]
    algorithms: list[tuple[str, dict[str, object]]]
    horizon: list[int] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    check: bool = False
    full_history: bool = False
    spec: InstanceSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("experiment: at least one [algorithm <name>] section is required")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("experiment.seeds: at least one seed, each >= 0, is required")
        if not self.horizon or min(self.horizon) < 1:
            raise ConfigError("experiment.horizon: at least one horizon, each >= 1, is required")
        # a repeat would merge two cells into one summary stretch (the reader
        # rejects a repeated [algorithm <name>] section)
        for key, values in {"horizon": self.horizon, "seeds": self.seeds}.items():
            twice = [v for i, v in enumerate(values) if v in values[:i]]
            if twice:
                raise ConfigError(f"experiment.{key}: {twice[0]} may appear only once")
        self.spec = instance_spec(self.instance)


# accepted [experiment] keys and their parsers
EXPERIMENT_TYPES = env.option_types(ExperimentConfig, skip=("instance", "algorithms", "spec"))


def parse_config(text: str) -> ExperimentConfig:
    """The checked config of a config file's text; each section is parsed once."""
    sections = env.read_sections(text)
    instance = env.parse_section("instance", sections.pop("instance", {}), _INSTANCE_PARSERS)
    experiment = env.parse_section("experiment", sections.pop("experiment", {}), EXPERIMENT_TYPES)
    algorithms: list[tuple[str, dict[str, object]]] = []
    for name, body in sections.items():
        if not name.startswith("algorithm"):
            raise ConfigError(f"unknown section [{name}]")
        algo = name[len("algorithm"):].strip()
        if algo not in ALGORITHM_NAMES:
            raise ConfigError(
                f"unknown algorithm {algo!r}; expected one of {', '.join(ALGORITHM_NAMES)}"
            )
        params = env.parse_section(f"algorithm {algo}", body, ALGORITHM_OPTIONS[algo])
        algorithms.append((algo, params))
    return ExperimentConfig(instance, algorithms, **experiment)


def build_algorithm(
    name: str, params: dict[str, object], instance: env.Instance, noise: env.NoiseModel
):
    """The config dataclass of one algorithm section's parsed values."""
    inherited = {"num_clusters": instance.num_clusters, "sigma": noise.sigma, "nu": instance.nu}
    values = {k: v for k, v in inherited.items() if k in ALGORITHM_OPTIONS[name]}
    try:
        return _SECTIONS[name][0](**{**values, **params})
    except ValueError as exc:
        raise ConfigError(f"algorithm {name}: {exc}") from None


def build_instance(spec: dict[str, object]) -> env.Instance:
    """The instance of an [instance] section's parsed values."""
    return instance_spec(spec).build()


def build_noise(spec: dict[str, object], instance: env.Instance) -> env.NoiseModel:
    if kind := spec.get("noise", ""):
        return env.NoiseModel(kind, spec.get("sigma", 0.0))
    return instance.default_noise or env.NoiseModel("none")


def open_cell(
    instance: env.Instance, noise: env.NoiseModel | None, horizon: int, seed
) -> tuple[env.Environment, np.random.SeedSequence]:
    """The environment of one cell and its policy's seed: the cell seed
    splits into the environment's streams and the policy's."""
    env_ss, policy_ss = env.seed_sequence(seed).spawn(2)
    return env.Environment(instance, noise, env_ss, horizon), policy_ss


def check_run(ledger: env.Environment, trace: lattice.PhaseTrace | None) -> None:
    """Raise RuntimeError unless the run played its horizon and, with a trace, its
    phases charge every round, partition the users and only shrink arm sets."""
    if ledger.t != ledger.horizon:
        raise RuntimeError(f"played {ledger.t} of {ledger.horizon} rounds")
    records = [] if trace is None else trace.records
    if trace is not None and (used := sum(r.rounds_used for r in records)) != ledger.t:
        raise RuntimeError(f"phases 1-{len(records)} charge {used} of {ledger.t} rounds")
    origin, before = [0] * ledger.num_users, [range(ledger.num_arms)]
    for r in records:
        if sorted(u for us in r.user_sets for u in us) != list(range(ledger.num_users)):
            raise RuntimeError(f"phase {r.phase}: user sets must partition the users")
        for us, arms in zip(r.user_sets, r.arm_sets):
            if not all(set(arms) <= set(before[i]) for i in {origin[u] for u in us}):
                raise RuntimeError(f"phase {r.phase}: arm sets must only shrink")
        origin, before = {u: i for i, us in enumerate(r.user_sets) for u in us}, r.arm_sets


def measure_oracle(trace: lattice.PhaseTrace | None, P: np.ndarray) -> None:
    """Set each phase's `oracle_error`, the largest entrywise error of its
    estimates against the true matrix `P` (None with no estimate), and drop
    the estimates."""
    if trace is None:
        return
    for record in trace.records:
        errors = [
            float(np.max(np.abs(values - P[np.ix_(users, arms)])))
            for users, arms, values in record.estimates
        ]
        record.oracle_error = max(errors) if errors else None
        record.estimates = []


def played_regret(
    ledger: env.Environment, rounds, instance: env.Instance
) -> tuple[np.ndarray, np.ndarray]:
    """The instantaneous regret on `instance` (a user's best mean reward
    minus the played arm's) and the cumulative regret of the environment
    `ledger` at each of `rounds`: round counts from 1 to `ledger.t`, in
    nondecreasing order, read in their own integer dtype (an int32 grid is
    not copied to int64).  One pass over CLOSE_CHUNK-round blocks sums every
    round's regret in round order, each block's running total its first
    addend, exactly as one `+=` per round would, wherever the blocks end."""
    rounds = np.asarray(rounds)
    inst_out, cum_out = np.empty(len(rounds)), np.empty(len(rounds))
    end = int(rounds[-1]) if len(rounds) else 0
    if end > ledger.t or (len(rounds) and rounds[0] < 1):
        raise ValueError(f"rounds must lie in 1..{ledger.t}")
    P = instance.P
    best_reward = P[np.arange(instance.num_users), instance.best_arm]
    total, done = 0.0, 0
    for n in range(0, end, env.CLOSE_CHUNK):
        stop = min(n + env.CLOSE_CHUNK, end)
        users, arms = ledger.users[n:stop], ledger.arms[n:stop]
        inst = best_reward[users] - P[users, arms]
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


def _run_cell(name, config, instance, noise, horizon, seed, full):
    """One (algorithm, seed) cell; returns (its record, trace or None).  The
    cell's ledger and its oracle estimates are dropped when this returns.
    The checkpoint grid is built after the cell: its first `np.unique` in a
    process imports numpy.ma (over 1 MB), which would otherwise add to the
    cell's peak memory."""
    _, module, run = _SECTIONS[name]
    cell_env, policy_seed = open_cell(instance, noise, horizon, seed)
    trace = getattr(module, run)(cell_env, config, policy_seed)
    check_run(cell_env, trace)
    measure_oracle(trace, instance.P)
    grid = None if full else checkpoint_grid(horizon)
    return regret_record(cell_env, instance, grid), trace


# log-spaced checkpoint rounds per run, before rounding merges some
CHECKPOINTS = 100


def checkpoint_grid(horizon: int) -> np.ndarray:
    pts = np.unique(
        np.round(np.logspace(0, math.log10(max(horizon, 1)), CHECKPOINTS)).astype(int)
    )
    pts = pts[(pts >= 1) & (pts <= horizon)]
    if len(pts) == 0 or pts[-1] != horizon:
        pts = np.append(pts, horizon)
    return pts


@dataclass(frozen=True)
class RegretRecord:
    """What a report keeps of a finished run: its instantaneous and
    cumulative regret at the rounds `t` that regret.csv writes, whose last
    row is its final regret, and (as `len`) the rounds it played.  `t` is
    `grid` (its horizon's checkpoint grid, or the rounds regret.csv lists),
    or every round played when `grid` is None."""

    grid: np.ndarray | None
    inst_regret: np.ndarray
    cumulative_regret: np.ndarray
    rounds: int

    def __len__(self) -> int:
        return self.rounds

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret[-1])

    @property
    def t(self) -> np.ndarray:
        if self.grid is not None:
            return self.grid
        # a run plays fewer than 2^31 rounds, so int32 holds its rounds
        return np.arange(1, self.rounds + 1, dtype=np.int32)


def regret_record(
    ledger: env.Environment, instance: env.Instance, grid: np.ndarray | None
) -> RegretRecord:
    """The record of a finished run's ledger on `instance`: its regret at
    the rounds of `grid`, or at every round played when `grid` is None.  A
    grid round past the last round played reads that round, so the last row
    is the final one."""
    n = ledger.t
    # every round as `RegretRecord.t` lists them
    rounds = np.arange(1, n + 1, dtype=np.int32) if grid is None else np.minimum(grid, n)
    inst, cum = played_regret(ledger, rounds, instance)
    return RegretRecord(grid, inst, cum, n)


@dataclass
class RunResult:
    run_id: int
    algorithm: str
    seed: int
    horizon: int
    history: RegretRecord
    trace: lattice.PhaseTrace | None


@dataclass
class Report:
    config: ExperimentConfig
    runs: list[RunResult] = field(default_factory=list)
    assumption: checker.AssumptionReport | None = None


@dataclass
class Stretch:
    """summary.csv rows of one (algorithm, horizon): the mean and standard
    error of its runs' cumulative regret at the rounds `t`, which are
    nonempty and strictly increasing.  A stretch reduced over one run has
    that run's cumulative column as its mean, and its standard errors may be
    a read-only zero-stride array."""

    algorithm: str
    horizon: int
    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray


def _has_negative_zero(values: np.ndarray) -> bool:
    """Whether `values` holds a -0.0, looked for WRITE_CHUNK values at a time."""
    for start in range(0, len(values), WRITE_CHUNK):
        chunk = values[start : start + WRITE_CHUNK]
        if np.signbit(chunk[chunk == 0.0]).any():
            return True
    return False


def summarize(runs: list[RunResult]) -> list[Stretch]:
    """Mean and standard error of cumulative regret per (algorithm, horizon,
    t), as one stretch per (algorithm, horizon) in order of first appearance.

    The horizon enters the policies, so runs of different horizons are not
    averaged together.  Every run plays to its horizon, so a group's runs
    hold the same rounds (a group whose runs do not, as only a hand-edited
    regret.csv can, is a ConfigError) and fill, in row order, a C-contiguous
    (rounds x runs) block.  It is reduced with `mean(axis=1)` and
    `std(axis=1, ddof=1)`, which sum each row exactly as
    `np.array(values).mean()` sums the group alone; a group of one run keeps
    that run's column.  Besides the summary, this holds one block at a time.
    """
    groups: dict[tuple[str, int], list[RegretRecord]] = {}
    for run in runs:
        groups.setdefault((run.algorithm, run.horizon), []).append(run.history)
    summary = []
    for (name, horizon), records in groups.items():
        t = records[0].t
        if not all(np.array_equal(record.t, t) for record in records[1:]):
            raise ConfigError(f"{name} at horizon {horizon}: its runs hold different rounds")
        if len(records) == 1:
            # the mean of one value is that value, except that -0.0 becomes 0.0
            column = records[0].cumulative_regret
            mean = column + 0.0 if _has_negative_zero(column) else column
            stderr = np.broadcast_to(0.0, len(t))
        else:
            block = np.stack([record.cumulative_regret for record in records], axis=1)
            mean = block.mean(axis=1)
            stderr = block.std(axis=1, ddof=1) / math.sqrt(len(records))
        summary.append(Stretch(name, horizon, t, mean, stderr))
    return summary


def run_experiment(config: ExperimentConfig, progress=None) -> Report:
    """Execute every (algorithm, horizon, seed) cell sequentially.

    The instance is built once from its own seed; each cell's interaction
    randomness comes from the cell seed, so reruns are bit-identical.
    A cell that raises stops the experiment with a `CellError` that carries
    the report of the cells before it.
    """
    instance = config.spec.build()
    noise = build_noise(config.instance, instance)
    env.check_key("instance.noise", env.check_noise_range, noise, instance.P)
    # every section's config is built before any cell runs, so a bad value
    # fails the experiment up front
    algorithms = [
        (algo, build_algorithm(algo, params, instance, noise))
        for algo, params in config.algorithms
    ]
    report = Report(config=config)
    if config.check:
        report.assumption = checker.assumption_report(instance)
    run_id = 0
    for horizon in config.horizon:
        for algo, algo_config in algorithms:
            for seed in config.seeds:
                try:
                    record, trace = _run_cell(
                        algo, algo_config, instance, noise, horizon, seed, config.full_history
                    )
                except Exception as exc:
                    raise CellError(algo, horizon, seed, report, exc) from exc
                report.runs.append(RunResult(run_id, algo, seed, horizon, record, trace))
                run_id += 1
                if progress is not None:
                    progress(algo, horizon, seed, record.final_regret)
    return report


# rows per write of the row-template writers; bounds the text held at once,
# since each chunk's floats are formatted only when it is written
WRITE_CHUNK = 2**10


def _strings(fmt: str, values: np.ndarray) -> np.ndarray:
    """`fmt % v` for every float64 in `values`, as an object array.  Each
    distinct bit pattern is formatted once, so -0.0 and NaN keep their text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    strings = list(map(fmt.__mod__, bits.view(np.float64).tolist()))
    return np.array(strings, dtype=object)[inverse]


def _csv_row(fields) -> str:
    """One line as `csv.writer` writes it, quoting included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _template(fields, rest: str) -> str:
    """A row template: `fields` as `_csv_row` writes them, `%` escaped, then `rest`."""
    return _csv_row([*fields, ""])[:-1].replace("%", "%%") + rest


def _rows_text(template: str, *columns) -> str:
    """`template % row` for each row of the equal-length `columns`, joined,
    by one `%` over the template repeated once per row, fed the values row by
    row.  A float64 column reaches the template as its `%.17g` text."""
    rows, width = len(columns[0]), len(columns)
    values = [None] * (rows * width)
    for j, c in enumerate(columns):
        values[j::width] = (_strings("%.17g", c) if c.dtype == np.float64 else c).tolist()
    return (template * rows) % tuple(values)


def _write_rows(fh, template: str, *columns) -> None:
    """Write `template % row` for each row of `columns`, WRITE_CHUNK rows at a
    time, each chunk rendered by `_rows_text`."""
    for start in range(0, len(columns[0]), WRITE_CHUNK):
        fh.write(_rows_text(template, *(c[start : start + WRITE_CHUNK] for c in columns)))


def write_regret_csv(report: Report, path: Path, summary_path: Path | None = None) -> None:
    """Write regret.csv one run at a time, each run's record WRITE_CHUNK rows
    at a time.

    With `summary_path`, where every (algorithm, horizon) holds one run,
    summary.csv is written in the same pass: the mean of one value is that
    value, so each chunk's cum_regret text is also its summary rows' mean
    (a cumulative regret starts from +0.0, so is never -0.0), and each stderr is 0."""
    with contextlib.ExitStack() as files:
        fh = files.enter_context(open(path, "w", newline=""))
        fh.write(_csv_row(REGRET_FIELDS))
        if summary_path is not None:
            sfh = files.enter_context(open(summary_path, "w", newline=""))
            sfh.write(_csv_row(SUMMARY_FIELDS))
        for run in report.runs:
            record = run.history
            t, inst, cum = record.t, record.inst_regret, record.cumulative_regret
            template = _template([run.run_id, run.algorithm, run.seed], "%d,%s,%s\n")
            summary_template = _template([run.algorithm, run.horizon], "%d,%s,0\n")
            for start in range(0, len(t), WRITE_CHUNK):
                chunk = slice(start, start + WRITE_CHUNK)
                text = _strings("%.17g", cum[chunk])
                fh.write(_rows_text(template, t[chunk], inst[chunk], text))
                if summary_path is not None:
                    sfh.write(_rows_text(summary_template, t[chunk], text))


def read_regret_csv(path: Path) -> list[RunResult]:
    """The runs of a regret.csv file, read row by row, each with no trace and
    the file's t, instant_regret and cum_regret columns as its record.  A run
    ends where run_id or algorithm changes or t stops increasing, and its
    last t is its horizon and the rounds it played.  A row that does not
    hold one field per header column, or whose number does not parse, is a
    ConfigError naming its line."""
    parsed = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, REGRET_FIELDS)
        if missing := [k for k in REGRET_FIELDS if k not in header]:
            raise ConfigError(f"{path}: no {', '.join(missing)} column")
        fields = operator.itemgetter(*map(header.index, REGRET_FIELDS))
        key, last = None, 0
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, against {len(header)} columns")
                run_id, algo, seed, t, inst, cum = fields(row)
                t = int(t)
                if (run_id, algo) != key or t <= last:
                    key = run_id, algo
                    ts, insts, cums = array.array("q"), array.array("d"), array.array("d")
                    parsed.append((int(run_id), algo, int(seed), ts, insts, cums))
                ts.append(t)
                insts.append(float(inst))
                cums.append(float(cum))
            except ValueError as exc:
                raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
            last = t
    runs = []
    for run_id, algo, seed, *columns in parsed:
        t, inst, cum = (np.frombuffer(c, dtype=np.dtype(c.typecode)) for c in columns)
        record = RegretRecord(t, inst, cum, int(t[-1]))
        runs.append(RunResult(run_id, algo, seed, int(t[-1]), record, None))
    return runs


def write_summary_csv(summary: list[Stretch], path: Path) -> None:
    """Write summary.csv, one row template per stretch."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_row(SUMMARY_FIELDS))
        for stretch in summary:
            template = _template([stretch.algorithm, stretch.horizon], "%d,%s,%s\n")
            _write_rows(fh, template, stretch.t, stretch.mean, stretch.stderr)


REGRET_FIELDS = ["run_id", "algorithm", "seed", "t", "instant_regret", "cum_regret"]
SUMMARY_FIELDS = ["algorithm", "horizon", "checkpoint_t", "mean", "stderr"]
TRACE_FIELDS = [
    "run_id",
    "algorithm",
    "seed",
    "phase",
    "delta",
    "mode",
    "num_sets",
    "set_sizes",
    "arm_set_sizes",
    "rounds_used",
    "oracle_error",
]


def emit_report(report: Report, out_dir) -> dict[str, Path]:
    """Write regret.csv, summary.csv, phase_trace.csv and regret.svg.

    regret.csv is streamed one run at a time from the runs' records;
    summary.csv and regret.svg are computed from the same numbers.  When
    every (algorithm, horizon) holds one run, as in every one-seed
    experiment, summary.csv is written in regret.csv's pass from the same
    text; otherwise it is written from `summarize`, which feeds the chart
    either way."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    paths["regret"] = out / "regret.csv"
    paths["summary"] = out / "summary.csv"
    one_each = len({(run.algorithm, run.horizon) for run in report.runs}) == len(report.runs)
    write_regret_csv(report, paths["regret"], paths["summary"] if one_each else None)
    summary = summarize(report.runs)
    if not one_each:
        write_summary_csv(summary, paths["summary"])
    paths["phase_trace"] = out / "phase_trace.csv"
    with open(paths["phase_trace"], "w", newline="") as fh:
        fh.write(_csv_row(TRACE_FIELDS))
        for run in report.runs:
            for r in run.trace.records if run.trace is not None else ():
                delta, err = ("" if v is None else format(v, ".17g") for v in (r.delta, r.oracle_error))
                fh.write(_csv_row([
                    run.run_id, run.algorithm, run.seed, r.phase, delta,
                    r.mode if run.trace.has_mode else "", len(r.user_sets),
                    ";".join(str(len(s)) for s in r.user_sets),
                    ";".join(str(len(a)) for a in r.arm_sets), r.rounds_used, err,
                ]))
    if report.runs:
        paths["svg"] = out / "regret.svg"
        write_regret_svg(summary, paths["svg"])
    if report.assumption is not None:
        paths["assumptions"] = out / "assumptions.txt"
        paths["assumptions"].write_text(report.assumption.to_text())
    return paths


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _m4(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the M4 points of a nonempty series (Jugel, Jerzak,
    Hackenbroich & Markl, VLDB 2014): in each pixel column floor(x), the first
    and last point and the first point of lowest and of highest y, in series
    order without repeats.  x must be monotone, so that each column's points
    are contiguous.  A column whose y holds a NaN keeps its first point in
    place of its extremes."""
    n = len(x)
    rising = x[0] <= x[-1]
    ascending = x if rising else x[::-1]
    # for an integer c, floor(x) >= c exactly when x >= c
    cuts = np.arange(math.floor(ascending[0]) + 1, math.floor(ascending[-1]) + 1)
    bounds = np.unique(np.r_[0, np.searchsorted(ascending, cuts), n])
    if not rising:
        bounds = n - bounds[::-1]
    keep = []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        column = y[start:stop]
        low, high = start + int(column.argmin()), start + int(column.argmax())
        if math.isnan(y[low]):
            low = high = start
        keep += [start, low, high, stop - 1]
    return np.unique(keep)


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """SVG `points` text of the (x, y) pairs, each coordinate `%.2f`."""
    xs, ys = _strings("%.2f", x).tolist(), _strings("%.2f", y).tolist()
    return " ".join(map("%s,%s".__mod__, zip(xs, ys)))


def _pixel_blocks(x_of, n: int):
    """Yield (start, x) for consecutive blocks of whole pixel columns that
    cover `n` rows, x being the block's x; a block holds at most WRITE_CHUNK
    rows unless one column alone holds more.  `x_of(start, stop)` is the
    nondecreasing x of those rows."""
    start = 0
    while start < n:
        size = WRITE_CHUNK
        while True:
            x = x_of(start, min(start + size + 1, n))
            if start + size >= n:
                break
            # the column of the first row past the block starts the next block
            cut = int(np.searchsorted(x, math.floor(x[-1])))
            if cut:
                x = x[:cut]
                break
            size *= 2
        yield start, x
        start += len(x)


def write_regret_svg(summary: list[Stretch], path) -> None:
    """Cumulative-regret chart: one mean line per stretch, in order of
    (algorithm, horizon), with a shaded standard-error band; lines past the
    sixth repeat the palette dashed, and the legend adds each line's horizon
    when the summary has several.  One user unit is one pixel, and each
    series is thinned to its M4 points per pixel column: the mean line, the
    band's upper edge left to right and its lower edge right to left, each on
    its own y.  Each series is drawn in blocks of whole pixel columns, so
    besides the summary this holds one block at a time."""
    width, height, margin = 720, 480, 60
    t_max = max((int(stretch.t[-1]) for stretch in summary), default=1)
    # the maximum of the chunks' maxima, which is NaN if any of them is
    tops = [
        (stretch.mean[k : k + WRITE_CHUNK] + stretch.stderr[k : k + WRITE_CHUNK]).max()
        for stretch in summary
        for k in range(0, len(stretch.t), WRITE_CHUNK)
    ]
    y_max = float(np.max(tops)) if tops else 1.0
    y_max = y_max if y_max > 0 else 1.0

    def sy(y: np.ndarray) -> np.ndarray:
        return height - margin - (height - 2 * margin) * y / y_max

    def points(pieces) -> str:
        x, y = (np.concatenate(column) for column in zip(*pieces))
        return _points(x, sy(y))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-size="14">round</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">cumulative regret</text>',
    ]
    several = len({stretch.horizon for stretch in summary}) > 1
    for i, stretch in enumerate(sorted(summary, key=operator.attrgetter("algorithm", "horizon"))):
        color = _PALETTE[i % len(_PALETTE)]
        laps = i // len(_PALETTE)  # each later pass over the palette dashes longer
        dash = f' stroke-dasharray="{4 * laps} 2"' if laps else ""
        label = f"{stretch.algorithm} T={stretch.horizon}" if several else stretch.algorithm

        def x_of(start: int, stop: int) -> np.ndarray:
            # float64 rounds, so an int32 grid cannot overflow; exact below 2^53 / 600
            t = stretch.t[start:stop].astype(np.float64)
            return margin + (width - 2 * margin) * t / t_max

        upper, lower, line = [], [], []  # the kept (x, y) of each block
        for start, x in _pixel_blocks(x_of, len(stretch.t)):
            block = slice(start, start + len(x))
            m, s = stretch.mean[block], stretch.stderr[block]
            edge = m + s
            up = _m4(x, edge)
            upper.append((x[up], edge[up]))
            on = _m4(x, m)
            line.append((x[on], m[on]))
            back, edge = x[::-1], np.maximum(m - s, 0.0)[::-1]
            down = _m4(back, edge)
            lower.append((back[down], edge[down]))
        # the lower edge runs right to left, so its blocks are joined in reverse
        band = points(upper) + " " + points(lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15"/>')
        parts.append(
            f'<polyline points="{points(line)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        ly = margin + 18 * i
        parts.append(
            f'<line x1="{width - margin - 150}" y1="{ly}" x2="{width - margin - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(
            f'<text x="{width - margin - 112}" y="{ly + 4}" font-size="13">{label}</text>'
        )
    parts.append(f'<text x="{margin}" y="{height - margin + 18}" font-size="11">0</text>')
    parts.append(
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{t_max}</text>'
    )
    parts.append(
        f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{y_max:.0f}</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_scaling_csv(report: Report, path: Path) -> None:
    """Write scaling.csv: the final regret of each (algorithm, horizon, seed)."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_row(["algorithm", "horizon", "seed", "final_regret"]))
        for run in report.runs:
            final = format(run.history.final_regret, ".17g")
            fh.write(_csv_row([run.algorithm, run.horizon, run.seed, final]))


def scaling_slope(finals, algorithm: str) -> float:
    """Log-log slope of mean final regret against the horizon, from each run's
    (algorithm, horizon, final regret).  Raises ValueError when there is none:
    with fewer than two horizons, or when a mean final regret is not positive."""
    by_T: dict[int, list[float]] = {}
    for name, horizon, final_regret in finals:
        if name == algorithm:
            by_T.setdefault(horizon, []).append(final_regret)
    if len(by_T) < 2:
        raise ValueError("need at least two horizons for a slope fit")
    Ts = sorted(by_T)
    means = [np.mean(by_T[t]) for t in Ts]
    for horizon, mean in zip(Ts, means):
        if not mean > 0:
            raise ValueError(
                f"{algorithm} at horizon {horizon}: mean final regret is {mean:.17g}, "
                "and a log-log fit needs every mean positive"
            )
    return float(np.polyfit(np.log(Ts), np.log(means), 1)[0])
