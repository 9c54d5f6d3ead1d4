"""In-memory span tracer that wraps the package's public functions from outside.

`install` patches module and class attributes of ``clusterbandits`` so that
each call into a layer opens a span; nothing inside ``src/`` is changed.
Calls that happen once per round (``Environment.play``, the UCB and mask
collection methods) are counted and timed but not kept as spans, so a long
horizon does not fill memory; their time still counts as child time of the
span that made them.

A span's self time is its duration minus the durations of its direct
children, so the self times of a cell span and everything under it add up to
the cell span's duration.  The layer of a span is the part of its name before
the first dot; ``cell`` spans are the (algorithm, seed) cells and their self
time is the cell time no layer span covers.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    cell: int  # 0 outside any cell
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (name, cell) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, int], list] = {}
        # (counter, cell) -> value, for results read at the call boundary
        self.counters: dict[tuple[str, int], float] = {}
        self.cell = 0
        self._cells = 0
        self._stack: list[list] = []  # [name, start, child_s, span index, enclosing cell]

    def enter(self, name: str, record: bool = True) -> None:
        prev_cell = self.cell
        if name.startswith("cell."):
            self._cells += 1
            self.cell = self._cells
        idx = -1
        start = self.clock()
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            idx = len(self.spans)
            self.spans.append(Span(name, start, start, parent, self.cell))
        self._stack.append([name, start, 0.0, idx, prev_cell])

    def exit(self) -> int:
        """Close the innermost span; returns the cell it ran in."""
        end = self.clock()
        name, start, child, idx, prev_cell = self._stack.pop()
        dur = end - start
        cell = self.cell
        st = self.stats.get((name, cell))
        if st is None:
            st = self.stats[(name, cell)] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if idx >= 0:
            span = self.spans[idx]
            span.end = end
            span.child_s = child
        if self._stack:
            self._stack[-1][2] += dur
        self.cell = prev_cell
        return cell

    def count(self, counter: str, cell: int, value: float = 1) -> None:
        key = (counter, cell)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str, record: bool = True, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                cell = tracer.exit()
            if on_result is not None:
                on_result(tracer, cell, result)
            return result

        return traced

    @property
    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- aggregation -------------------------------------------------------

    def calls(self, *names: str, cell: int | None = None) -> int:
        return sum(
            st[0] for (n, c), st in self.stats.items() if n in names and cell in (None, c)
        )

    def total_s(self, *names: str) -> float:
        return sum(st[1] for (n, _), st in self.stats.items() if n in names)

    def self_time(self, *names: str) -> float:
        return sum(st[2] for (n, _), st in self.stats.items() if n in names)

    def counter(self, counter: str) -> float:
        return sum(v for (c, _), v in self.counters.items() if c == counter)

    def layer_self_in_cells(self) -> dict[str, float]:
        """Self seconds per layer over everything that ran inside cells."""
        out: dict[str, float] = {}
        for (name, cell), st in self.stats.items():
            if cell:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + st[2]
        return out

    def per_cell(self) -> list[dict]:
        """Counts per cell, in the order the cells ran."""
        cells = [s for s in self.spans if s.name.startswith("cell.")]
        out = []
        for span in cells:
            c = span.cell
            out.append(
                {
                    "algorithm": span.name[len("cell."):],
                    "seconds": span.end - span.start,
                    "rounds": self.calls("env.play", "env.step", cell=c),
                    "solves": self.calls("completion.solve", cell=c),
                    "svd_calls": self.calls("completion.svd", cell=c),
                    "solves_unconverged": int(self.counters.get(("solve_unconverged", c), 0)),
                }
            )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "cell", "self_s"])
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                writer.writerow(
                    [i, s.name, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}", s.parent, s.cell,
                     f"{s.self_s:.9f}"]
                )


def _on_solve(tracer: Tracer, cell: int, result) -> None:
    _, info = result
    tracer.count("solve_iters", cell, info.iterations)
    if not info.converged:
        tracer.count("solve_unconverged", cell)


def _on_choose(tracer: Tracer, cell: int, result) -> None:
    if result[1]:
        tracer.count("mask_pulls", cell)


def install(tracer: Tracer):
    """Wrap the public entry points of every layer of ``clusterbandits``;
    returns a function that restores the originals."""
    import numpy as np

    from clusterbandits import baselines, bench, checker, completion, env, lattice, rcs

    # (owner, attribute, span name, keep as span, result hook)
    targets = [
        (env.Environment, "__init__", "env.init", True, None),
        (env.Environment, "play", "env.play", False, None),
        (env.Environment, "step", "env.step", False, None),
        (completion, "solve_nuclear_norm", "completion.solve", True, _on_solve),
        # baselines imports the solver by name, so it holds its own reference
        (baselines, "solve_nuclear_norm", "completion.solve", True, _on_solve),
        (completion.MaskCollection, "choose", "completion.collect_choose", False, _on_choose),
        (completion.MaskCollection, "record", "completion.collect_record", False, None),
        (lattice, "build_user_graph", "lattice.graph", True, None),
        (lattice, "refine_partition", "lattice.refine", True, None),
        (lattice.UcbArmState, "select", "lattice.ucb_select", False, None),
        (lattice.UcbArmState, "update", "lattice.ucb_update", False, None),
        (baselines, "kmeans_elbow", "baselines.kmeans", True, None),
        (checker, "assumption_report", "checker.report", True, None),
        (bench, "parse_config", "bench.parse_config", True, None),
        (bench, "build_instance", "bench.build_instance", True, None),
        (bench, "run_experiment", "bench.run_experiment", True, None),
        (bench, "emit_report", "bench.emit", True, None),
        (lattice, "run_lattice", "cell.lattice", True, None),
        (rcs, "run_lattice_rcs", "cell.lattice-rcs", True, None),
        (baselines, "run_per_user_ucb", "cell.ucb", True, None),
        (baselines, "run_simplified_lattice", "cell.simplified-lattice", True, None),
        (baselines, "run_explore_then_commit", "cell.etc", True, None),
    ]
    saved = []
    for owner, attr, name, record, hook in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, record, hook))

    # dense SVDs count as solver work only when a solve made them directly
    svd = np.linalg.svd
    traced_svd = tracer.wrap(svd, "completion.svd")

    @functools.wraps(svd)
    def svd_hook(*args, **kwargs):
        if tracer.innermost == "completion.solve":
            return traced_svd(*args, **kwargs)
        return svd(*args, **kwargs)

    saved.append((np.linalg, "svd", svd))
    np.linalg.svd = svd_hook

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
