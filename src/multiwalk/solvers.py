"""First-passage solvers sharing one run-record contract.

Solver kinds
------------
MW / MWR
    Multi-walk over the ruler neighborhood, without / with random restarts.
DEsF / DEsFR
    Plain rand/1 differential evolution with box confinement, extended with
    the first-passage stopping rule, without / with the same restart
    machinery as MWR.
DEoF1 .. DEoF6
    Six classic differential-evolution strategy variants with binomial
    crossover, first-passage stopping, no restarts.

All solvers move the whole population once per step, commit acceptances
synchronously at step end, accept strictly improving candidates only, and
stop the moment the quantized running best equals the quantized target.
A run that exhausts its step budget first is censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .objectives import EvalCounter, ObjectiveSpec, evaluate_batch, quantize
from .ruler import MAX_MARKS, MIN_MARKS, neighborhood_eval

__all__ = [
    "SOLVER_KINDS",
    "KIND_SETTINGS",
    "SolverConfig",
    "RunRecord",
    "WalkTrace",
    "mw_step",
    "run_solver",
    "config_lines",
    "trace_to_text",
    "parse_trace",
    "trace_wide_text",
]

# the settings each kind reads besides marks, seed and label, in `# solver`
# header order; the kinds with a radius walk the ruler, those with a plateau
# limit restart
KIND_SETTINGS = {
    "MW": ("radius", "dither"), "MWR": ("radius", "dither", "plateau_limit"),
    "DEsF": ("rde",), "DEsFR": ("rde", "plateau_limit"),
    **{f"DEoF{strategy}": ("rde", "cr") for strategy in range(1, 7)}}
SOLVER_KINDS = tuple(KIND_SETTINGS)

_DE_JITTER = 1e-4  # DEoF3's per-component scale jitter


@dataclass(frozen=True)
class SolverConfig:
    """One solver run's settings (a kind ignores those ``KIND_SETTINGS``
    does not list for it); the objective, its target and the digits it is
    quantized to come from the ``ObjectiveSpec``."""

    kind: str
    seed: int
    steps_limit: int
    marks: int = 32
    radius: Optional[int] = None          # required by the ruler kinds
    dither: float = 0.01                  # ruler neighborhood noise
    rde: float = 1.0                      # DE mutation scale
    cr: float = 0.9                       # DE strategy crossover rate
    plateau_limit: Optional[int] = None   # restart kinds; defaults to marks
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}; known: {', '.join(SOLVER_KINDS)}")
        if not MIN_MARKS <= self.marks <= MAX_MARKS:
            raise ValueError(f"marks must be in [{MIN_MARKS}, {MAX_MARKS}], got {self.marks}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.steps_limit < 1:
            raise ValueError("steps_limit must be >= 1")
        if self.uses_ruler:
            if self.radius is None:
                raise ValueError(f"{self.kind} requires a neighborhood radius")
            if not 1 <= self.radius <= self.marks - 2:
                raise ValueError(
                    f"radius must be in [1, {self.marks - 2}] for {self.marks} marks, "
                    f"got {self.radius}"
                )
        if not math.isfinite(self.rde):
            raise ValueError("rde must be finite")
        if not 0.0 <= self.dither <= 1.0:
            raise ValueError("dither must be in [0, 1]")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError("cr must be in [0, 1]")
        if self.plateau_limit is not None and self.plateau_limit < 1:
            raise ValueError("plateau_limit must be >= 1")
        # the label is written unquoted into CSV fields and `# solver` lines
        if self.label is not None and (self.label.split() != [self.label] or "," in self.label):
            raise ValueError(f"label must be non-empty, with no comma or whitespace, "
                             f"got {self.label!r}")

    @property
    def uses_ruler(self) -> bool:
        return "radius" in KIND_SETTINGS[self.kind]

    @property
    def restarts_enabled(self) -> bool:
        return "plateau_limit" in KIND_SETTINGS[self.kind]

    @property
    def effective_plateau_limit(self) -> int:
        return self.marks if self.plateau_limit is None else self.plateau_limit

    @property
    def solver_label(self) -> str:
        if self.label is not None:
            return self.label
        if self.uses_ruler:
            return f"{self.kind}{self.radius:02d}"
        if self.kind in ("DEsF", "DEsFR"):
            return f"{self.kind}1"
        return self.kind


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one solver run."""

    coord_best: tuple
    value_best: float        # quantized
    agent_id: int            # 1-based population index, argmin of final values
    steps: int               # total across restarts
    probes: int
    restarts: int
    is_censored: bool
    seed: int


@dataclass
class WalkTrace:
    """Per-step, per-agent raw values with restart boundaries.

    ``steps[k] = (step, restart_index, values_copy)``.
    ``first_passage`` is ``(step, agent_id)`` once the target is reached.
    ``header`` holds the ``#`` lines naming the objective and solver run.
    """

    header: tuple
    steps: list = field(default_factory=list)
    first_passage: Optional[tuple] = None
    epoch_seeds: list = field(default_factory=list)


def _greedy_commit(marks, values, cand_coords, cand_values, best, digits: int):
    """Synchronous step commit: each member accepts its candidate only on a
    strict improvement; the running best ``(quantized value, coord)`` tracks
    every candidate, accepted or not, comparing raw value against quantized
    best so the best value only ever decreases.  Returns the updated
    ``(marks, values, best)``."""
    best_value, best_coord = best
    # the best only decreases, so no index outside this prefilter can trigger
    for i in np.flatnonzero(cand_values < best_value):
        fi = cand_values[i]
        if fi < best_value:
            best_value = quantize(float(fi), digits)
            best_coord = cand_coords[i].copy()
    improved = cand_values < values
    return (np.where(improved[:, None], cand_coords, marks),
            np.where(improved, cand_values, values), (best_value, best_coord))


def mw_step(marks, values, cfg: SolverConfig, spec: ObjectiveSpec,
            rng: np.random.Generator, counter: EvalCounter, best):
    """One multi-walk step: evaluate the neighborhood, then commit.  Costs
    exactly ``marks * radius`` probes; returns ``(marks, values, best)``."""
    coords, cand_values = neighborhood_eval(marks, spec, cfg.radius, cfg.dither,
                                            rng, counter)
    return _greedy_commit(marks, values, coords, cand_values, best,
                          spec.digits_target)


def _distinct_triples(rng: np.random.Generator, m: int) -> np.ndarray:
    """(m, 3) donor indices, each row a uniformly random ordered distinct
    triple from [0, m); one rank block per step keeps the draw order fixed."""
    ranks = rng.uniform(size=(m, m))
    return np.argsort(ranks, axis=1)[:, :3]


def _confine(trials: np.ndarray, lower: np.ndarray, upper: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Replace every trial row not inside the box by a fresh uniform draw;
    a NaN coordinate (an overflowed donor) is not inside."""
    out = ~np.all((trials >= lower) & (trials <= upper), axis=1)
    n_out = int(np.count_nonzero(out))
    if n_out:
        p = trials.shape[1]
        trials[out] = lower + rng.uniform(size=(n_out, p)) * (upper - lower)
    return trials


def _de_trials(marks: np.ndarray, values: np.ndarray, cfg: SolverConfig,
               spec: ObjectiveSpec, rng: np.random.Generator) -> np.ndarray:
    """Donor per strategy, then (DEoF only) binomial crossover with one
    guaranteed donor component, then confinement.  DEsF/DEsFR take the
    strategy-1 rand/1 donor as the trial.  Draw order per step: per-step
    scale, donor index block, per-vector extras, crossover positions,
    crossover mask, confinement redraws."""
    m, p = marks.shape
    strategy = int(cfg.kind[-1]) if cfg.kind.startswith("DEoF") else None
    rde = cfg.rde
    step_scale = rng.uniform(0.5, 1.0) if strategy == 5 else None
    idx = _distinct_triples(rng, m)
    a, b, c = idx[:, 0], idx[:, 1], idx[:, 2]
    best = marks[int(np.argmin(values))] if strategy in (2, 3) else None

    if strategy in (None, 1):
        donors = marks[a] + rde * (marks[b] - marks[c])
    elif strategy == 2:
        donors = marks + rde * (best - marks) + rde * (marks[a] - marks[b])
    elif strategy == 3:
        scale = rde + _DE_JITTER * (rng.uniform(size=(m, p)) - 0.5)
        donors = best + scale * (marks[a] - marks[b])
    elif strategy == 4:
        scale = rng.uniform(0.5, 1.0, size=m)[:, None]
        donors = marks[a] + scale * (marks[b] - marks[c])
    elif strategy == 5:
        donors = marks[a] + step_scale * (marks[b] - marks[c])
    else:  # strategy 6
        coins = rng.uniform(size=m) < 0.5
        mutants = marks[a] + rde * (marks[b] - marks[c])
        recombined = marks + 0.5 * (rde + 1.0) * (marks[a] + marks[b] - 2.0 * marks)
        donors = np.where(coins[:, None], mutants, recombined)

    if strategy is not None:
        forced = rng.integers(0, p, size=m)
        take = rng.uniform(size=(m, p)) < cfg.cr
        take[np.arange(m), forced] = True
        donors = np.where(take, donors, marks)
    return _confine(donors, spec.lower, spec.upper, rng)


def _de_step(marks, values, cfg: SolverConfig, spec: ObjectiveSpec,
             rng: np.random.Generator, counter: EvalCounter, best):
    """One DE step: build, evaluate and commit ``marks`` trials."""
    trials = _de_trials(marks, values, cfg, spec, rng)
    return _greedy_commit(marks, values, trials, evaluate_batch(spec, trials, counter),
                          best, spec.digits_target)


def _init_population(spec: ObjectiveSpec, n_marks: int, anchored: bool,
                     rng: np.random.Generator, counter: EvalCounter,
                     initial_marks=None):
    """Uniform random marks with their raw values; ``anchored`` (the ruler
    kinds) pins rows 1 and m at the bounds.  ``initial_marks`` replaces the
    drawn marks after the draw, so the stream position does not depend on it;
    it must lie inside the bounds (so no NaN).  Costs exactly ``n_marks``
    probes."""
    u = rng.uniform(size=(n_marks, spec.dims))
    marks = spec.lower + u * (spec.upper - spec.lower)
    if anchored:
        marks[0] = spec.lower
        marks[-1] = spec.upper
    if initial_marks is not None:
        marks = np.array(initial_marks, dtype=float).reshape(n_marks, spec.dims)
        if not np.all((spec.lower <= marks) & (marks <= spec.upper)):
            raise ValueError(f"initial_marks must be finite and inside the bounds of {spec.name}")
    return marks, evaluate_batch(spec, marks, counter)


def run_solver(cfg: SolverConfig, spec: ObjectiveSpec, initial_marks=None,
               record_trace: bool = False):
    """Run any configured solver; returns a RunRecord, plus the WalkTrace
    when ``record_trace`` is set.  ``initial_marks`` replaces the first
    epoch's random population; a non-finite or out-of-box mark raises
    ValueError."""
    target = spec.value_target
    if target is None:
        raise ValueError(
            f"objective {spec.name!r} has no stored target value; "
            "compute it with the target oracle first"
        )
    counter = EvalCounter()
    trace = WalkTrace(header=(*config_lines(spec, [cfg]),
                              f"solver = {cfg.solver_label}")) if record_trace else None

    step = mw_step if cfg.uses_ruler else _de_step
    plateau_limit = cfg.effective_plateau_limit if cfg.restarts_enabled else math.inf
    total_steps = 0
    restarts = 0
    best = (math.inf, None)  # quantized value and its coordinates, over all epochs
    epoch_seed = cfg.seed

    while True:
        if trace is not None:
            trace.epoch_seeds.append(epoch_seed)
        rng = np.random.default_rng(epoch_seed)

        marks, values = _init_population(
            spec, cfg.marks, cfg.uses_ruler, rng, counter,
            initial_marks if restarts == 0 else None)

        err_prev = float(values.min()) - target  # raw seed for the plateau rule
        epoch_best = (math.inf, None)  # quantized value and its coordinates
        plateau = 0

        while (epoch_best[0] != target and plateau < plateau_limit
               and total_steps < cfg.steps_limit):
            total_steps += 1
            marks, values, epoch_best = step(marks, values, cfg, spec, rng,
                                             counter, epoch_best)
            if epoch_best[0] < best[0]:
                best = epoch_best

            if trace is not None:
                trace.steps.append((total_steps, restarts, values.copy()))

            if cfg.restarts_enabled and epoch_best[0] != target:
                error = epoch_best[0] - target
                if error >= err_prev:
                    plateau += 1
                else:
                    plateau = 0
                    err_prev = error

        # only a plateau with budget left starts a new epoch
        if plateau < plateau_limit or total_steps == cfg.steps_limit:
            break
        restarts += 1
        epoch_seed = int(rng.integers(1, 2 ** 31))  # drawn from the run's own stream

    agent_id = int(np.argmin(values)) + 1
    record = RunRecord(
        coord_best=tuple(float(x) for x in np.atleast_1d(best[1])),
        value_best=float(best[0]),
        agent_id=agent_id,
        steps=total_steps,
        probes=counter.probes,
        restarts=restarts,
        is_censored=epoch_best[0] != target,
        seed=cfg.seed,
    )
    if trace is not None and not record.is_censored:
        trace.first_passage = (total_steps, agent_id)
    return (record, trace) if record_trace else record


def config_lines(spec: ObjectiveSpec, configs) -> list:
    """The configuration a header replays: the objective with its bounds,
    its target, and one ``solver`` line per config with the settings its
    kind reads."""
    lines = [
        f"objective = {spec.name} (p = {spec.dims}, bounds = "
        f"[{', '.join(repr(float(v)) for v in spec.lower)}] .. "
        f"[{', '.join(repr(float(v)) for v in spec.upper)}])",
        f"valueTarget = {spec.value_target!r} (digitsTarget = {spec.digits_target})",
    ]
    for cfg in configs:
        parts = [f"kind={cfg.kind}", f"marks={cfg.marks}",
                 *(f"{key}={getattr(cfg, key)!r}" for key in KIND_SETTINGS[cfg.kind]
                   if key != "plateau_limit"),
                 f"stepsLimit={cfg.steps_limit}"]
        if cfg.restarts_enabled:
            parts.append(f"plateauLimit={cfg.effective_plateau_limit}")
        parts.append(f"digitsTarget={spec.digits_target}")
        lines.append(f"solver {cfg.solver_label}: " + " ".join(parts))
    return lines


def trace_to_text(trace: WalkTrace) -> str:
    """Stable delimited trace export: the header as comment lines, a column
    header, one row per (step, restart, agent, value), and a footer with the
    first passage."""
    lines = [f"# {line}" for line in trace.header]
    lines.append(f"# epoch_seeds = {','.join(str(s) for s in trace.epoch_seeds)}")
    lines.append("step,restart,agentId,value")
    for step, restart, values in trace.steps:
        for agent, value in enumerate(values, start=1):
            lines.append(f"{step},{restart},{agent},{float(value)!r}")
    if trace.first_passage is not None:
        lines.append(f"# first_passage_step={trace.first_passage[0]},"
                     f"first_passage_agentId={trace.first_passage[1]}")
    else:
        lines.append("# first_passage=none")
    return "\n".join(lines) + "\n"


def parse_trace(lines):
    """Read back a ``trace_to_text`` export: returns the ``#`` comment lines
    (configuration and first-passage footer) and the ``(step, restart,
    agent, value)`` rows, each value kept as its original string.  Raises
    ValueError naming the first malformed row: a wrong field count, a
    non-integer step, restart or agentId, a value that is not a float,
    step < 1, restart < 0, agentId outside [1, MAX_MARKS], or a repeated
    (step, restart, agentId)."""
    comments, rows = [], {}
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            comments.append(line)
        elif line and not line.startswith("step,"):
            try:
                step, restart, agent, value = line.split(",")
                row = (int(step), int(restart), int(agent), value)
                float(value)
            except ValueError:
                raise ValueError(f"line {number}: malformed trace row {line!r} "
                                 "(expected step,restart,agentId,value)") from None
            if row[0] < 1 or row[1] < 0 or not 1 <= row[2] <= MAX_MARKS:
                raise ValueError(f"line {number}: trace row {line!r} needs step >= 1, "
                                 f"restart >= 0 and agentId in [1, {MAX_MARKS}]")
            if row[:3] in rows:
                raise ValueError(f"line {number}: trace row {line!r} repeats an earlier "
                                 "(step, restart, agentId)")
            rows[row[:3]] = row
    return comments, list(rows.values())


def trace_wide_text(lines) -> str:
    """Pivot a ``trace_to_text`` export to one row per (step, restart) with
    one ``agentN`` column per agent, after the original ``#`` lines.  Raises
    ValueError on a malformed row or when there are no data rows."""
    comments, rows = parse_trace(lines)
    if not rows:
        raise ValueError("no data rows")
    n_agents = max(r[2] for r in rows)
    by_step: dict = {}
    for step, restart, agent, value in rows:
        by_step.setdefault((step, restart), {})[agent] = value
    out = list(comments)
    out.append("step,restart," + ",".join(f"agent{a}" for a in range(1, n_agents + 1)))
    for (step, restart) in sorted(by_step):
        agents = by_step[(step, restart)]
        out.append(f"{step},{restart}," + ",".join(
            agents.get(a, "") for a in range(1, n_agents + 1)))
    return "\n".join(out) + "\n"
