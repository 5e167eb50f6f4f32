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

One engine runs every kind: ``run_seeds`` steps the populations of many
seeds of one config in lockstep, and ``run_solver`` is its one-seed call.
A family only proposes (``mw_step``, ``_de_step``: candidates, their values
and every raw value, from one objective call for the whole stack);
``run_seeds`` commits each step with one ``_greedy_commit`` call; every
epoch, first or restarted, starts in one block, one ``_start_epochs`` call
(one objective call) for all the seeds starting one.  Each seed keeps its
own random stream and draw order, so its record does not depend on the
seeds it runs with.  Only the random draws and record assembly loop over seeds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objectives import ObjectiveSpec, evaluate_batch, quantize
from .ruler import MAX_MARKS, MIN_MARKS, neighborhood_eval

__all__ = [
    "SOLVER_KINDS",
    "KIND_SETTINGS",
    "SolverConfig",
    "RunRecord",
    "WalkTrace",
    "run_solver",
    "run_seeds",
    "config_lines",
    "trace_to_text",
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
        # a fractional or non-finite steps_limit would pass the range checks
        # and never be met, so the run would never end; a bool is not a count
        for name in ("seed", "steps_limit", "marks", "radius", "plateau_limit"):
            value = getattr(self, name)
            unset = value is None and name in ("radius", "plateau_limit")
            if not (unset or (isinstance(value, numbers.Integral) and not isinstance(value, bool))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    """The one outcome of one solver run: whether it passed
    (``is_censored``), at which step (``steps``) and through which agent
    (``agent_id``); the trace footer and every printout read it here."""

    coord_best: tuple
    value_best: float        # quantized
    agent_id: int            # 1-based population index, argmin of final values
    steps: int               # total across restarts
    probes: int
    restarts: int
    is_censored: bool
    seed: int


class WalkTrace:
    """Run observer (``run_solver(cfg, spec, observe=WalkTrace(cfg, spec))``)
    recording per-step, per-agent raw values with restart boundaries.

    ``header`` holds the ``#`` lines naming the objective and solver run,
    ``epoch_seeds`` each epoch's seed and ``steps[k] = (step, restart_index,
    values)``.  The run's outcome is its RunRecord's, which
    ``trace_to_text`` writes as the footer.
    """

    def __init__(self, cfg: SolverConfig, spec: ObjectiveSpec):
        self.header = (*config_lines(spec, [cfg]), f"solver = {cfg.solver_label}")
        self.steps: list = []
        self.epoch_seeds: list = []

    def epoch(self, seed, marks, values):
        self.epoch_seeds.append(seed)

    def step(self, step, restart, raw, marks, values, best):
        self.steps.append((step, restart, values))


def _greedy_commit(marks, values, cand_coords, cand_values, epoch_best, best, digits: int):
    """Synchronous step commit of N stacked populations: each member accepts
    its candidate only on a strict improvement.  Each population's epoch
    best, an (N,) quantized value, tracks every candidate in order, accepted
    or not, comparing raw value against quantized best so it only ever
    decreases.  As ``quantize`` is monotone and idempotent, that walk has a
    closed form: with ``Q`` the least quantized hit (candidate below the
    epoch best), it ends on the last candidate below ``Q``, or else on the
    first hit quantizing to ``Q``, and takes that candidate's quantized
    value; one ``quantize`` call serves every hit.  The run's best ``((N,)
    values, (N, p) coords)``, never above the epoch best, takes that value
    and candidate only where the value is strictly lower, so it keeps the
    coord that first reached its value.  Updates ``marks``, ``values``,
    ``epoch_best`` and ``best`` in place; the candidates are only read."""
    hit = cand_values < epoch_best[:, None]
    rows = np.flatnonzero(hit.any(axis=1))
    if rows.size:
        hit, v = hit[rows], cand_values[rows]
        q = np.full(v.shape, math.inf)
        q[hit] = quantize(v[hit], digits)
        low = q.min(axis=1, keepdims=True)
        below = v < low
        k = np.where(below.any(axis=1), v.shape[1] - 1 - np.argmax(below[:, ::-1], axis=1),
                     np.argmax(hit & (q == low), axis=1))
        picked = q[np.arange(rows.size), k]
        epoch_best[rows] = picked
        new = picked < best[0][rows]
        rows, k = rows[new], k[new]
        best[0][rows], best[1][rows] = picked[new], cand_coords[rows, k]
    improved = cand_values < values
    np.copyto(marks, cand_coords, where=improved[..., None])
    np.copyto(values, cand_values, where=improved)


def mw_step(marks, values, cfg: SolverConfig, spec: ObjectiveSpec, rngs):
    """Propose one multi-walk step of N stacked populations, (N, m, p) marks
    and (N, m) values, population ``n`` drawing from ``rngs[n]``: every
    neighborhood evaluated in one objective call.  Returns ``(coords,
    values, raw)``: each mark's best candidate with its value, and ``raw``
    the (N, marks * radius) values evaluated."""
    return neighborhood_eval(marks, spec, cfg.radius, cfg.dither, rngs)


def _de_step(marks, values, cfg: SolverConfig, spec: ObjectiveSpec, rngs):
    """Propose one DE step of N stacked populations, (N, m, p) marks and
    (N, m) values, population ``n`` drawing from ``rngs[n]``: a trial per
    member, all evaluated in one objective call.  Returns ``(trials, raw,
    raw)``, ``raw`` the (N, marks) trial values.

    A trial is a donor per strategy from a random ordered distinct triple of
    rows, then (DEoF only) binomial crossover with one guaranteed donor
    component, then confinement: a row not inside the box (a NaN from an
    overflowed donor is not) is redrawn.  DEsF/DEsFR take the strategy-1
    rand/1 donor as the trial.

    Only the draws run per seed, in a lone run's order: one ``random`` block
    of the strategy-5 scale, the (m, m) rank block and the per-vector
    extras; for DEoF the crossover positions, then the crossover block;
    last, confinement redraws for the seeds with an out-of-box row.  Each
    rank block is sorted into donor indices as it is drawn, never stacked;
    the gathers, donor formulas, crossover and box test run once over the
    stack."""
    n, m, p = marks.shape
    strategy = int(cfg.kind[-1]) if cfg.kind.startswith("DEoF") else None
    head = 1 if strategy == 5 else 0  # the step scale comes before the ranks
    row = np.empty(head + m * m + {3: m * p, 4: m, 6: m}.get(strategy, 0))
    ranks = row[head:head + m * m].reshape(m, m)
    drawn = row[:head] if head else row[m * m:]
    extras, idx = np.empty((n, drawn.size)), np.empty((n, m, 3), dtype=np.intp)
    forced, cross = np.empty((n, m), dtype=np.int64), np.empty((n, m, p))
    for k, rng in enumerate(rngs):
        rng.random(out=row)
        idx[k], extras[k] = np.argsort(ranks, axis=1)[:, :3], drawn
        if strategy is not None:
            forced[k] = rng.integers(0, p, size=m)
            rng.random(out=cross[k])
    xa, xb, xc = np.moveaxis(marks[np.arange(n)[:, None, None], idx], 2, 0)
    best = marks[np.arange(n), np.argmin(values, axis=1)][:, None] if strategy in (2, 3) else None
    if strategy in (None, 1, 6):
        donors = xa + cfg.rde * (xb - xc)
    elif strategy == 2:
        donors = marks + cfg.rde * (best - marks) + cfg.rde * (xa - xb)
    elif strategy == 3:
        scale = cfg.rde + _DE_JITTER * (extras.reshape(n, m, p) - 0.5)
        donors = best + scale * (xa - xb)
    else:  # strategies 4 and 5: a per-vector or per-step scale in [0.5, 1)
        donors = xa + (0.5 + 0.5 * extras)[..., None] * (xb - xc)
    if strategy == 6:
        recombined = marks + 0.5 * (cfg.rde + 1.0) * (xa + xb - 2.0 * marks)
        donors = np.where((extras < 0.5)[..., None], donors, recombined)
    if strategy is not None:
        take = cross < cfg.cr
        take[np.arange(n)[:, None], np.arange(m), forced] = True
        donors = np.where(take, donors, marks)
    out = ~np.all((donors >= spec.lower) & (donors <= spec.upper), axis=2)
    for k in np.flatnonzero(out.any(axis=1)):
        redraws = rngs[k].random((int(np.count_nonzero(out[k])), p))
        donors[k, out[k]] = spec.lower + redraws * (spec.upper - spec.lower)
    raw = evaluate_batch(spec, donors.reshape(-1, p)).reshape(n, m)
    return donors, raw, raw


def _start_epochs(spec: ObjectiveSpec, n_marks: int, anchored: bool, rngs, initial_marks=None):
    """K fresh epochs: (K, m, p) uniform random marks, population ``k``
    drawing its (m, p) block from ``rngs[k]``, and their (K, m) raw values
    from one objective call; ``anchored`` (the ruler kinds) pins rows 1 and m
    at the bounds.  ``initial_marks`` replaces every population after the
    draw, so no stream position depends on it; it must be finite and in the bounds."""
    u = np.reshape([rng.random((n_marks, spec.dims)) for rng in rngs], (-1, n_marks, spec.dims))
    marks = spec.lower + u * (spec.upper - spec.lower)
    if anchored:
        marks[:, 0], marks[:, -1] = spec.lower, spec.upper
    if initial_marks is not None:
        marks[:] = np.array(initial_marks, dtype=float).reshape(n_marks, spec.dims)
        if not np.all((spec.lower <= marks) & (marks <= spec.upper)):
            raise ValueError(f"initial_marks must be finite and inside the bounds of {spec.name}")
    return marks, evaluate_batch(spec, marks.reshape(-1, spec.dims)).reshape(marks.shape[:2])


def run_solver(cfg: SolverConfig, spec: ObjectiveSpec, initial_marks=None,
               observe=None) -> RunRecord:
    """Run any configured solver and return its RunRecord.

    ``initial_marks`` replaces the first epoch's random population; a
    non-finite or out-of-box mark raises ValueError.  ``observe`` (such as a
    WalkTrace) watches the run without changing it: ``observe.epoch(seed,
    marks, values)`` follows each epoch's initial evaluation, and
    ``observe.step(step, restart, raw, marks, values, best)`` each commit,
    with ``raw`` every value the step evaluated, flat in evaluation order,
    and ``best`` the epoch's running best quantized value.  Every array it
    is handed is its own (``marks`` and ``values`` are copies), so it may
    keep or modify them.  The probe count is the initial values plus each
    step's ``raw``."""
    return run_seeds(cfg, spec, [cfg.seed], initial_marks, observe)[0]


def run_seeds(cfg: SolverConfig, spec: ObjectiveSpec, seeds, initial_marks=None,
              observe=None) -> list:
    """Run ``cfg`` once per seed of ``seeds`` in lockstep, returning the
    RunRecords in seed order; ``run_solver`` is the one-seed call.

    The seeds' populations are stacked, (N, m, p), and take every step
    together: one proposal (``mw_step`` or ``_de_step``, one objective call)
    and one ``_greedy_commit`` for all of them.  Every epoch, first or
    restarted, starts at the head of a step, in one ``_start_epochs`` call
    for the seeds whose plateau counter is full; every counter starts full,
    and a restart is counted there.  Each seed keeps its own generator,
    epochs, plateau counter and two bests (the epoch's value and the run's,
    both kept by ``_greedy_commit``), and draws in the order a run alone
    would, so its record does not depend on the seeds it runs with.  The
    stacked state is the engine's own: the epoch starts, the commit and the
    plateau rule update it in place, and only copies leave it.  A seed
    leaves the stack when it passes or runs out of budget.
    ``initial_marks`` and ``observe`` are as for ``run_solver``; ``observe``
    watches one-seed calls only."""
    target = spec.value_target
    if target is None:
        raise ValueError(f"objective {spec.name!r} has no stored target value; "
                         "compute it with the target oracle first")
    if observe is not None and len(seeds) != 1:
        raise ValueError("observe watches a one-seed run")
    propose = mw_step if cfg.uses_ruler else _de_step
    m, n, limit = cfg.marks, len(seeds), cfg.effective_plateau_limit
    rngs = [None] * n  # each row's generator, replaced at every epoch start
    marks, values = np.empty((n, m, spec.dims)), np.empty((n, m))
    # per seed: the epoch's running best, quantized, and the plateau rule: a
    # step is flat unless its epoch error drops below ``err_prev``; ``plateau``
    # counts flat steps since the last drop, and a full counter starts an epoch
    epoch_best, err_prev, plateau = np.empty(n), np.empty(n), np.full(n, limit, dtype=np.int64)
    best = (np.full(n, math.inf), np.full((n, spec.dims), math.nan))  # over all epochs
    restarts = np.zeros(n, dtype=np.int64)
    index = np.arange(n)  # each stacked row's position in ``seeds``
    records = [None] * n
    total_steps = 0

    while index.size:
        rows = np.flatnonzero(plateau >= limit)
        if rows.size:  # every epoch, first or restarted, starts here
            # a first epoch runs on its seed, a restart on one drawn from its row's stream
            epoch_seeds = [int(rngs[i].integers(1, 2 ** 31)) if total_steps else seeds[i]
                           for i in rows]
            for i, epoch_seed in zip(rows, epoch_seeds):
                rngs[i] = np.random.default_rng(epoch_seed)
            marks[rows], values[rows] = _start_epochs(spec, m, cfg.uses_ruler,
                                                      [rngs[i] for i in rows],
                                                      None if total_steps else initial_marks)
            err_prev[rows], plateau[rows] = values[rows].min(axis=1) - target, 0
            epoch_best[rows] = math.inf
            restarts[rows] += total_steps > 0
            if observe is not None:
                observe.epoch(epoch_seeds[0], marks[0].copy(), values[0].copy())

        total_steps += 1
        coords, cand_values, raw = propose(marks, values, cfg, spec, rngs)
        _greedy_commit(marks, values, coords, cand_values, epoch_best, best, spec.digits_target)
        if observe is not None:  # raw is this step's own array, read no further
            observe.step(total_steps, int(restarts[0]), raw[0], marks[0].copy(),
                         values[0].copy(), epoch_best[0])
        done = (epoch_best == target) | (total_steps == cfg.steps_limit)

        if cfg.restarts_enabled:  # a done row leaves before the next head: no restart
            error = epoch_best - target
            flat = error >= err_prev
            plateau = (plateau + 1) * flat
            np.fmin(err_prev, error, out=err_prev)  # the target is finite: no NaN error

        if done.any():
            for i in np.flatnonzero(done):
                records[index[i]] = RunRecord(
                    coord_best=tuple(float(x) for x in best[1][i]),
                    value_best=float(best[0][i]),
                    agent_id=int(np.argmin(values[i])) + 1,
                    steps=total_steps,
                    # each epoch's initial values, then every step's candidates
                    probes=m * (1 + int(restarts[i])) + total_steps * raw.shape[1],
                    restarts=int(restarts[i]),
                    is_censored=bool(epoch_best[i] != target),
                    seed=seeds[index[i]],
                )
            # compact only when a seed leaves, so a step never gathers the stack
            keep = ~done
            marks, values = marks[keep], values[keep]
            epoch_best, best = epoch_best[keep], (best[0][keep], best[1][keep])
            err_prev, plateau, restarts = err_prev[keep], plateau[keep], restarts[keep]
            index = index[keep]
            rngs = [rng for rng, k in zip(rngs, keep) if k]
    return records


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


def trace_to_text(trace: WalkTrace, record: RunRecord) -> str:
    """Stable delimited trace export: the header as comment lines, a column
    header, one row per (step, restart, agent, value), and a footer with the
    first passage of ``record``, the run the trace watched."""
    lines = [f"# {line}" for line in trace.header]
    lines.append(f"# epoch_seeds = {','.join(str(s) for s in trace.epoch_seeds)}")
    lines.append("step,restart,agentId,value")
    for step, restart, values in trace.steps:
        for agent, value in enumerate(values, start=1):
            lines.append(f"{step},{restart},{agent},{float(value)!r}")
    lines.append("# first_passage=none" if record.is_censored else
                 f"# first_passage_step={record.steps},first_passage_agentId={record.agent_id}")
    return "\n".join(lines) + "\n"


def trace_wide_text(lines) -> str:
    """Read a ``trace_to_text`` export and pivot it to one row per (step,
    restart) with one ``agentN`` column per agent, each value kept as its
    original string, after the original ``#`` lines (configuration and
    first-passage footer).  Raises ValueError when there are no data rows, or
    naming the first malformed row: a wrong field count, a non-integer step,
    restart or agentId, a value that is not a float, is NaN or is not
    written as ``repr(float(value))`` (as ``trace_to_text`` writes it),
    step < 1, restart < 0, agentId outside [1, MAX_MARKS], or a repeated
    (step, restart, agentId)."""
    out, by_step, n_agents = [], {}, 0  # out starts with the # lines
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            out.append(line)
        elif line and not line.startswith("step,"):
            try:
                step, restart, agent, value = line.split(",")
                step, restart, agent = int(step), int(restart), int(agent)
                x = float(value)
            except ValueError:
                raise ValueError(f"line {number}: malformed trace row {line!r} "
                                 "(expected step,restart,agentId,value)") from None
            if (step < 1 or restart < 0 or not 1 <= agent <= MAX_MARKS or math.isnan(x)
                    or repr(x) != value):
                raise ValueError(f"line {number}: trace row {line!r} needs step >= 1, "
                                 f"restart >= 0, agentId in [1, {MAX_MARKS}] and a "
                                 "value that is not NaN, written as its float's repr")
            agents = by_step.setdefault((step, restart), {})
            if agent in agents:
                raise ValueError(f"line {number}: trace row {line!r} repeats an earlier "
                                 "(step, restart, agentId)")
            agents[agent] = value
            n_agents = max(n_agents, agent)
    if not by_step:
        raise ValueError("no data rows")
    out.append("step,restart," + ",".join(f"agent{a}" for a in range(1, n_agents + 1)))
    for (step, restart), agents in sorted(by_step.items()):
        out.append(f"{step},{restart}," + ",".join(
            agents.get(a, "") for a in range(1, n_agents + 1)))
    return "\n".join(out) + "\n"
