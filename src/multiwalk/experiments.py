"""Uncensored first-passage-time experiments over many random seeds.

A plan runs each configured solver ``sample_size`` times with seeds
``seed + run_index`` from the one seed its configs share, keeps censoring
bookkeeping exact, and reduces the outcome to mean/standard-error summaries.
Each config's seeds run in lockstep chunks (``solvers.run_seeds``), one pool
task per (config, seed chunk); a seed's record depends neither on its chunk
nor on the worker count.
The headline comparison statistic is the mean number of steps over
*uncensored* runs only; the inclusive mean (censored runs entering at the
step limit) is always reported next to it.
A comparison is reliable only if at least one side has zero censored runs.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .objectives import BATCH_POINTS, ObjectiveSpec, evaluate_batch
from .solvers import RunRecord, config_lines, run_seeds

__all__ = [
    "RUN_COLUMNS",
    "ExperimentPlan",
    "run_experiment",
    "run_fields",
    "summarize_experiment",
    "write_runs_csv",
    "write_summary_csv",
    "write_bargraph_csv",
]


@dataclass(frozen=True)
class ExperimentPlan:
    """N-seed batch for one objective: the configs share one seed and one
    step budget, and run r of each solver uses ``seed + r``."""

    spec: ObjectiveSpec
    configs: tuple
    sample_size: int = 100

    def __post_init__(self):
        object.__setattr__(self, "configs", tuple(self.configs))
        n = self.sample_size  # a bool is not a count
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"sample_size must be an integer >= 1, got {n!r}")
        if not self.configs:
            raise ValueError("a plan needs at least one solver config")
        if len({(cfg.steps_limit, cfg.seed) for cfg in self.configs}) != 1:
            raise ValueError("all configs in a plan must share steps_limit and seed")
        labels = [cfg.solver_label for cfg in self.configs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"solver labels in a plan must be distinct, got {', '.join(labels)}")


def _step_points(cfg) -> int:
    """Kernel points one lockstep step evaluates per seed: ``marks * radius``
    ruler candidates or ``marks`` DE trials.  Both families turn each seed's
    rank block into indices as it is drawn, so no step stacks one."""
    return cfg.marks * cfg.radius if cfg.uses_ruler else cfg.marks


def _seed_chunks(plan: ExperimentPlan):
    """(config index, seeds) tasks: each config's seeds in contiguous chunks
    of near-equal size, none of which stacks more than ``BATCH_POINTS``
    kernel points into one step (a seed larger than that runs alone)."""
    n = plan.sample_size
    for k, cfg in enumerate(plan.configs):
        n_chunks = -(-n // max(1, BATCH_POINTS // _step_points(cfg)))
        seeds = [cfg.seed + ri for ri in range(n)]
        for c in range(n_chunks):
            yield k, seeds[c * n // n_chunks:(c + 1) * n // n_chunks]


def _run_chunk(plan: ExperimentPlan, task) -> list:
    k, seeds = task
    return run_seeds(plan.configs[k], plan.spec, seeds)


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list:
    """Execute the plan; returns one list of RunRecords per config, ordered
    by run index.  The pool maps over (config, seed chunk) tasks and holds
    at most one process per task and per CPU; one worker runs in this
    process."""
    tasks = list(_seed_chunks(plan))
    run = partial(_run_chunk, plan)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        chunks = list(map(run, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor
        # one probe builds lazy kernel state (a staircase table) once; per worker it costs RSS
        evaluate_batch(plan.spec, plan.spec.lower[None])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, tasks))
    results = [[] for _ in plan.configs]
    for (k, _seeds), records in zip(tasks, chunks):
        results[k] += records
    return results


@dataclass(frozen=True)
class SolverSummary:
    """Per-solver first-passage statistics over one experiment."""

    label: str
    n: int
    censored: int
    mean_steps_unc: Optional[float]
    stderr_steps_unc: Optional[float]
    mean_steps_incl: float
    stderr_steps_incl: Optional[float]
    mean_probes: float
    mean_restarts: float


def _mean_stderr(values: Sequence[float]):
    if not values:
        return None, None
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, None
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def summarize(records: Sequence[RunRecord], label: str) -> SolverSummary:
    """Reduce one solver's records to counts, means and standard errors.

    Censored runs enter the inclusive mean at their step limit and are
    excluded from the uncensored mean; a standard error is reported only
    when at least two values contribute.
    """
    if not records:
        raise ValueError("cannot summarize an empty record list")
    unc = [r.steps for r in records if not r.is_censored]
    incl = [r.steps for r in records]
    mean_unc, se_unc = _mean_stderr(unc)
    mean_incl, se_incl = _mean_stderr(incl)
    return SolverSummary(
        label=label,
        n=len(records),
        censored=sum(1 for r in records if r.is_censored),
        mean_steps_unc=mean_unc,
        stderr_steps_unc=se_unc,
        mean_steps_incl=mean_incl,
        stderr_steps_incl=se_incl,
        mean_probes=float(np.mean([r.probes for r in records])),
        mean_restarts=float(np.mean([r.restarts for r in records])),
    )


def summarize_experiment(plan: ExperimentPlan, results: Sequence[Sequence[RunRecord]]) -> list:
    return [summarize(records, cfg.solver_label)
            for cfg, records in zip(plan.configs, results)]


# ---------------------------------------------------------------------------
# stable delimited exports
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(float(x))


def _write(path, plan: ExperimentPlan, columns: str, rows) -> None:
    """Write the plan's ``#`` header, the column line, then one line per row
    of fields."""
    header = [*config_lines(plan.spec, plan.configs),
              f"sampleSize = {plan.sample_size}", f"baseSeed = {plan.configs[0].seed}"]
    lines = [f"# {line}" for line in header] + [columns] + [",".join(r) for r in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


RUN_COLUMNS = "objective,solver,seed,steps,probes,restarts,censored,valueBest,agentId"


def run_fields(spec: ObjectiveSpec, cfg, record: RunRecord) -> list:
    """One run's ``RUN_COLUMNS`` fields, formatted as the runs CSV writes
    them and ``solve`` prints them."""
    return [spec.name, cfg.solver_label, str(record.seed), str(record.steps),
            str(record.probes), str(record.restarts), _fmt(record.is_censored),
            _fmt(record.value_best), str(record.agent_id)]


def write_runs_csv(path, plan: ExperimentPlan, results) -> None:
    _write(path, plan, RUN_COLUMNS,
           (run_fields(plan.spec, cfg, r)
            for cfg, records in zip(plan.configs, results) for r in records))


def write_summary_csv(path, plan: ExperimentPlan, summaries) -> None:
    _write(path, plan,
           "objective,solver,n,censored,mean_steps_unc,stderr_steps_unc,"
           "mean_steps_incl,stderr_steps_incl,mean_probes,mean_restarts",
           ([plan.spec.name, s.label, str(s.n), str(s.censored),
             _fmt(s.mean_steps_unc), _fmt(s.stderr_steps_unc),
             _fmt(s.mean_steps_incl), _fmt(s.stderr_steps_incl),
             _fmt(s.mean_probes), _fmt(s.mean_restarts)] for s in summaries))


def write_bargraph_csv(path, plan: ExperimentPlan, summaries) -> None:
    """Bargraph rows in plan order; bars use the inclusive mean so censored
    runs enter at the step limit."""
    _write(path, plan, "solver,mean,stderr,censored",
           ([s.label, _fmt(s.mean_steps_incl), _fmt(s.stderr_steps_incl), str(s.censored)]
            for s in summaries))
