"""Uncensored first-passage-time experiments over many random seeds.

A plan runs each configured solver ``sample_size`` times with seeds
``base_seed + run_index``, keeps censoring bookkeeping exact, and reduces the
outcome to mean/standard-error summaries.  The headline comparison statistic
is the mean number of steps over *uncensored* runs only; the inclusive mean
(censored runs entering at the step limit) is always reported next to it.
A comparison is reliable only if at least one side has zero censored runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .objectives import ObjectiveSpec
from .solvers import RunRecord, config_lines, run_solver

__all__ = [
    "ExperimentPlan",
    "SolverSummary",
    "run_experiment",
    "summarize",
    "summarize_experiment",
    "write_runs_csv",
    "write_summary_csv",
    "write_bargraph_csv",
]


@dataclass(frozen=True)
class ExperimentPlan:
    """N-seed batch for one objective: run r of each solver uses
    ``config.seed + r``."""

    spec: ObjectiveSpec
    configs: tuple
    sample_size: int = 100

    def __post_init__(self):
        object.__setattr__(self, "configs", tuple(self.configs))
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if not self.configs:
            raise ValueError("a plan needs at least one solver config")
        limits = {cfg.steps_limit for cfg in self.configs}
        if len(limits) != 1:
            raise ValueError("all configs in a plan must share steps_limit")
        labels = [cfg.solver_label for cfg in self.configs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"solver labels in a plan must be distinct, got {', '.join(labels)}")


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list:
    """Execute the plan; returns one list of RunRecords per config, ordered
    by run index regardless of execution order.  The pool holds at most one
    process per run and per CPU; one worker runs in this process."""
    seeded = [replace(cfg, seed=cfg.seed + ri)
              for cfg in plan.configs for ri in range(plan.sample_size)]
    run = partial(run_solver, spec=plan.spec)
    workers = min(workers, len(seeded), os.cpu_count() or 1)
    if workers <= 1:
        records = list(map(run, seeded))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, seeded, chunksize=8))
    n = plan.sample_size
    return [records[i:i + n] for i in range(0, len(records), n)]


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


def _write(path, plan: ExperimentPlan, base_seed, columns: str, rows) -> None:
    """Write the plan's ``#`` header, the column line, then one line per row
    of fields; ``base_seed`` is the seed the configs were built from, when
    there is one."""
    header = [*config_lines(plan.spec, plan.configs, base_seed),
              f"sampleSize = {plan.sample_size}"]
    if base_seed is not None:
        header.append(f"baseSeed = {base_seed}")
    lines = [f"# {line}" for line in header] + [columns] + [",".join(r) for r in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_runs_csv(path, plan: ExperimentPlan, results, base_seed=None) -> None:
    _write(path, plan, base_seed,
           "objective,solver,seed,steps,probes,restarts,censored,valueBest,agentId",
           ([plan.spec.name, cfg.solver_label, str(r.seed), str(r.steps),
             str(r.probes), str(r.restarts), _fmt(r.is_censored),
             _fmt(r.value_best), str(r.agent_id)]
            for cfg, records in zip(plan.configs, results) for r in records))


def write_summary_csv(path, plan: ExperimentPlan, summaries, base_seed=None) -> None:
    _write(path, plan, base_seed,
           "objective,solver,n,censored,mean_steps_unc,stderr_steps_unc,"
           "mean_steps_incl,stderr_steps_incl,mean_probes,mean_restarts",
           ([plan.spec.name, s.label, str(s.n), str(s.censored),
             _fmt(s.mean_steps_unc), _fmt(s.stderr_steps_unc),
             _fmt(s.mean_steps_incl), _fmt(s.stderr_steps_incl),
             _fmt(s.mean_probes), _fmt(s.mean_restarts)] for s in summaries))


def write_bargraph_csv(path, plan: ExperimentPlan, summaries, base_seed=None) -> None:
    """Bargraph rows in plan order; bars use the inclusive mean so censored
    runs enter at the step limit."""
    _write(path, plan, base_seed, "solver,mean,stderr,censored",
           ([s.label, _fmt(s.mean_steps_incl), _fmt(s.stderr_steps_incl), str(s.censored)]
            for s in summaries))
