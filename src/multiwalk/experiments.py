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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .objectives import ObjectiveSpec
from .solvers import RunRecord, run_solver

__all__ = [
    "ExperimentPlan",
    "SolverSummary",
    "ComparisonReport",
    "run_experiment",
    "summarize",
    "summarize_experiment",
    "compare_solvers",
    "write_runs_csv",
    "write_summary_csv",
    "write_bargraph_csv",
]


@dataclass(frozen=True)
class ExperimentPlan:
    """N-seed batch for one objective: run r of each solver uses
    ``config.seed + r``."""

    objective: str
    configs: tuple
    sample_size: int = 100

    def __post_init__(self):
        object.__setattr__(self, "configs", tuple(self.configs))
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if not self.configs:
            raise ValueError("a plan needs at least one solver config")
        for cfg in self.configs:
            if cfg.objective != self.objective:
                raise ValueError(
                    f"config {cfg.solver_label} targets {cfg.objective!r}, "
                    f"plan targets {self.objective!r}"
                )
        digits = {cfg.digits_target for cfg in self.configs}
        if len(digits) != 1:
            raise ValueError("all configs in a plan must share digits_target")
        limits = {cfg.steps_limit for cfg in self.configs}
        if len(limits) != 1:
            raise ValueError("all configs in a plan must share steps_limit")


def _run_task(task):
    ci, ri, cfg, spec = task
    return ci, ri, run_solver(cfg, spec)


def run_experiment(plan: ExperimentPlan, spec: ObjectiveSpec,
                   workers: int = 1) -> list:
    """Execute the plan; returns one list of RunRecords per config, ordered
    by run index regardless of execution order."""
    if spec.name != plan.objective:
        raise ValueError(f"plan targets {plan.objective!r} but got spec for {spec.name!r}")
    if spec.value_target is None:
        raise ValueError(
            f"objective {spec.name!r} has no target value; first-passage "
            "times are undefined without one"
        )
    tasks = [
        (ci, ri, replace(cfg, seed=cfg.seed + ri), spec)
        for ci, cfg in enumerate(plan.configs)
        for ri in range(plan.sample_size)
    ]
    results: list = [[None] * plan.sample_size for _ in plan.configs]
    if workers <= 1:
        for task in tasks:
            ci, ri, record = _run_task(task)
            results[ci][ri] = record
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for ci, ri, record in pool.map(_run_task, tasks, chunksize=8):
                results[ci][ri] = record
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


@dataclass(frozen=True)
class ComparisonReport:
    """Speedup of solver B over solver A in uncensored mean steps."""

    label_a: str
    label_b: str
    steps_ratio: Optional[float]
    probes_ratio: Optional[float]
    reliable: bool            # at least one side has zero censored runs
    bound: Optional[str]      # "lower"/"upper" when a fully censored side
                              # contributes its inclusive mean
    note: str = ""


def compare_solvers(summary_a: SolverSummary, summary_b: SolverSummary) -> ComparisonReport:
    """Ratio of uncensored mean steps, A over B, with the reliability rule.

    A side with every run censored contributes its inclusive mean instead,
    and the ratio is flagged as a bound (lower bound when A is the censored
    side).  With no uncensored runs on either side there is no ratio.
    """
    reliable = summary_a.censored == 0 or summary_b.censored == 0
    a_unc, b_unc = summary_a.mean_steps_unc, summary_b.mean_steps_unc
    if a_unc is None and b_unc is None:
        return ComparisonReport(summary_a.label, summary_b.label, None, None,
                                reliable=False, bound=None,
                                note="no uncensored runs on either side")
    bound = None
    a_mean, b_mean = a_unc, b_unc
    if a_unc is None:
        a_mean, bound = summary_a.mean_steps_incl, "lower"
    if b_unc is None:
        b_mean, bound = summary_b.mean_steps_incl, "upper"
    note = "" if reliable else "unreliable: both sides censored"
    return ComparisonReport(
        label_a=summary_a.label,
        label_b=summary_b.label,
        steps_ratio=float(a_mean) / float(b_mean),
        probes_ratio=summary_a.mean_probes / summary_b.mean_probes,
        reliable=reliable,
        bound=bound,
        note=note,
    )


# ---------------------------------------------------------------------------
# stable delimited exports
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_runs_csv(path, plan: ExperimentPlan, results, config_lines=()) -> None:
    lines = [f"# {line}" for line in config_lines]
    lines.append("objective,solver,seed,steps,probes,restarts,censored,valueBest,agentId")
    for cfg, records in zip(plan.configs, results):
        for r in records:
            lines.append(",".join([
                plan.objective, cfg.solver_label, str(r.seed), str(r.steps),
                str(r.probes), str(r.restarts), _fmt(r.is_censored),
                _fmt(r.value_best), str(r.agent_id),
            ]))
    _write(path, lines)


def write_summary_csv(path, plan: ExperimentPlan, summaries, config_lines=()) -> None:
    lines = [f"# {line}" for line in config_lines]
    lines.append("objective,solver,n,censored,mean_steps_unc,stderr_steps_unc,"
                 "mean_steps_incl,stderr_steps_incl,mean_probes,mean_restarts")
    for s in summaries:
        lines.append(",".join([
            plan.objective, s.label, str(s.n), str(s.censored),
            _fmt(s.mean_steps_unc), _fmt(s.stderr_steps_unc),
            _fmt(s.mean_steps_incl), _fmt(s.stderr_steps_incl),
            _fmt(s.mean_probes), _fmt(s.mean_restarts),
        ]))
    _write(path, lines)


def write_bargraph_csv(path, summaries, config_lines=()) -> None:
    """Bargraph rows in plan order; bars use the inclusive mean so censored
    runs enter at the step limit."""
    lines = [f"# {line}" for line in config_lines]
    lines.append("solver,mean,stderr,censored")
    for s in summaries:
        lines.append(",".join([
            s.label, _fmt(s.mean_steps_incl), _fmt(s.stderr_steps_incl), str(s.censored),
        ]))
    _write(path, lines)
