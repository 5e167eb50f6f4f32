import math
import os
from dataclasses import replace

import pytest

from multiwalk import experiments
from multiwalk.experiments import (ExperimentPlan, run_experiment, summarize,
                                   summarize_experiment, write_bargraph_csv,
                                   write_runs_csv, write_summary_csv)
from multiwalk.objectives import get_objective
from multiwalk.solvers import RunRecord, SolverConfig


def _mwr(seed=1, steps_limit=200, **kw):
    base = dict(kind="MWR", seed=seed,
                steps_limit=steps_limit, marks=6, radius=4, dither=0.01)
    base.update(kw)
    return SolverConfig(**base)


def _record(steps, censored=False, probes=100, restarts=0, seed=1):
    return RunRecord(coord_best=(9.0,), value_best=-9.55728084, agent_id=1,
                     steps=steps, probes=probes, restarts=restarts,
                     is_censored=censored, seed=seed)


# ---------------------------------------------------------------------------
# plan validation / execution
# ---------------------------------------------------------------------------

def test_plan_validation():
    spec = get_objective("ehrenfest4")
    with pytest.raises(ValueError):
        ExperimentPlan(spec=spec, configs=[], sample_size=3)
    with pytest.raises(ValueError):
        ExperimentPlan(spec=spec, configs=[_mwr()], sample_size=0)
    with pytest.raises(ValueError):
        ExperimentPlan(spec=spec, configs=[_mwr(), _mwr(steps_limit=99)],
                       sample_size=3)
    with pytest.raises(ValueError, match="seed"):
        ExperimentPlan(spec=spec, configs=[_mwr(), _mwr(seed=50, label="MWR04b")],
                       sample_size=3)
    with pytest.raises(ValueError, match="distinct"):
        ExperimentPlan(spec=spec, configs=[_mwr(), _mwr(dither=0.5)], sample_size=3)
    with pytest.raises(ValueError, match="distinct"):
        ExperimentPlan(spec=spec, configs=[_mwr(label="x"), _mwr(radius=2, label="x")],
                       sample_size=3)
    ExperimentPlan(spec=spec, configs=[_mwr(), _mwr(dither=0.5, label="MWR04b")],
                   sample_size=3)


def test_experiment_requires_target():
    # run_solver refuses a spec without a stored target
    plan = ExperimentPlan(spec=get_objective("ehrenfest4"), configs=[_mwr()],
                          sample_size=2)
    with pytest.raises(ValueError):
        run_experiment(plan)


def test_forced_censoring_all_runs(ehrenfest15_spec):
    cfg = SolverConfig(kind="MWR", seed=1, steps_limit=1,
                       marks=6, radius=4, dither=0.01)
    plan = ExperimentPlan(spec=ehrenfest15_spec, configs=[cfg], sample_size=3)
    (records,) = run_experiment(plan)
    assert len(records) == 3
    assert all(r.is_censored for r in records)
    assert [r.seed for r in records] == [1, 2, 3]


def test_identical_configs_identical_records(ehrenfest4_spec):
    plan = ExperimentPlan(spec=ehrenfest4_spec, configs=[_mwr(), _mwr(label="MWR04b")],
                          sample_size=4)
    res_a, res_b = run_experiment(plan)
    assert res_a == res_b


def test_worker_counts_agree(ehrenfest4_spec):
    plan = ExperimentPlan(spec=ehrenfest4_spec, configs=[_mwr()], sample_size=4)
    serial = run_experiment(plan, workers=1)
    parallel = run_experiment(plan, workers=2)
    assert serial == parallel


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records the requested pool size
    and runs every task in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("cpus, sample_size, expected", [
    (4, 6, 4),      # capped by the CPU count
    (4, 3, 3),      # capped by the task count
    (None, 6, 1),   # unknown CPU count: serial, no pool
])
def test_pool_size_is_capped(ehrenfest4_spec, monkeypatch, cpus, sample_size, expected):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    plan = ExperimentPlan(spec=ehrenfest4_spec, configs=[_mwr()], sample_size=sample_size)
    pooled = run_experiment(plan, workers=1000)
    assert _InProcessPool.sizes == ([] if expected == 1 else [expected])
    assert pooled == run_experiment(plan, workers=1)


def test_censoring_consistency(ehrenfest4_spec):
    plan = ExperimentPlan(spec=ehrenfest4_spec, configs=[_mwr(steps_limit=5)],
                          sample_size=6)
    (records,) = run_experiment(plan)
    for r in records:
        if r.steps == 5 and r.value_best != ehrenfest4_spec.value_target:
            assert r.is_censored
        if r.is_censored:
            assert r.steps == 5


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_summary_arithmetic():
    s = summarize([_record(59), _record(61), _record(63)], "X")
    assert s.mean_steps_unc == 61.0
    assert s.stderr_steps_unc == pytest.approx(2.0 / math.sqrt(3.0))
    assert s.censored == 0
    assert s.mean_steps_incl == 61.0


def test_summary_with_censored_run():
    s = summarize([_record(10), _record(10), _record(200, censored=True)], "X")
    assert s.censored == 1
    assert s.mean_steps_unc == 10.0
    assert s.mean_steps_incl == pytest.approx(220.0 / 3.0)


def test_summary_all_censored():
    s = summarize([_record(200, censored=True)] * 3, "X")
    assert s.mean_steps_unc is None
    assert s.stderr_steps_unc is None
    assert s.mean_steps_incl == 200.0


def test_summary_single_run():
    s = summarize([_record(42, probes=1234, restarts=2)], "X")
    assert s.n == 1
    assert s.mean_steps_unc == 42.0
    assert s.stderr_steps_unc is None
    assert s.mean_probes == 1234.0
    assert s.mean_restarts == 2.0


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], "X")


# ---------------------------------------------------------------------------
# delimited exports
# ---------------------------------------------------------------------------

def test_csv_exports(tmp_path, ehrenfest4_spec):
    plan = ExperimentPlan(spec=ehrenfest4_spec, configs=[_mwr(), _mwr(radius=2)],
                          sample_size=3)
    results = run_experiment(plan)
    summaries = summarize_experiment(plan, results)

    runs = tmp_path / "x_runs.csv"
    summary = tmp_path / "x_summary.csv"
    bars = tmp_path / "x_bars.csv"
    write_runs_csv(runs, plan, results)
    write_summary_csv(summary, plan, summaries)
    write_bargraph_csv(bars, plan, summaries)

    run_text = runs.read_text()
    assert run_text.startswith("# objective = ehrenfest4 (p = 1, ")
    assert "# sampleSize = 3\n# baseSeed = 1\n" in run_text
    for text in (summary.read_text(), bars.read_text()):
        assert text.startswith(run_text[:run_text.index("objective,solver")])
    body = [l for l in run_text.splitlines() if not l.startswith("#")]
    assert body[0] == "objective,solver,seed,steps,probes,restarts,censored,valueBest,agentId"
    assert len(body) == 1 + 2 * 3
    assert run_text.endswith("\n")
    assert "," in body[1] and ";" not in run_text

    summary_text = summary.read_text()
    sbody = [l for l in summary_text.splitlines() if not l.startswith("#")]
    assert sbody[0] == ("objective,solver,n,censored,mean_steps_unc,stderr_steps_unc,"
                        "mean_steps_incl,stderr_steps_incl,mean_probes,mean_restarts")
    assert len(sbody) == 3

    bars_text = bars.read_text()
    bbody = [l for l in bars_text.splitlines() if not l.startswith("#")]
    assert bbody[0] == "solver,mean,stderr,censored"
    assert bbody[1].startswith("MWR04,")
    assert bbody[2].startswith("MWR02,")

    # byte-identical on a repeated identical invocation
    write_runs_csv(tmp_path / "y_runs.csv", plan, results)
    assert (tmp_path / "y_runs.csv").read_bytes() == runs.read_bytes()


def test_radius_monotone_on_solvable_continuous_instance():
    # the headline neighborhood-radius effect, on an instance every radius
    # can actually solve: six-digit target, means non-increasing in radius
    # up to one pooled standard error per adjacent pair
    from multiwalk.targets import compute_target
    spec = replace(get_objective("trefethen1"), digits_target=6)
    spec = spec.with_target(compute_target(spec).value_target)
    radii = (2, 4, 8, 30)
    stats = []
    for radius in radii:
        cfg = SolverConfig(kind="MWR", seed=1, steps_limit=2000, marks=32,
                           radius=radius, dither=0.01)
        plan = ExperimentPlan(spec=spec, configs=[cfg], sample_size=40)
        (records,) = run_experiment(plan)
        stats.append(summarize(records, cfg.solver_label))
    for a, b in zip(stats, stats[1:]):
        slack = math.hypot(a.stderr_steps_unc or 0.0, b.stderr_steps_unc or 0.0)
        assert b.mean_steps_unc <= a.mean_steps_unc + slack, (a, b)


def test_csv_empty_stderr_for_single_run(tmp_path, ehrenfest4_spec):
    plan = ExperimentPlan(spec=ehrenfest4_spec, configs=[_mwr()], sample_size=1)
    results = run_experiment(plan)
    summaries = summarize_experiment(plan, results)
    path = tmp_path / "one_summary.csv"
    write_summary_csv(path, plan, summaries)
    row = [l for l in path.read_text().splitlines() if not l.startswith("#")][1]
    fields = row.split(",")
    assert fields[5] == ""  # stderr undefined for a single run
