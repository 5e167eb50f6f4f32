"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The statistical criteria run the full 100-seed benchmark protocols on every
CPU (records do not depend on the worker count) and take a few minutes in
total; everything else is seconds.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from multiwalk.experiments import (ExperimentPlan, run_experiment, summarize,
                                   summarize_experiment, write_runs_csv,
                                   write_summary_csv)
from multiwalk.objectives import _quantize_array, get_objective, quantize
from multiwalk.ruler import eligible_neighbors
from multiwalk.solvers import SolverConfig, run_solver
from multiwalk.targets import compute_target, enumerate_integer_minimum

DEMO_MARKS = np.array([1.0, 2.0, 4.0, 10.0, 12.0, 17.0])[:, None]


def _check(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. quantization exactness and bulk properties
# ---------------------------------------------------------------------------

def test_quantization_exactness_and_bulk_properties():
    assert quantize(1234.5789 - 0.0004999, 9) == 1234.5784

    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    values = rng.uniform(-1e6, 1e6, 10 ** 6) * 10.0 ** rng.integers(-9, 9, 10 ** 6)
    q = _quantize_array(values, 9)
    idempotent = np.array_equal(_quantize_array(q, 9), q)
    odd = np.array_equal(_quantize_array(-values, 9), -q)
    elapsed = time.perf_counter() - start

    _check("quantization exactness", idempotent and odd and elapsed < 1.0,
           f"1e6 values in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. six-mark demo ruler: candidate tables match the printed reference
# ---------------------------------------------------------------------------

# reference tables for ruler (1,2,4,10,12,17) on [1,17]; the difference
# table's row 2, column 1 is a known misprint (4 where the rule gives 2)
PRINTED_DIFFERENCE = [
    [None, 2, 4, 10, 12, 17],
    [4, None, 3, 9, 11, 16],
    [4, 3, None, 7, 9, 14],
    [10, 9, 7, None, 3, 8],
    [12, 11, 9, 3, None, 6],
    [17, 16, 14, 8, 6, None],
]
PRINTED_NEIGHBORHOOD = [
    [2, 4, 10, 12],
    [3, 9, 11, 16],
    [3, 7, 9, 14],
    [9, 7, 3, 8],
    [11, 9, 3, 6],
    [16, 14, 8, 6],
]


def test_demo_ruler_candidate_tables():
    marks = DEMO_MARKS[:, 0]
    lower = 1.0

    diff_matches, diff_mismatches = 0, []
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            computed = float(lower + abs(marks[i] - marks[j]))
            if computed == PRINTED_DIFFERENCE[i][j]:
                diff_matches += 1
            else:
                diff_mismatches.append((i + 1, j + 1, PRINTED_DIFFERENCE[i][j], computed))

    neigh_matches = 0
    for i in range(6):
        for col, j in enumerate(eligible_neighbors(6)[i]):
            computed = lower + abs(marks[i] - marks[j])
            if computed == PRINTED_NEIGHBORHOOD[i][col]:
                neigh_matches += 1

    ok = (neigh_matches == 24 and diff_matches == 29
          and diff_mismatches == [(2, 1, 4, 2.0)])
    _check("demo ruler table reconstruction", ok,
           f"neighborhood {neigh_matches}/24, difference {diff_matches}/30, "
           f"misprint at {diff_mismatches}")


# ---------------------------------------------------------------------------
# 3. single-step solve from the demo ruler
# ---------------------------------------------------------------------------

def test_single_step_solve():
    rec = compute_target(get_objective("ehrenfest4"))
    spec = get_objective("ehrenfest4").with_target(rec.value_target)
    cfg = SolverConfig(kind="MW", seed=1, steps_limit=50, marks=6, radius=4,
                       dither=0.0)
    record = run_solver(cfg, spec, initial_marks=DEMO_MARKS)
    _check("single-step solve", record.steps == 1 and not record.is_censored,
           f"steps={record.steps} censored={record.is_censored}")


# ---------------------------------------------------------------------------
# 4. probe ledger over 1000 random configurations, all solver kinds
# ---------------------------------------------------------------------------

def test_probe_ledger_random_configs():
    start = time.perf_counter()
    specs = {}
    for name in ("ehrenfest4", "wild1", "trefethen1"):
        rec = compute_target(get_objective(name))
        specs[name] = get_objective(name).with_target(rec.value_target)

    kinds = ("MW", "MWR", "DEsF", "DEsFR",
             "DEoF1", "DEoF2", "DEoF3", "DEoF4", "DEoF5", "DEoF6")
    rng = np.random.default_rng(4)
    failures = []
    for case in range(1000):
        kind = kinds[case % len(kinds)]
        marks = int(rng.integers(4, 9))
        name = ("ehrenfest4", "wild1", "trefethen1")[case % 3]
        cfg = SolverConfig(
            kind=kind,
            seed=int(rng.integers(0, 2 ** 31)),
            steps_limit=int(rng.integers(1, 13)),
            marks=marks,
            radius=int(rng.integers(1, marks - 1)) if kind in ("MW", "MWR") else None,
            dither=float(rng.choice([0.0, 0.01, 0.3])),
            plateau_limit=int(rng.integers(1, 2 * marks)),
        )
        record = run_solver(cfg, specs[name])
        per_step = cfg.marks * cfg.radius if kind in ("MW", "MWR") else cfg.marks
        expected = cfg.marks * (1 + record.restarts) + record.steps * per_step
        if record.probes != expected:
            failures.append((case, kind, record.probes, expected))
    elapsed = time.perf_counter() - start
    _check("probe ledger", not failures and elapsed < 60.0,
           f"1000 configs in {elapsed:.1f}s, mismatches: {failures[:3]}")


# ---------------------------------------------------------------------------
# 5. neighborhood radius sweep on the staircase surrogate
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_radius_sweep_monotone(ehrenfest15_spec):
    radii = (2, 4, 8, 30)
    stats = {}
    for radius in radii:
        cfg = SolverConfig(kind="MWR", seed=1, steps_limit=200, marks=32,
                           radius=radius, dither=0.01)
        plan = ExperimentPlan(spec=ehrenfest15_spec, configs=[cfg], sample_size=100)
        (records,) = run_experiment(plan, workers=os.cpu_count())
        stats[radius] = summarize(records, cfg.solver_label)

    detail = "; ".join(
        f"r={r}: mean={stats[r].mean_steps_unc} se={stats[r].stderr_steps_unc} "
        f"censored={stats[r].censored}" for r in radii)

    ok = all(stats[r].mean_steps_unc is not None for r in radii)
    if ok:
        for r_prev, r_next in zip(radii, radii[1:]):
            a, b = stats[r_prev], stats[r_next]
            slack = math.hypot(a.stderr_steps_unc or 0.0, b.stderr_steps_unc or 0.0)
            if not b.mean_steps_unc <= a.mean_steps_unc + slack:
                ok = False
        if not stats[30].mean_steps_unc < stats[4].mean_steps_unc:
            ok = False
    _check("radius sweep monotone", ok, detail)


# ---------------------------------------------------------------------------
# 6. multiwalk versus restarting DE on the hard continuous cases
# ---------------------------------------------------------------------------

def _speedup_case(name, digits, steps_limit=2000, sample_size=100):
    spec = replace(get_objective(name), digits_target=digits)
    spec = spec.with_target(compute_target(spec).value_target)
    mwr = SolverConfig(kind="MWR", seed=1, steps_limit=steps_limit,
                       marks=32, radius=30, dither=0.01)
    de = SolverConfig(kind="DEsFR", seed=1, steps_limit=steps_limit, marks=32)
    plan = ExperimentPlan(spec=spec, configs=[mwr, de], sample_size=sample_size)
    results = run_experiment(plan, workers=os.cpu_count())
    return summarize_experiment(plan, results)


@pytest.mark.slow
def test_multiwalk_vs_de_speedup_direction():
    verdicts = []
    details = []
    for name, digits in (("wild3", 9), ("trefethen1", 6)):
        mwr_s, de_s = _speedup_case(name, digits)
        zero_censored = mwr_s.censored == 0
        halves = (mwr_s.mean_steps_unc is not None and de_s.mean_steps_unc is not None
                  and mwr_s.mean_steps_unc <= 0.5 * de_s.mean_steps_unc)
        verdicts.append(zero_censored and halves)
        details.append(
            f"{name}@{digits}: MWR30 mean={mwr_s.mean_steps_unc} "
            f"censored={mwr_s.censored}; DEsFR1 mean={de_s.mean_steps_unc} "
            f"censored={de_s.censored}")
    _check("multiwalk vs DE speedup direction", all(verdicts), "; ".join(details))


# ---------------------------------------------------------------------------
# 7. spread across the six DE strategy variants
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_de_strategy_spread(ehrenfest15_spec):
    configs = [SolverConfig(kind=f"DEoF{s}", seed=1, steps_limit=200, marks=32)
               for s in range(1, 7)]
    plan = ExperimentPlan(spec=ehrenfest15_spec, configs=configs, sample_size=100)
    results = run_experiment(plan, workers=os.cpu_count())
    summaries = summarize_experiment(plan, results)
    means = [s.mean_steps_unc for s in summaries if s.mean_steps_unc is not None]
    ratio = max(means) / min(means) if means else None
    detail = "; ".join(f"{s.label}: mean={s.mean_steps_unc} censored={s.censored}"
                       for s in summaries) + f"; max/min={ratio}"
    _check("DE strategy spread", ratio is not None and ratio >= 1.5, detail)


# ---------------------------------------------------------------------------
# 8. determinism and censoring bookkeeping
# ---------------------------------------------------------------------------

def test_determinism_and_censoring(tmp_path):
    start = time.perf_counter()
    rec = compute_target(get_objective("ehrenfest4"))
    spec = get_objective("ehrenfest4").with_target(rec.value_target)
    configs = [
        SolverConfig(kind="MWR", seed=1, steps_limit=150,
                     marks=6, radius=4, dither=0.01),
        SolverConfig(kind="DEsFR", seed=1, steps_limit=150, marks=6),
    ]
    plan = ExperimentPlan(spec=spec, configs=configs, sample_size=10)

    paths = []
    for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
        results = run_experiment(plan, workers=workers)
        runs = tmp_path / f"{tag}_runs.csv"
        summary = tmp_path / f"{tag}_summary.csv"
        write_runs_csv(runs, plan, results)
        write_summary_csv(summary, plan, summarize_experiment(plan, results))
        paths.append((runs.read_bytes(), summary.read_bytes()))
    byte_identical = paths[0] == paths[1] == paths[2]

    # a nine-digit continuous target is out of reach in a single step
    wild_rec = compute_target(get_objective("wild1"))
    wild_spec = get_objective("wild1").with_target(wild_rec.value_target)
    forced = ExperimentPlan(
        spec=wild_spec,
        configs=[SolverConfig(kind="MWR", seed=1,
                              steps_limit=1, marks=6, radius=4, dither=0.01)],
        sample_size=8)
    (forced_records,) = run_experiment(forced)
    all_censored = sum(r.is_censored for r in forced_records) == 8

    (records, _) = run_experiment(plan)
    targets_exact = all(r.value_best == spec.value_target
                        for r in records if not r.is_censored)
    uncensored_seen = any(not r.is_censored for r in records)
    elapsed = time.perf_counter() - start

    ok = byte_identical and all_censored and targets_exact and uncensored_seen \
        and elapsed < 60.0
    _check("determinism and censoring", ok,
           f"byte_identical={byte_identical} all_censored={all_censored} "
           f"targets_exact={targets_exact} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. brute-force oracle cross-checks
# ---------------------------------------------------------------------------

def test_oracle_cross_checks():
    start = time.perf_counter()
    rec2 = compute_target(replace(get_objective("trefethen2"), digits_target=8))
    # reference value of the 2002 hundred-digit challenge minimization problem
    published = -3.3068686474752372
    tref_ok = rec2.value_target == quantize(published, 8)

    enum_ok = True
    for n in range(2, 9):
        s = 2 ** n + 1
        best_x, best_v = None, math.inf
        for x in range(1, s + 1):
            k = x - 1
            value = -math.log(math.comb(2 ** n, k)) * (1.01 if k % 2 == 0 else 0.99)
            if value < best_v:
                best_x, best_v = x, value
        from functools import partial
        from multiwalk.objectives import ObjectiveSpec, ehrenfest
        spec = ObjectiveSpec(name=f"ehr{n}", dims=1, lower=[1.0], upper=[float(s)],
                             fn=partial(ehrenfest, n=n), staircase=True)
        oracle_rec = enumerate_integer_minimum(spec)
        if oracle_rec.coords != (float(best_x),) or \
                oracle_rec.value_target != quantize(best_v, 9):
            enum_ok = False
    elapsed = time.perf_counter() - start
    _check("oracle cross-checks", tref_ok and enum_ok and elapsed < 60.0,
           f"trefethen2={rec2.value_target} (published 8-digit "
           f"{quantize(published, 8)}), enumeration n<=8 ok={enum_ok}, {elapsed:.1f}s")
