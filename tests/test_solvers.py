import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiwalk import solvers
from multiwalk.objectives import EvalCounter, get_objective, quantize
from multiwalk.solvers import (SOLVER_KINDS, SolverConfig, WalkTrace, _de_trials,
                               config_lines,
                               _greedy_commit, _init_population, mw_step, parse_trace,
                               run_solver, trace_to_text, trace_wide_text)

DEMO_MARKS = np.array([1.0, 2.0, 4.0, 10.0, 12.0, 17.0])[:, None]
NO_BEST = (math.inf, None)  # the running best before any candidate


def _cfg(**kw):
    base = dict(kind="MW", seed=1, steps_limit=50,
                marks=6, radius=4, dither=0.0)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# configuration contracts
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(kind="bogus")
    with pytest.raises(ValueError):
        _cfg(kind="DEoF7")
    with pytest.raises(ValueError):
        _cfg(steps_limit=0)
    with pytest.raises(ValueError):
        _cfg(radius=5)  # above marks - 2
    with pytest.raises(ValueError):
        _cfg(radius=0)
    with pytest.raises(ValueError):
        _cfg(kind="MWR", plateau_limit=0)
    with pytest.raises(ValueError):
        _cfg(marks=3, radius=1)
    with pytest.raises(ValueError):
        _cfg(marks=1025)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(kind="DEoF1", radius=None, cr=1.5)
    with pytest.raises(ValueError):
        _cfg(dither=1.5)
    with pytest.raises(ValueError):
        _cfg(kind="DEsF", radius=None, rde=math.nan)
    for label in ("", "a,b", "a b", "a,b\n# x", "tab\t"):
        with pytest.raises(ValueError, match="label"):
            _cfg(label=label)
    # radius is required for ruler kinds only
    with pytest.raises(ValueError):
        SolverConfig(kind="MW", seed=1, steps_limit=5, marks=6)
    SolverConfig(kind="DEsF", seed=1, steps_limit=5, marks=6)


HEADER_AT_DEFAULTS = [
    "objective = ehrenfest4 (p = 1, bounds = [1.0] .. [17.0])",
    "valueTarget = -8.5 (digitsTarget = 9)",
    "solver MW04: kind=MW marks=32 radius=4 dither=0.01 stepsLimit=200 digitsTarget=9",
    "solver MWR04: kind=MWR marks=32 radius=4 dither=0.01 stepsLimit=200 plateauLimit=32 "
    "digitsTarget=9",
    "solver DEsF1: kind=DEsF marks=32 rde=1.0 stepsLimit=200 digitsTarget=9",
    "solver DEsFR1: kind=DEsFR marks=32 rde=1.0 stepsLimit=200 plateauLimit=32 digitsTarget=9",
    *(f"solver DEoF{s}: kind=DEoF{s} marks=32 rde=1.0 cr=0.9 stepsLimit=200 digitsTarget=9"
      for s in range(1, 7)),
]
HEADER_AT_OTHER_SETTINGS = [
    "objective = ehrenfest4 (p = 1, bounds = [1.0] .. [17.0])",
    "valueTarget = -8.5 (digitsTarget = 9)",
    "solver MW03: kind=MW marks=8 radius=3 dither=0.25 stepsLimit=50 digitsTarget=9",
    "solver MWR03: kind=MWR marks=8 radius=3 dither=0.25 stepsLimit=50 plateauLimit=5 "
    "digitsTarget=9",
    "solver DEsF1: kind=DEsF marks=8 rde=0.75 stepsLimit=50 digitsTarget=9",
    "solver DEsFR1: kind=DEsFR marks=8 rde=0.75 stepsLimit=50 plateauLimit=5 digitsTarget=9",
    *(f"solver DEoF{s}: kind=DEoF{s} marks=8 rde=0.75 cr=0.5 stepsLimit=50 digitsTarget=9"
      for s in range(1, 7)),
]


def test_config_lines_replay_only_the_settings_each_kind_reads():
    # every kind gets every setting; its header shows only those it reads
    spec = get_objective("ehrenfest4").with_target(-8.5)
    defaults = [SolverConfig(kind=k, seed=1, steps_limit=200,
                             radius=4 if k in ("MW", "MWR") else None) for k in SOLVER_KINDS]
    others = [SolverConfig(kind=k, seed=2, steps_limit=50, marks=8, radius=3, dither=0.25,
                           rde=0.75, cr=0.5, plateau_limit=5) for k in SOLVER_KINDS]
    assert config_lines(spec, defaults) == HEADER_AT_DEFAULTS
    assert config_lines(spec, others) == HEADER_AT_OTHER_SETTINGS


def test_solver_labels():
    assert _cfg(kind="MWR", radius=4, marks=32).solver_label == "MWR04"
    assert _cfg(kind="MW", radius=30, marks=32).solver_label == "MW30"
    assert SolverConfig(kind="DEsFR", seed=1,
                        steps_limit=5).solver_label == "DEsFR1"
    assert SolverConfig(kind="DEoF3", seed=1,
                        steps_limit=5).solver_label == "DEoF3"
    assert _cfg(label="custom").solver_label == "custom"


def test_plateau_limit_defaults_to_marks():
    assert _cfg(kind="MWR", marks=6).effective_plateau_limit == 6
    assert _cfg(kind="MWR", marks=6, plateau_limit=3).effective_plateau_limit == 3


def test_run_requires_target():
    with pytest.raises(ValueError):
        run_solver(_cfg(), get_objective("ehrenfest4"))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_mw_step_finds_demo_target_in_one_step(ehrenfest4_spec):
    spec = ehrenfest4_spec
    counter = EvalCounter()
    _marks, _values, best = mw_step(DEMO_MARKS.copy(), spec.fn(DEMO_MARKS), _cfg(),
                                    spec, np.random.default_rng(0), counter, NO_BEST)
    assert best[0] == spec.value_target
    assert counter.probes == 6 * 4


def test_mw_step_without_improvement_changes_nothing(ehrenfest4_spec):
    spec = ehrenfest4_spec
    marks, values, best = mw_step(DEMO_MARKS.copy(), spec.fn(DEMO_MARKS), _cfg(),
                                  spec, np.random.default_rng(0), EvalCounter(), NO_BEST)
    # the demo neighborhood is idempotent once the optimum is taken
    again_marks, again_values, best2 = mw_step(marks, values, _cfg(), spec,
                                               np.random.default_rng(0),
                                               EvalCounter(), best)
    assert np.array_equal(again_marks, marks)
    assert np.array_equal(again_values, values)
    assert best2[0] == best[0]


def test_mw_step_shared_candidate_moves_both_marks(ehrenfest4_spec):
    # marks at 2 and 10 both propose 9 through their distances to other
    # marks; both accept, and the running best is set once
    spec = ehrenfest4_spec
    marks, _values, best = mw_step(DEMO_MARKS.copy(), spec.fn(DEMO_MARKS), _cfg(),
                                   spec, np.random.default_rng(0), EvalCounter(), NO_BEST)
    nine_holders = np.flatnonzero(marks[:, 0] == 9.0)
    assert len(nine_holders) >= 2
    assert best[0] == spec.value_target


def _greedy_commit_reference(marks, values, cand_coords, cand_values, best, digits):
    """The full-loop commit ``_greedy_commit`` replaced: every candidate is
    compared with the running best, in order."""
    best_value, best_coord = best
    for i in range(len(cand_values)):
        fi = cand_values[i]
        if fi < best_value:
            best_value = quantize(float(fi), digits)
            best_coord = cand_coords[i].copy()
    improved = cand_values < values
    return (np.where(improved[:, None], cand_coords, marks),
            np.where(improved, cand_values, values), (best_value, best_coord))


# a small pool makes ties, equal raw values and raw-vs-quantized near misses common
_commit_value = st.one_of(
    st.sampled_from([-2.5, -2.45, -2.449, -1.0, 0.0, 1.25, 1.2501, 7.0, math.inf, math.nan]),
    st.floats(-100.0, 100.0))


@given(st.integers(1, 10).flatmap(lambda m: st.tuples(
           st.lists(_commit_value, min_size=m, max_size=m),
           st.lists(_commit_value, min_size=m, max_size=m))),
       st.one_of(st.none(), _commit_value), st.integers(1, 4), st.integers(1, 2))
def test_greedy_commit_matches_full_loop(vals, best_raw, digits, dims):
    cand_values, values = (np.array(v) for v in vals)
    m = len(values)
    marks = np.arange(m * dims, dtype=float).reshape(m, dims)
    cand_coords = marks + 0.5
    best = NO_BEST if best_raw is None else (quantize(best_raw, digits), np.array([-1.0]))
    got = _greedy_commit(marks, values, cand_coords, cand_values, best, digits)
    want = _greedy_commit_reference(marks, values, cand_coords, cand_values, best, digits)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert repr(got[2][0]) == repr(want[2][0])
    assert repr(got[2][1]) == repr(want[2][1])


# ---------------------------------------------------------------------------
# first-passage behavior
# ---------------------------------------------------------------------------

def test_single_step_solve_from_demo_ruler(ehrenfest4_spec):
    record = run_solver(_cfg(), ehrenfest4_spec, initial_marks=DEMO_MARKS)
    assert record.steps == 1
    assert not record.is_censored
    assert record.value_best == ehrenfest4_spec.value_target
    assert record.probes == 6 + 6 * 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5, 17.5])
def test_initial_marks_must_be_finite_and_inside_the_box(ehrenfest4_spec, bad):
    marks = DEMO_MARKS.copy()
    marks[3, 0] = bad
    with pytest.raises(ValueError, match="initial_marks"):
        run_solver(_cfg(), ehrenfest4_spec, initial_marks=marks)
    edges = np.array([1.0, 1.0, 17.0, 17.0, 9.0, 9.0])[:, None]  # the bounds are inside
    assert run_solver(_cfg(), ehrenfest4_spec, initial_marks=edges).steps >= 1


def test_forced_censoring(wild1_spec):
    cfg = SolverConfig(kind="MW", seed=2, steps_limit=1,
                       marks=8, radius=6, dither=0.01)
    record = run_solver(cfg, wild1_spec)
    assert record.is_censored
    assert record.steps == 1


def test_determinism_bitwise(ehrenfest15_spec):
    cfg = SolverConfig(kind="MWR", seed=42,
                       steps_limit=60, marks=16, radius=6, dither=0.01)
    a, trace_a = run_solver(cfg, ehrenfest15_spec, record_trace=True)
    b, trace_b = run_solver(cfg, ehrenfest15_spec, record_trace=True)
    assert a == b
    assert trace_to_text(trace_a) == trace_to_text(trace_b)


def test_uncensored_means_exact_target_match(ehrenfest4_spec):
    for seed in range(10):
        cfg = SolverConfig(kind="MWR", seed=seed,
                           steps_limit=300, marks=6, radius=4, dither=0.01)
        record = run_solver(cfg, ehrenfest4_spec)
        if not record.is_censored:
            assert record.value_best == ehrenfest4_spec.value_target


def test_censored_record_keeps_global_best(wild1_spec):
    cfg = SolverConfig(kind="MWR", seed=5, steps_limit=40,
                       marks=8, radius=6, dither=0.01, plateau_limit=4)
    record = run_solver(cfg, wild1_spec)
    assert record.is_censored
    assert record.steps == 40
    assert record.value_best > wild1_spec.value_target or \
        record.value_best == wild1_spec.value_target


def test_agent_id_is_argmin_of_final_values(ehrenfest15_spec):
    cfg = SolverConfig(kind="MW", seed=3,
                       steps_limit=25, marks=10, radius=8, dither=0.01)
    record, trace = run_solver(cfg, ehrenfest15_spec, record_trace=True)
    final_values = trace.steps[-1][2]
    assert 1 <= record.agent_id <= 10
    assert final_values[record.agent_id - 1] == final_values.min()


# ---------------------------------------------------------------------------
# greedy monotonicity and trace contracts
# ---------------------------------------------------------------------------

KINDS_FOR_TRACE = ("MW", "MWR", "DEsF", "DEsFR", "DEoF1", "DEoF2",
                   "DEoF3", "DEoF4", "DEoF5", "DEoF6")


def _traced_run_with_epoch_bests(monkeypatch, cfg, spec):
    """Run with a trace, recording the epoch best that each step's commit
    returns (one commit per step, read through the module global)."""
    greedy_commit = solvers._greedy_commit
    bests = []

    def record_commit(*args):
        marks, values, best = greedy_commit(*args)
        bests.append(best[0])
        return marks, values, best

    monkeypatch.setattr(solvers, "_greedy_commit", record_commit)
    record, trace = run_solver(cfg, spec, record_trace=True)
    assert len(bests) == len(trace.steps)
    return record, trace, bests


@pytest.mark.parametrize("kind", KINDS_FOR_TRACE)
def test_greedy_monotone_per_agent_within_epoch(kind, ehrenfest15_spec, monkeypatch):
    cfg = SolverConfig(kind=kind, seed=7, steps_limit=40,
                       marks=8, radius=6 if kind in ("MW", "MWR") else None,
                       dither=0.01, plateau_limit=5)
    record, trace, bests = _traced_run_with_epoch_bests(monkeypatch, cfg, ehrenfest15_spec)
    prev_epoch = None
    for (_step, epoch, values), best in zip(trace.steps, bests):
        if epoch == prev_epoch:
            assert np.all(values <= prev_values)
            assert best <= prev_best
        prev_epoch, prev_values, prev_best = epoch, values, best
    # the record keeps the best over every epoch
    assert record.value_best == min(bests)


def test_first_passage_marker_matches_record(ehrenfest4_spec):
    cfg = SolverConfig(kind="MWR", seed=1, steps_limit=400,
                       marks=6, radius=4, dither=0.01)
    record, trace = run_solver(cfg, ehrenfest4_spec, record_trace=True)
    assert not record.is_censored
    assert trace.first_passage == (record.steps, record.agent_id)
    markers = [s for s, *_ in trace.steps]
    assert markers == sorted(markers)


def test_trace_epoch_bookkeeping(wild1_spec):
    cfg = SolverConfig(kind="MWR", seed=11, steps_limit=60,
                       marks=8, radius=6, dither=0.01, plateau_limit=3)
    record, trace = run_solver(cfg, wild1_spec, record_trace=True)
    epochs = sorted({e for _s, e, *_ in trace.steps})
    assert epochs == list(range(record.restarts + 1))
    assert len(trace.epoch_seeds) == record.restarts + 1
    assert trace.epoch_seeds[0] == cfg.seed


def test_restart_epoch_depends_only_on_drawn_seed(wild1_spec):
    cfg = SolverConfig(kind="MWR", seed=11, steps_limit=60,
                       marks=8, radius=6, dither=0.01, plateau_limit=3)
    record, trace = run_solver(cfg, wild1_spec, record_trace=True)
    assert record.restarts >= 1, "expected at least one restart for this seed"
    epoch1_rows = [row for row in trace.steps if row[1] == 1]
    # replay epoch 1 as a fresh non-restart run seeded with the drawn seed
    replay_cfg = SolverConfig(kind="MW", seed=trace.epoch_seeds[1], steps_limit=60,
                              marks=8, radius=6, dither=0.01)
    _replay, replay_trace = run_solver(replay_cfg, wild1_spec, record_trace=True)
    offset = epoch1_rows[0][0] - 1
    for (step, _e, values), (rstep, _re, rvalues) in zip(
            epoch1_rows, replay_trace.steps):
        assert step - offset == rstep
        assert np.array_equal(values, rvalues)


def test_mwr_without_restarts_equals_mw(ehrenfest4_spec):
    kw = dict(seed=1, steps_limit=50, marks=6,
              radius=4, dither=0.0)
    mw = run_solver(SolverConfig(kind="MW", **kw), ehrenfest4_spec,
                initial_marks=DEMO_MARKS)
    mwr = run_solver(SolverConfig(kind="MWR", **kw), ehrenfest4_spec)
    # the demo ruler solves at step 1; with dither 0 both runs share the
    # epoch-0 stream, so a first passage in epoch 0 yields identical records
    seeded = run_solver(SolverConfig(kind="MW", **kw), ehrenfest4_spec)
    if not seeded.is_censored and mwr.restarts == 0:
        assert seeded.steps == mwr.steps
        assert seeded.value_best == mwr.value_best
        assert seeded.probes == mwr.probes
        assert seeded.agent_id == mwr.agent_id


def test_plateau_limit_one_restarts_after_first_flat_step(wild1_spec):
    cfg = SolverConfig(kind="MWR", seed=13, steps_limit=30,
                       marks=8, radius=1, dither=0.0, plateau_limit=1)
    record, trace = run_solver(cfg, wild1_spec, record_trace=True)
    if record.restarts:
        epoch0 = [row for row in trace.steps if row[1] == 0]
        # every epoch-0 step after the first error reduction can at most
        # plateau once before the restart fires
        assert len(epoch0) <= 30


# run-loop exits: first passage, a full plateau with budget left (restart), or
# the budget; the pinned records are those of the seeded runs

def _small_mwr(**kw):
    return SolverConfig(kind="MWR", marks=6, radius=2, dither=0.01, **kw)


def test_plateau_on_the_last_budgeted_step_is_censored_without_restart(ehrenfest4_spec):
    # epoch 2 of this run hits its plateau limit on step 13
    record, trace = run_solver(_small_mwr(seed=12, steps_limit=13, plateau_limit=3),
                               ehrenfest4_spec, record_trace=True)
    assert (record.steps, record.probes, record.restarts, record.is_censored,
            record.value_best, record.agent_id) == (13, 174, 2, True, -9.25142255, 2)
    assert record.restarts == len(trace.epoch_seeds) - 1
    assert trace.first_passage is None
    # one step more of budget, and the plateau starts epoch 3
    longer, longer_trace = run_solver(_small_mwr(seed=12, steps_limit=14, plateau_limit=3),
                                      ehrenfest4_spec, record_trace=True)
    assert (longer.steps, longer.restarts, longer.is_censored) == (14, 3, False)
    assert longer_trace.steps[-1][:2] == (14, 3)
    assert longer_trace.epoch_seeds[:3] == trace.epoch_seeds
    for rec in (record, longer):
        assert rec.probes == 6 * (1 + rec.restarts) + rec.steps * 6 * 2


def _epoch0_plateau_counts(cfg, spec, trace, bests):
    """Replay the plateau rule over epoch 0 of a trace, counting the passing
    step too; ``bests`` holds each step's epoch best."""
    _marks, values = _init_population(spec, cfg.marks, cfg.uses_ruler,
                                      np.random.default_rng(cfg.seed), EvalCounter())
    err_prev = float(values.min()) - spec.value_target
    plateau, counts = 0, []
    for (_step, epoch, _values), best in zip(trace.steps, bests):
        if epoch:
            break
        error = best - spec.value_target
        if error >= err_prev:
            plateau += 1
        else:
            plateau = 0
            err_prev = error
        counts.append(plateau)
    return counts


def test_pass_on_the_step_the_plateau_would_fill_is_not_a_restart(ehrenfest4_spec,
                                                                  monkeypatch):
    cfg = _small_mwr(seed=4, steps_limit=200, plateau_limit=2)
    record, trace, bests = _traced_run_with_epoch_bests(monkeypatch, cfg, ehrenfest4_spec)
    # the initial marks hold a raw value below the quantized target, so
    # every step, the passing one included, counts as flat
    assert _epoch0_plateau_counts(cfg, ehrenfest4_spec, trace, bests) == [1, 2]
    assert (record.steps, record.probes, record.restarts, record.is_censored,
            record.agent_id) == (2, 30, 0, False, 2)
    assert record.value_best == ehrenfest4_spec.value_target
    assert trace.first_passage == (2, 2)
    assert trace.epoch_seeds == [4]


def test_non_restart_kind_out_of_budget_has_no_restarts(ehrenfest4_spec):
    cfg = SolverConfig(kind="DEoF2", seed=2, steps_limit=3, marks=6)
    record, trace = run_solver(cfg, ehrenfest4_spec, record_trace=True)
    assert (record.steps, record.probes, record.restarts, record.is_censored,
            record.value_best, record.agent_id) == (3, 24, 0, True, -9.25142255, 6)
    assert record.probes == cfg.marks * (1 + record.restarts) + record.steps * cfg.marks
    assert trace.epoch_seeds == [2]
    assert trace.first_passage is None


# ---------------------------------------------------------------------------
# probe ledger
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS_FOR_TRACE)
def test_probe_ledger_exact(kind, ehrenfest15_spec):
    cfg = SolverConfig(kind=kind, seed=23, steps_limit=30,
                       marks=8, radius=3 if kind in ("MW", "MWR") else None,
                       dither=0.01, plateau_limit=4)
    record = run_solver(cfg, ehrenfest15_spec)
    per_step = cfg.marks * cfg.radius if kind in ("MW", "MWR") else cfg.marks
    assert record.probes == cfg.marks * (1 + record.restarts) + record.steps * per_step


# ---------------------------------------------------------------------------
# differential evolution pieces
# ---------------------------------------------------------------------------

def test_de_simple_trials_degenerate_scale():
    spec = get_objective("ehrenfest4")
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=5,
                       marks=4, rde=0.0)
    marks = np.array([[2.0], [5.0], [9.0], [14.0]])
    trials = _de_trials(marks, spec.fn(marks), cfg, spec, np.random.default_rng(0))
    assert all(t in marks[:, 0] for t in trials[:, 0])


def test_de_simple_trials_confinement_redraws_inside_box():
    spec = get_objective("ehrenfest4")
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=5,
                       marks=4, rde=1.0)
    marks = np.array([[1.0], [2.0], [4.0], [10.0]])
    rng = np.random.default_rng(1)
    for _ in range(200):
        trials = _de_trials(marks, spec.fn(marks), cfg, spec, rng)
        assert np.all(trials >= spec.lower) and np.all(trials <= spec.upper)


def test_confine_redraws_a_nan_row_and_keeps_rows_inside():
    lower, upper = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    trials = np.array([[0.5, 0.5], [math.nan, 0.5], [0.0, 1.0], [0.5, math.nan]])
    out = solvers._confine(trials.copy(), lower, upper, np.random.default_rng(0))
    assert np.all((out >= lower) & (out <= upper))
    assert out[[0, 2]].tobytes() == trials[[0, 2]].tobytes()


def test_de_population_collapse_only_confinement_escapes():
    spec = get_objective("wild1")
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=5, marks=6)
    marks = np.full((6, 1), 3.25)
    trials = _de_trials(marks, spec.fn(marks), cfg, spec, np.random.default_rng(0))
    assert np.all(trials == 3.25)


def test_de_strategy_trials_stay_in_bounds():
    spec = get_objective("wild2")
    rng_init = np.random.default_rng(8)
    marks = spec.lower + rng_init.uniform(size=(12, 2)) * (spec.upper - spec.lower)
    values = np.asarray(spec.fn(marks))
    for strategy in range(1, 7):
        cfg = SolverConfig(kind=f"DEoF{strategy}", seed=1,
                           steps_limit=5, marks=12)
        trials = _de_trials(marks, values, cfg, spec, np.random.default_rng(3))
        assert trials.shape == marks.shape
        assert np.all(trials >= spec.lower) and np.all(trials <= spec.upper)


def test_strategy2_with_zero_scale_keeps_population():
    # donor collapses to the current member, so any crossover returns it
    spec = get_objective("wild2")
    marks = spec.lower + np.random.default_rng(2).uniform(size=(8, 2)) * \
        (spec.upper - spec.lower)
    values = np.asarray(spec.fn(marks))
    cfg = SolverConfig(kind="DEoF2", seed=1, steps_limit=5,
                       marks=8, rde=0.0, cr=0.9)
    trials = _de_trials(marks, values, cfg, spec, np.random.default_rng(5))
    assert np.allclose(trials, marks)


def test_strategy3_zero_jitter_zero_scale_is_best_with_full_crossover(monkeypatch):
    # rde = 0 and jitter = 0 reduce the donor to the best member exactly;
    # cr = 1 with the guaranteed component makes the trial equal the donor
    monkeypatch.setattr(solvers, "_DE_JITTER", 0.0)
    spec = get_objective("wild2")
    marks = spec.lower + np.random.default_rng(4).uniform(size=(8, 2)) * \
        (spec.upper - spec.lower)
    values = np.asarray(spec.fn(marks))
    best = marks[int(np.argmin(values))]
    cfg = SolverConfig(kind="DEoF3", seed=1, steps_limit=5,
                       marks=8, rde=0.0, cr=1.0)
    trials = _de_trials(marks, values, cfg, spec, np.random.default_rng(6))
    assert np.all(trials == best)


def test_desf_first_step_matches_documented_draw_order(ehrenfest4_spec):
    # golden reconstruction of one DEsF step: init uniforms, rank block,
    # donor formula, confinement redraws, batch evaluation
    cfg = SolverConfig(kind="DEsF", seed=77,
                       steps_limit=1, marks=5)
    record = run_solver(cfg, ehrenfest4_spec)

    spec = ehrenfest4_spec
    rng = np.random.default_rng(77)
    marks = spec.lower + rng.uniform(size=(5, 1)) * (spec.upper - spec.lower)
    values = spec.fn(marks)
    ranks = rng.uniform(size=(5, 5))
    idx = np.argsort(ranks, axis=1)[:, :3]
    trials = marks[idx[:, 0]] + 1.0 * (marks[idx[:, 1]] - marks[idx[:, 2]])
    out = np.any(trials < spec.lower, axis=1) | np.any(trials > spec.upper, axis=1)
    if out.any():
        trials[out] = spec.lower + rng.uniform(size=(int(out.sum()), 1)) * \
            (spec.upper - spec.lower)
    trial_values = spec.fn(trials)
    assert record.value_best == quantize(float(trial_values.min()), 9)
    assert record.probes == 5 + 5


def test_desfr_restart_machinery_matches_mwr_contract(ehrenfest15_spec):
    cfg = SolverConfig(kind="DEsFR", seed=31,
                       steps_limit=50, marks=6, plateau_limit=2)
    record, trace = run_solver(cfg, ehrenfest15_spec, record_trace=True)
    assert record.restarts == len(trace.epoch_seeds) - 1
    if record.is_censored:
        assert record.steps == 50


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def test_trace_export_format(ehrenfest4_spec):
    cfg = SolverConfig(kind="MW", seed=1, steps_limit=50,
                       marks=6, radius=4, dither=0.0)
    record, trace = run_solver(cfg, ehrenfest4_spec, initial_marks=DEMO_MARKS,
                           record_trace=True)
    text = trace_to_text(trace)
    lines = text.splitlines()
    assert lines[0] == "# objective = ehrenfest4 (p = 1, bounds = [1.0] .. [17.0])"
    assert lines[2] == ("# solver MW04: kind=MW marks=6 radius=4 dither=0.0 "
                        "stepsLimit=50 digitsTarget=9")
    assert lines[3] == "# solver = MW04"
    assert "step,restart,agentId,value" in lines
    header_at = lines.index("step,restart,agentId,value")
    data = [l for l in lines[header_at + 1:] if not l.startswith("#")]
    assert len(data) == record.steps * 6
    assert data[0].startswith("1,0,1,")
    assert lines[-1] == (f"# first_passage_step={record.steps},"
                         f"first_passage_agentId={record.agent_id}")
    assert text.endswith("\n")


def test_trace_censored_footer(wild1_spec):
    cfg = SolverConfig(kind="MW", seed=3, steps_limit=2,
                       marks=6, radius=4, dither=0.01)
    record, trace = run_solver(cfg, wild1_spec, record_trace=True)
    assert record.is_censored
    assert trace_to_text(trace).splitlines()[-1] == "# first_passage=none"


_trace_steps = st.lists(
    st.tuples(st.integers(1, 10 ** 6), st.integers(0, 100),
              st.lists(st.floats(allow_nan=False), min_size=1, max_size=5)),
    max_size=6, unique_by=lambda s: (s[0], s[1]))


@given(steps=_trace_steps,
       first_passage=st.none() | st.tuples(st.integers(1, 10 ** 6), st.integers(1, 5)),
       epoch_seeds=st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=3))
def test_trace_parse_roundtrip(steps, first_passage, epoch_seeds):
    trace = WalkTrace(header=("objective = x", "solver = MW04"),
                      first_passage=first_passage, epoch_seeds=epoch_seeds)
    for step, restart, values in steps:
        trace.steps.append((step, restart, np.array(values)))
    comments, rows = parse_trace(trace_to_text(trace).splitlines())
    expected = [(step, restart, agent, repr(float(v)))
                for step, restart, values in steps
                for agent, v in enumerate(values, start=1)]
    assert rows == expected
    footer = ("# first_passage=none" if first_passage is None else
              f"# first_passage_step={first_passage[0]},"
              f"first_passage_agentId={first_passage[1]}")
    assert comments == ["# objective = x", "# solver = MW04",
                        f"# epoch_seeds = {','.join(map(str, epoch_seeds))}", footer]



@pytest.mark.parametrize("row", ["0,0,1,1.0", "1,-1,1,1.0", "1,0,0,1.0",
                                 "1,0,1,abc", "1,0,1", "x,0,1,1.0", "1,0,1025,1.0"])
def test_parse_trace_rejects_meaningless_rows(row):
    with pytest.raises(ValueError, match="line 3"):
        parse_trace(["# solver = MW04", "step,restart,agentId,value", row])


def test_parse_trace_accepts_the_largest_population():
    # agentId is bounded by ruler.MAX_MARKS, so the pivot stays small
    _comments, rows = parse_trace(["step,restart,agentId,value", "1,0,1024,1.0"])
    assert rows == [(1, 0, 1024, "1.0")]


def test_parse_trace_rejects_a_repeated_row_key():
    lines = ["step,restart,agentId,value", "1,0,1,1.0", "1,1,1,1.0", "1,0,2,3.0",
             "1,0,1,2.0"]
    with pytest.raises(ValueError, match=r"line 5: .*'1,0,1,2.0' repeats"):
        parse_trace(lines)


_trace_field = st.one_of(st.integers(-3, 3).map(str), st.floats().map(repr),
                         st.text(max_size=4))
_trace_text = st.one_of(
    st.text(),
    st.lists(st.one_of(st.lists(_trace_field, min_size=3, max_size=5).map(",".join),
                       st.text(max_size=8)), max_size=6).map("\n".join))


@given(_trace_text)
def test_parse_trace_on_arbitrary_text(text):
    # arbitrary text either parses into meaningful rows or raises ValueError
    try:
        _comments, rows = parse_trace(text.splitlines())
    except ValueError:
        return
    for step, restart, agent, value in rows:
        assert step >= 1 and restart >= 0 and agent >= 1
        float(value)


_wide_rows = st.dictionaries(
    st.tuples(st.integers(1, 50), st.integers(0, 5), st.integers(1, 6)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr), max_size=30)


@given(_wide_rows, st.lists(st.sampled_from(["# objective = x", "# a,b"]), max_size=2))
def test_trace_wide_text_pivots_one_row_per_step(cells, comments):
    # one row per (step, restart), in order; each value in its agent's column;
    # a trace without data rows is refused
    text = comments + ["step,restart,agentId,value"] + [
        f"{step},{restart},{agent},{value}"
        for (step, restart, agent), value in cells.items()]
    if not cells:
        with pytest.raises(ValueError, match="no data rows"):
            trace_wide_text(text)
        return
    out = trace_wide_text(text).splitlines()
    n_agents = max(agent for _, _, agent in cells)
    assert out[:len(comments)] == comments
    assert out[len(comments)] == "step,restart," + ",".join(
        f"agent{a}" for a in range(1, n_agents + 1))
    body = [row.split(",") for row in out[len(comments) + 1:]]
    keys = sorted({(step, restart) for step, restart, _ in cells})
    assert [(int(r[0]), int(r[1])) for r in body] == keys
    for row in body:
        assert len(row) == 2 + n_agents
        for agent in range(1, n_agents + 1):
            key = (int(row[0]), int(row[1]), agent)
            assert row[1 + agent] == cells.get(key, "")
