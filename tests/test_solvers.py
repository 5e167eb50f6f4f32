import dataclasses
import functools
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiwalk import ruler, solvers
from multiwalk.experiments import ExperimentPlan, _seed_chunks, run_experiment
from multiwalk.objectives import (BATCH_POINTS, ObjectiveSpec, evaluate_batch, get_objective,
                                  quantize)
from multiwalk.solvers import (KIND_SETTINGS, SOLVER_KINDS, RunRecord, SolverConfig, WalkTrace,
                               _de_step, _greedy_commit, _start_epochs, config_lines, mw_step,
                               run_seeds, run_solver, trace_to_text, trace_wide_text)
from multiwalk.ruler import MAX_MARKS, eligible_neighbors
from multiwalk.targets import compute_target

DEMO_MARKS = np.array([1.0, 2.0, 4.0, 10.0, 12.0, 17.0])[:, None]
NO_BEST = (math.inf, None)  # the running best before any candidate


def _traced(cfg, spec, initial_marks=None):
    """Run with a WalkTrace observing; returns the record and the trace."""
    trace = WalkTrace(cfg, spec)
    return run_solver(cfg, spec, initial_marks, observe=trace), trace


def _stacked_best(best, dims):
    """A one-population run's best ``(value, coord or None)`` as the stacked
    ``((1,) values, (1, dims) coords)`` the commit takes."""
    value, coord = best
    return (np.array([value]),
            np.full((1, dims), math.nan) if coord is None else np.array([coord], dtype=float))


def _mw_step_one(marks, values, cfg, spec, rng, epoch_best):
    """``mw_step``'s proposal for one population, committed as ``run_seeds``
    commits it, with the run's best at the epoch best: row 0 of each output,
    the epoch best after it, and the raw values evaluated.  The commit
    updates copies of the state handed in."""
    marks, values, epoch_best = marks[None].copy(), values[None].copy(), np.array([epoch_best])
    coords, cand_values, raw = mw_step(marks, values, cfg, spec, [rng])
    _greedy_commit(marks, values, coords, cand_values, epoch_best,
                   _stacked_best((epoch_best[0], None), spec.dims), spec.digits_target)
    return marks[0], values[0], epoch_best[0], raw[0]


def _init_population_reference(spec, n_marks, anchored, rng, initial_marks=None):
    """One population's epoch start as the per-seed init made it, kept as the
    reference of the stacked ``_start_epochs``: uniform marks, rows 1 and m
    pinned at the bounds when ``anchored``, replaced by ``initial_marks``
    after the draw, and their values."""
    u = rng.uniform(size=(n_marks, spec.dims))
    marks = spec.lower + u * (spec.upper - spec.lower)
    if anchored:
        marks[0] = spec.lower
        marks[-1] = spec.upper
    if initial_marks is not None:
        marks = np.array(initial_marks, dtype=float).reshape(n_marks, spec.dims)
        if not np.all((spec.lower <= marks) & (marks <= spec.upper)):
            raise ValueError(f"initial_marks must be finite and inside the bounds of {spec.name}")
    return marks, evaluate_batch(spec, marks)


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
    # a count that is not an integer; steps_limit 20.5, inf or nan never ends a
    # run, and a bool would be written into every header as True or False
    for field, value in (("seed", 1.0), ("seed", None), ("steps_limit", 20.5),
                         ("steps_limit", math.inf), ("steps_limit", math.nan),
                         ("marks", 6.0), ("radius", 4.0), ("plateau_limit", 2.5),
                         ("seed", True), ("steps_limit", True), ("marks", True),
                         ("radius", False), ("plateau_limit", True)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            _cfg(kind="MWR", **{field: value})
    _cfg(kind="MWR", seed=np.int64(1), steps_limit=np.int32(5), plateau_limit=np.uint8(2))
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
    _marks, _values, best, raw = _mw_step_one(DEMO_MARKS.copy(), spec.fn(DEMO_MARKS), _cfg(),
                                              spec, np.random.default_rng(0), math.inf)
    assert best == spec.value_target
    assert raw.shape == (6 * 4,)


def test_mw_step_without_improvement_changes_nothing(ehrenfest4_spec):
    spec = ehrenfest4_spec
    marks, values, best, _raw = _mw_step_one(DEMO_MARKS.copy(), spec.fn(DEMO_MARKS), _cfg(),
                                             spec, np.random.default_rng(0), math.inf)
    # the demo neighborhood is idempotent once the optimum is taken
    again_marks, again_values, best2, _raw = _mw_step_one(marks, values, _cfg(), spec,
                                                          np.random.default_rng(0), best)
    assert np.array_equal(again_marks, marks)
    assert np.array_equal(again_values, values)
    assert best2 == best


def test_mw_step_shared_candidate_moves_both_marks(ehrenfest4_spec):
    # marks at 2 and 10 both propose 9 through their distances to other
    # marks; both accept, and the running best is set once
    spec = ehrenfest4_spec
    marks, _values, best, _raw = _mw_step_one(DEMO_MARKS.copy(), spec.fn(DEMO_MARKS), _cfg(),
                                              spec, np.random.default_rng(0), math.inf)
    nine_holders = np.flatnonzero(marks[:, 0] == 9.0)
    assert len(nine_holders) >= 2
    assert best == spec.value_target


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


def _greedy_commit_serial(marks, values, cand_coords, cand_values, best, digits):
    """The one-population commit the stacked ``_greedy_commit`` replaced,
    kept as its reference: the prefiltered loop over record-breaking
    candidates, the best a ``(value, coord or None)`` pair."""
    best_value, best_coord = best
    for i in np.flatnonzero(cand_values < best_value):
        fi = cand_values[i]
        if fi < best_value:
            best_value = quantize(float(fi), digits)
            best_coord = cand_coords[i].copy()
    improved = cand_values < values
    return (np.where(improved[:, None], cand_coords, marks),
            np.where(improved, cand_values, values), (best_value, best_coord))


def _two_bests_reference(walk, marks, values, cand_coords, cand_values, epoch_best, best,
                         digits):
    """A reference commit of one population's two bests: ``walk`` (one of the
    serial commits above) from the epoch best, then a strict ``<`` update of
    the run's best ``(value, coord or None)``.  Returns ``(marks, values,
    epoch best, run's best)``."""
    marks, values, walked = walk(marks, values, cand_coords, cand_values, (epoch_best, None),
                                 digits)
    return marks, values, walked[0], walked if walked[0] < best[0] else best


def _drawn_bests(epoch_raw, run_raw, digits, coord):
    """The epoch best (``+inf`` when ``epoch_raw`` is None) and a run's best
    at or below it, the engine's invariant: the epoch best again when
    ``run_raw`` is None, else the lower of the two, at ``coord`` unless it
    is ``+inf``."""
    epoch_best = math.inf if epoch_raw is None else quantize(epoch_raw, digits)
    run = epoch_best if run_raw is None else min(epoch_best, quantize(run_raw, digits))
    return epoch_best, (NO_BEST if run == math.inf else (run, coord))


def _commit_one(marks, values, cand_coords, cand_values, epoch_best, best, digits):
    """``_greedy_commit`` of one population, its epoch best a float and its
    run's best ``(float, coord or None)`` again, read back from the copies
    of the state it updated."""
    marks, values, epoch_best = marks[None].copy(), values[None].copy(), np.array([epoch_best])
    best = _stacked_best(best, marks.shape[2])
    assert _greedy_commit(marks, values, cand_coords[None], cand_values[None], epoch_best, best,
                          digits) is None
    value, coord = float(best[0][0]), best[1][0]
    return (marks[0], values[0], float(epoch_best[0]),
            (value, None if np.isnan(coord).all() else coord))


@given(st.integers(1, 10).flatmap(lambda m: st.tuples(
           st.lists(_commit_value, min_size=m, max_size=m),
           st.lists(_commit_value, min_size=m, max_size=m))),
       st.one_of(st.none(), _commit_value), st.one_of(st.none(), _commit_value),
       st.sampled_from([1, 2, 3, 4, 17]), st.integers(1, 2))
def test_greedy_commit_matches_full_loop(vals, epoch_raw, run_raw, digits, dims):
    cand_values, values = (np.array(v) for v in vals)
    m = len(values)
    marks = np.arange(m * dims, dtype=float).reshape(m, dims)
    cand_coords = marks + 0.5
    epoch_best, best = _drawn_bests(epoch_raw, run_raw, digits, np.full(dims, -1.0))
    got = _commit_one(marks, values, cand_coords, cand_values, epoch_best, best, digits)
    want = _two_bests_reference(_greedy_commit_reference, marks, values, cand_coords,
                                cand_values, epoch_best, best, digits)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert repr(got[2]) == repr(want[2])
    assert repr(got[3][0]) == repr(want[3][0])
    assert repr(got[3][1]) == repr(want[3][1])


def _commit_stack(cand_values, values, epoch_bests, bests, digits, dims):
    """``_greedy_commit`` of a stack of populations, each checked against
    ``_greedy_commit_serial`` with the run's best updated after it, and the
    candidates checked unmodified.  The commit updates copies of the state
    in place; returns those copies, ``(marks, values, epoch_best, best)``,
    and the candidate coords."""
    n, m = cand_values.shape
    marks = np.arange(n * m * dims, dtype=float).reshape(n, m, dims)
    cand_coords = marks + 0.5
    best_in = (np.array([b[0] for b in bests]),
               np.array([np.full(dims, math.nan) if b[1] is None else b[1] for b in bests]))
    before = [a.tobytes() for a in (cand_coords, cand_values)]
    got_marks, got_values = marks.copy(), values.copy()
    got_epoch, (got_best, got_coords) = np.array(epoch_bests, dtype=float), best_in
    got = (got_marks, got_values, got_epoch, (got_best, got_coords))
    assert _greedy_commit(got_marks, got_values, cand_coords, cand_values, got_epoch,
                          got[3], digits) is None
    for k in range(n):
        want = _two_bests_reference(_greedy_commit_serial, marks[k], values[k], cand_coords[k],
                                    cand_values[k], epoch_bests[k], bests[k], digits)
        assert got_marks[k].tobytes() == want[0].tobytes()
        assert got_values[k].tobytes() == want[1].tobytes()
        assert repr(float(got_epoch[k])) == repr(float(want[2]))
        assert repr(float(got_best[k])) == repr(float(want[3][0]))
        want_coord = np.full(dims, math.nan) if want[3][1] is None else want[3][1]
        assert got_coords[k].tobytes() == want_coord.tobytes()
    assert [a.tobytes() for a in (cand_coords, cand_values)] == before
    return got, cand_coords


@given(st.integers(1, 6).flatmap(lambda m: st.lists(st.tuples(
           st.lists(_commit_value, min_size=m, max_size=m),
           st.lists(_commit_value, min_size=m, max_size=m),
           st.one_of(st.none(), _commit_value), st.one_of(st.none(), _commit_value)),
           min_size=1, max_size=5)),
       st.sampled_from([1, 2, 3, 4, 17]), st.integers(1, 2))
def test_stacked_commit_matches_the_serial_commit_per_population(pops, digits, dims):
    # each population of the stack commits as it would alone
    drawn = [_drawn_bests(e, r, digits, np.full(dims, -1.0 - k))
             for k, (_c, _v, e, r) in enumerate(pops)]
    _commit_stack(np.array([p[0] for p in pops]), np.array([p[1] for p in pops]),
                  [d[0] for d in drawn], [d[1] for d in drawn], digits, dims)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("digits, rows", [
    # (epoch best, run's best, candidates, the epoch best and the run's best
    # after the step, the candidate the run's best came from or None); at two
    # digits -2.46, -2.47 and -2.51 quantize to -2.5
    (2, [(-2.5, -2.5, [-2.51, -2.52, 0.0, -2.54, 3.0], -2.5, -2.5, None),  # hits at the best
         (INF, INF, [-2.46, -2.51, -2.47, 1.0], -2.5, -2.5, 1),   # a hit at Q, then one below it
         (INF, INF, [-2.46, -2.47, 1.0], -2.5, -2.5, 0),          # none below Q: the first at Q
         (INF, -2.5, [-2.46, -2.51, 1.0], -2.5, -2.5, None),      # Q is the run's best: it stays
         (0.0, -3.0, [-2.46, -2.51, 1.0], -2.5, -3.0, None),      # the run's best is below Q
         (-10.0, -10.0, [-2.46, 5.0, NAN], -10.0, -10.0, None)]),  # no hit: untouched
    (2, [(INF, INF, [NAN, INF, -2.0, -INF, NAN, -INF], -INF, -INF, 3),
         (INF, INF, [NAN, INF, NAN], INF, INF, None),
         (2.0, 2.0, [INF, 1.0, NAN], 1.0, 1.0, 1),
         (NAN, NAN, [-1.0, 0.0], NAN, NAN, None)]),
    (3, [(INF, INF, [-0.0, 0.0], -0.0, -0.0, 0), (INF, INF, [0.0, -0.0], 0.0, 0.0, 0),
         (INF, 0.0, [-0.0, 1.0], -0.0, 0.0, None)]),
    (17, [(INF, INF, [1.25, 1.2501, 1.25, 1.0000000000000002, 1.0, 1.0], 1.0, 1.0, 4),
          (1.25, 1.25, [1.25, 1.2500000000000002, 1.2499999999999998],
           1.2499999999999998, 1.2499999999999998, 2)]),
])
def test_commit_edge_cases_match_the_serial_commit(digits, rows):
    m = max(len(r[2]) for r in rows)
    cand_values = np.array([r[2] + [NAN] * (m - len(r[2])) for r in rows])
    bests = [(r[1], np.full(2, -1.0 - k)) for k, r in enumerate(rows)]
    (_marks, _values, epoch_best, (best, coords)), cand_coords = _commit_stack(
        cand_values, np.full(cand_values.shape, 1.5), [r[0] for r in rows], bests, digits,
        dims=2)
    for k, (_epoch_in, _run_in, _cands, epoch_out, run_out, at) in enumerate(rows):
        assert repr(float(epoch_best[k])) == repr(epoch_out)
        assert repr(float(best[k])) == repr(run_out)
        want = bests[k][1] if at is None else cand_coords[k, at]
        assert coords[k].tobytes() == want.tobytes()


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
    a, trace_a = _traced(cfg, ehrenfest15_spec)
    b, trace_b = _traced(cfg, ehrenfest15_spec)
    assert a == b
    assert trace_to_text(trace_a, a) == trace_to_text(trace_b, b)


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
    record, trace = _traced(cfg, ehrenfest15_spec)
    final_values = trace.steps[-1][2]
    assert 1 <= record.agent_id <= 10
    assert final_values[record.agent_id - 1] == final_values.min()


# ---------------------------------------------------------------------------
# greedy monotonicity and trace contracts
# ---------------------------------------------------------------------------

KINDS_FOR_TRACE = ("MW", "MWR", "DEsF", "DEsFR", "DEoF1", "DEoF2",
                   "DEoF3", "DEoF4", "DEoF5", "DEoF6")


class _BestsTrace(WalkTrace):
    """A walk trace that also keeps the epoch best after each step."""

    def __init__(self, cfg, spec):
        super().__init__(cfg, spec)
        self.bests = []

    def step(self, step, restart, raw, marks, values, best):
        super().step(step, restart, raw, marks, values, best)
        self.bests.append(best)


def _traced_run_with_epoch_bests(cfg, spec):
    """Run with a trace, recording the epoch best after each step."""
    trace = _BestsTrace(cfg, spec)
    record = run_solver(cfg, spec, observe=trace)
    return record, trace, trace.bests


@pytest.mark.parametrize("kind", KINDS_FOR_TRACE)
def test_greedy_monotone_per_agent_within_epoch(kind, ehrenfest15_spec):
    cfg = SolverConfig(kind=kind, seed=7, steps_limit=40,
                       marks=8, radius=6 if kind in ("MW", "MWR") else None,
                       dither=0.01, plateau_limit=5)
    record, trace, bests = _traced_run_with_epoch_bests(cfg, ehrenfest15_spec)
    prev_epoch = None
    for (_step, epoch, values), best in zip(trace.steps, bests):
        if epoch == prev_epoch:
            assert np.all(values <= prev_values)
            assert best <= prev_best
        prev_epoch, prev_values, prev_best = epoch, values, best
    # the record keeps the best over every epoch
    assert record.value_best == min(bests)


def test_trace_epoch_bookkeeping(wild1_spec):
    cfg = SolverConfig(kind="MWR", seed=11, steps_limit=60,
                       marks=8, radius=6, dither=0.01, plateau_limit=3)
    record, trace = _traced(cfg, wild1_spec)
    assert [s for s, *_ in trace.steps] == list(range(1, record.steps + 1))
    epochs = sorted({e for _s, e, *_ in trace.steps})
    assert epochs == list(range(record.restarts + 1))
    assert len(trace.epoch_seeds) == record.restarts + 1
    assert trace.epoch_seeds[0] == cfg.seed


def test_restart_epoch_depends_only_on_drawn_seed(wild1_spec):
    cfg = SolverConfig(kind="MWR", seed=11, steps_limit=60,
                       marks=8, radius=6, dither=0.01, plateau_limit=3)
    record, trace = _traced(cfg, wild1_spec)
    assert record.restarts >= 1, "expected at least one restart for this seed"
    epoch1_rows = [row for row in trace.steps if row[1] == 1]
    # replay epoch 1 as a fresh non-restart run seeded with the drawn seed
    replay_cfg = SolverConfig(kind="MW", seed=trace.epoch_seeds[1], steps_limit=60,
                              marks=8, radius=6, dither=0.01)
    _replay, replay_trace = _traced(replay_cfg, wild1_spec)
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
    record, trace = _traced(cfg, wild1_spec)
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
    record, trace = _traced(_small_mwr(seed=12, steps_limit=13, plateau_limit=3),
                            ehrenfest4_spec)
    assert (record.steps, record.probes, record.restarts, record.is_censored,
            record.value_best, record.agent_id) == (13, 174, 2, True, -9.25142255, 2)
    assert record.restarts == len(trace.epoch_seeds) - 1
    # one step more of budget, and the plateau starts epoch 3
    longer, longer_trace = _traced(_small_mwr(seed=12, steps_limit=14, plateau_limit=3),
                                   ehrenfest4_spec)
    assert (longer.steps, longer.restarts, longer.is_censored) == (14, 3, False)
    assert longer_trace.steps[-1][:2] == (14, 3)
    assert longer_trace.epoch_seeds[:3] == trace.epoch_seeds
    for rec in (record, longer):
        assert rec.probes == 6 * (1 + rec.restarts) + rec.steps * 6 * 2


def _epoch0_plateau_counts(cfg, spec, trace, bests):
    """Replay the plateau rule over epoch 0 of a trace, counting the passing
    step too; ``bests`` holds each step's epoch best."""
    _marks, values = _init_population_reference(spec, cfg.marks, cfg.uses_ruler,
                                                np.random.default_rng(cfg.seed))
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


def test_pass_on_the_step_the_plateau_would_fill_is_not_a_restart(ehrenfest4_spec):
    cfg = _small_mwr(seed=4, steps_limit=200, plateau_limit=2)
    record, trace, bests = _traced_run_with_epoch_bests(cfg, ehrenfest4_spec)
    # the initial marks hold a raw value below the quantized target, so
    # every step, the passing one included, counts as flat
    assert _epoch0_plateau_counts(cfg, ehrenfest4_spec, trace, bests) == [1, 2]
    assert (record.steps, record.probes, record.restarts, record.is_censored,
            record.agent_id) == (2, 30, 0, False, 2)
    assert record.value_best == ehrenfest4_spec.value_target
    assert trace.steps[-1][:2] == (record.steps, 0)
    assert trace.epoch_seeds == [4]


def test_non_restart_kind_out_of_budget_has_no_restarts(ehrenfest4_spec):
    cfg = SolverConfig(kind="DEoF2", seed=2, steps_limit=3, marks=6)
    record, trace = _traced(cfg, ehrenfest4_spec)
    assert (record.steps, record.probes, record.restarts, record.is_censored,
            record.value_best, record.agent_id) == (3, 24, 0, True, -9.25142255, 6)
    assert record.probes == cfg.marks * (1 + record.restarts) + record.steps * cfg.marks
    assert trace.epoch_seeds == [2]


# ---------------------------------------------------------------------------
# probe ledger
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS_FOR_TRACE)
def test_probe_ledger_exact(kind, ehrenfest15_spec):
    # the points that reach the kernel are counted independently of the run
    points = []

    def counting_fn(x):
        points.append(len(x))
        return ehrenfest15_spec.fn(x)

    spec = dataclasses.replace(ehrenfest15_spec, fn=counting_fn)
    cfg = SolverConfig(kind=kind, seed=23, steps_limit=30,
                       marks=8, radius=3 if kind in ("MW", "MWR") else None,
                       dither=0.01, plateau_limit=4)
    record = run_solver(cfg, spec)
    if cfg.restarts_enabled:
        assert record.restarts >= 1, "the ledger check must cover restarts"
    assert sum(points) == record.probes
    per_step = cfg.marks * cfg.radius if kind in ("MW", "MWR") else cfg.marks
    assert record.probes == cfg.marks * (1 + record.restarts) + record.steps * per_step


# ---------------------------------------------------------------------------
# the lockstep engine against the serial loop it replaced
# ---------------------------------------------------------------------------

def _neighborhood_eval_serial(marks, spec, radius, dither, rng):
    """One population's neighborhood step as the serial loop drew it: the
    rank block, then the dither block, each from its own ``uniform`` call."""
    m, p = marks.shape
    eligible = eligible_neighbors(m)
    if radius == m - 2:
        sets = eligible
    else:
        ranks = rng.uniform(size=(m, m - 2))
        sel = np.sort(np.argsort(ranks, axis=1)[:, :radius], axis=1)
        sets = eligible[np.arange(m)[:, None], sel]
    diffs = np.abs(marks[:, None, :] - marks[sets])
    if dither > 0.0:
        diffs = diffs * (1.0 + dither * rng.uniform(-1.0, 1.0, size=diffs.shape))
    cands = np.clip(spec.lower + diffs, spec.lower, spec.upper)
    raw = evaluate_batch(spec, cands.reshape(m * radius, p))
    values = raw.reshape(m, radius)
    pick = np.argmin(values, axis=1)
    rows = np.arange(m)
    return cands[rows, pick], values[rows, pick], raw


def _de_trials_serial(marks, values, cfg, spec, rng):
    """One population's DE trials as the per-seed builder drew them, kept as
    the reference of the stacked ``_de_step``: per-step scale, donor index
    block, per-vector extras, crossover positions, crossover mask,
    confinement redraws."""
    m, p = marks.shape
    strategy = int(cfg.kind[-1]) if cfg.kind.startswith("DEoF") else None
    rde = cfg.rde
    step_scale = rng.uniform(0.5, 1.0) if strategy == 5 else None
    idx = np.argsort(rng.uniform(size=(m, m)), axis=1)[:, :3]
    a, b, c = idx[:, 0], idx[:, 1], idx[:, 2]
    best = marks[int(np.argmin(values))] if strategy in (2, 3) else None
    if strategy in (None, 1):
        donors = marks[a] + rde * (marks[b] - marks[c])
    elif strategy == 2:
        donors = marks + rde * (best - marks) + rde * (marks[a] - marks[b])
    elif strategy == 3:
        scale = rde + solvers._DE_JITTER * (rng.uniform(size=(m, p)) - 0.5)
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
    out = ~np.all((donors >= spec.lower) & (donors <= spec.upper), axis=1)
    n_out = int(np.count_nonzero(out))
    if n_out:
        donors[out] = spec.lower + rng.uniform(size=(n_out, p)) * (spec.upper - spec.lower)
    return donors


def _run_solver_serial(cfg, spec, initial_marks=None):
    """The serial run loop the lockstep engine replaced, kept as its
    reference: one seed, scalar bookkeeping, one objective call per step."""
    target = spec.value_target
    plateau_limit = cfg.effective_plateau_limit if cfg.restarts_enabled else math.inf
    total_steps = probes = restarts = 0
    best = NO_BEST  # over all epochs
    epoch_seed = cfg.seed
    while True:
        rng = np.random.default_rng(epoch_seed)
        marks, values = _init_population_reference(spec, cfg.marks, cfg.uses_ruler, rng,
                                                   initial_marks if restarts == 0 else None)
        probes += len(values)
        err_prev = float(values.min()) - target
        epoch_best = NO_BEST
        plateau = 0
        while (epoch_best[0] != target and plateau < plateau_limit
               and total_steps < cfg.steps_limit):
            total_steps += 1
            if cfg.uses_ruler:
                coords, cand_values, raw = _neighborhood_eval_serial(
                    marks, spec, cfg.radius, cfg.dither, rng)
            else:
                coords = _de_trials_serial(marks, values, cfg, spec, rng)
                cand_values = raw = evaluate_batch(spec, coords)
            marks, values, epoch_best = _greedy_commit_serial(
                marks, values, coords, cand_values, epoch_best, spec.digits_target)
            probes += raw.size
            if epoch_best[0] < best[0]:
                best = epoch_best
            if cfg.restarts_enabled and epoch_best[0] != target:
                error = epoch_best[0] - target
                if error >= err_prev:
                    plateau += 1
                else:
                    plateau = 0
                    err_prev = error
        if plateau < plateau_limit or total_steps == cfg.steps_limit:
            break
        restarts += 1
        epoch_seed = int(rng.integers(1, 2 ** 31))
    return RunRecord(
        coord_best=tuple(float(x) for x in np.atleast_1d(best[1])),
        value_best=float(best[0]), agent_id=int(np.argmin(values)) + 1,
        steps=total_steps, probes=probes, restarts=restarts,
        is_censored=epoch_best[0] != target, seed=cfg.seed)


def _serial_records(cfg, spec, seeds, initial_marks=None):
    return [_run_solver_serial(dataclasses.replace(cfg, seed=seed), spec, initial_marks)
            for seed in seeds]


@functools.cache
def _target_spec(name, digits, target="oracle"):
    """The objective at ``digits`` with its oracle target, or with a target
    no seed reaches, below the minimum."""
    spec = dataclasses.replace(get_objective(name), digits_target=digits)
    value = compute_target(spec).value_target
    return spec.with_target({"oracle": value, "below": value - 1.0}[target])


_SETTING_VALUES = {
    "radius": None,  # drawn below marks - 2
    "dither": st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    "rde": st.sampled_from([0.0, 0.5, 1.0, 1.7]),
    "cr": st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    "plateau_limit": st.one_of(st.none(), st.integers(1, 6)),
}


@st.composite
def _lockstep_cases(draw):
    kind = draw(st.sampled_from(SOLVER_KINDS))
    marks = draw(st.integers(4, 12))
    settings = {key: draw(st.integers(1, marks - 2) if key == "radius"
                          else _SETTING_VALUES[key]) for key in KIND_SETTINGS[kind]}
    cfg = SolverConfig(kind=kind, seed=0, steps_limit=draw(st.integers(1, 40)),
                       marks=marks, **settings)
    # an unreachable target runs every seed, and the plateau rule, to the budget
    spec = _target_spec(*draw(st.sampled_from(
        [("ehrenfest4", 9), ("ehrenfest15", 9), ("trefethen1", 3), ("trefethen1", 6),
         ("wild2", 4), ("wild3", 4)])), draw(st.sampled_from(["oracle", "below"])))
    seeds = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))
    # every seed's first epoch starts from its own draw, or from one in-box population
    initial_marks = None
    if draw(st.booleans()):
        u = np.random.default_rng(draw(st.integers(0, 10 ** 6))).random((marks, spec.dims))
        initial_marks = spec.lower + u * (spec.upper - spec.lower)
    return cfg, spec, seeds, initial_marks


@settings(deadline=None)
@given(_lockstep_cases())
# every seed runs to the budget and restarts, so each restart must draw afresh
@example((SolverConfig(kind="MWR", seed=0, steps_limit=40, marks=6, radius=2, plateau_limit=3),
          _target_spec("ehrenfest4", 9, "below"), [2, 8, 13, 17], DEMO_MARKS))
@example((SolverConfig(kind="DEsFR", seed=0, steps_limit=40, marks=6, plateau_limit=3),
          _target_spec("ehrenfest4", 9, "below"), [2, 8, 13, 17], DEMO_MARKS))
# on a staircase a later hit can quantize to the run's best: the record keeps
# the coord that first reached it
@example((SolverConfig(kind="DEoF3", seed=0, steps_limit=10, marks=4),
          _target_spec("ehrenfest4", 9), [0], None))
# every seed's last step is flat, which fills its counter: the epoch that
# would follow never starts, so it adds no restart and no probes
@example((SolverConfig(kind="MWR", seed=0, steps_limit=10, marks=6, radius=2, plateau_limit=1),
          _target_spec("ehrenfest4", 9, "below"), [2, 8, 13, 17], None))
# at full radius with no dither a step's draw block is empty and draws
# nothing, so MWR draws each restart's seed from an untouched stream
@example((SolverConfig(kind="MW", seed=0, steps_limit=40, marks=6, radius=4, dither=0.0),
          _target_spec("wild2", 4, "below"), [2, 8, 13, 17], None))
@example((SolverConfig(kind="MWR", seed=0, steps_limit=40, marks=6, radius=4, dither=0.0,
                       plateau_limit=2),
          _target_spec("wild2", 4, "below"), [2, 8, 13, 17], None))
def test_lockstep_records_equal_the_serial_reference(case):
    # a restart draws its population afresh: initial_marks reaches the first epoch only
    cfg, spec, seeds, initial_marks = case
    assert (run_seeds(cfg, spec, seeds, initial_marks)
            == _serial_records(cfg, spec, seeds, initial_marks))


def test_lockstep_one_seed_passes_at_step_one_while_the_others_run_on(ehrenfest4_spec):
    cfg = SolverConfig(kind="MWR", seed=1, steps_limit=100, marks=6, radius=2)
    seeds = [2, 8, 13, 17]  # the first row leaves the stack after step 1
    records = run_seeds(cfg, ehrenfest4_spec, seeds)
    assert [(r.seed, r.steps, r.restarts) for r in records] == [
        (2, 1, 0), (8, 23, 3), (13, 6, 0), (17, 20, 3)]
    assert records == _serial_records(cfg, ehrenfest4_spec, seeds)


def test_lockstep_restart_lands_mid_chunk(ehrenfest4_spec):
    cfg = SolverConfig(kind="MWR", seed=1, steps_limit=100, marks=6, radius=2)
    seeds = [12, 8, 17, 19, 20]
    trace = WalkTrace(dataclasses.replace(cfg, seed=8), ehrenfest4_spec)
    run_solver(dataclasses.replace(cfg, seed=8), ehrenfest4_spec, observe=trace)
    first_restart = next(step for step, restart, _values in trace.steps if restart == 1)
    records = run_seeds(cfg, ehrenfest4_spec, seeds)
    # seed 8 restarts while every seed of the chunk still runs
    assert 1 < first_restart < min(r.steps for r in records)
    assert records[1].restarts == 3 and all(r.restarts for r in records)
    assert records == _serial_records(cfg, ehrenfest4_spec, seeds)


def test_an_infinite_target_is_refused():
    # the plateau rule measures each epoch's error from the target: at -inf
    # the first error would be -inf - -inf, NaN, so no such spec is built
    def neg_inf_at_1(points):
        x = points[:, 0]
        return np.where(x <= 1.0, -np.inf, np.sqrt(x))

    spec = ObjectiveSpec(name="neg_inf_at_1", dims=1, lower=[1.0], upper=[17.0],
                         fn=neg_inf_at_1)
    for value in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="value_target must be finite"):
            spec.with_target(value)
        with pytest.raises(ValueError, match="value_target must be finite"):
            dataclasses.replace(spec, value_target=value)


def test_lockstep_one_seed_equals_a_hundred_on_the_seeds_they_share(ehrenfest4_spec):
    cfg = SolverConfig(kind="MWR", seed=1, steps_limit=100, marks=6, radius=2)
    hundred = run_seeds(cfg, ehrenfest4_spec, list(range(1, 101)))
    assert sum(r.restarts > 0 for r in hundred) > 10
    assert len({r.steps for r in hundred}) > 10  # seeds leave the stack at many steps
    assert hundred == [run_solver(dataclasses.replace(cfg, seed=seed), ehrenfest4_spec)
                       for seed in range(1, 101)]


def test_a_seed_larger_than_the_step_budget_runs_alone(ehrenfest15_spec):
    cfg = SolverConfig(kind="MW", seed=1, steps_limit=1, marks=1024, radius=1000)
    assert cfg.marks * cfg.radius > BATCH_POINTS
    plan = ExperimentPlan(spec=ehrenfest15_spec, configs=[cfg], sample_size=2)
    assert list(_seed_chunks(plan)) == [(0, [1]), (0, [2])]
    (records,) = run_experiment(plan)
    assert records == _serial_records(cfg, ehrenfest15_spec, [1, 2])
    assert all(r.probes == 1024 + 1024 * 1000 for r in records)


def test_observe_watches_one_seed_only(ehrenfest4_spec):
    trace = WalkTrace(_cfg(), ehrenfest4_spec)
    with pytest.raises(ValueError, match="one-seed"):
        run_seeds(_cfg(), ehrenfest4_spec, [1, 2], observe=trace)


@settings(deadline=None)
@given(st.sampled_from(["ehrenfest4", "ehrenfest15", "trefethen1", "trefethen3", "wild2"]),
       st.integers(4, 12), st.booleans(), st.sampled_from([None, "inside", "outside"]),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=5))
def test_stacked_epoch_start_equals_one_population_inits(name, m, anchored, initial, seeds):
    # each row is the population a lone init makes, the one objective call
    # gives each row its lone values, and each generator ends where the lone
    # init leaves it, also when initial_marks is refused
    spec = get_objective(name)
    initial_marks = None
    if initial is not None:
        u = np.random.default_rng(seeds[0] + 1).random((m, spec.dims))
        initial_marks = spec.lower + u * (spec.upper - spec.lower)
        if initial == "outside":
            initial_marks[m // 2, -1] = (math.nan, spec.upper[-1] * 2.0 + 1.0)[seeds[0] % 2]
    stacked = [np.random.default_rng(seed) for seed in seeds]
    alone = [np.random.default_rng(seed) for seed in seeds]
    if initial == "outside":
        with pytest.raises(ValueError, match="initial_marks"):
            _start_epochs(spec, m, anchored, stacked, initial_marks)
        for rng in alone:
            with pytest.raises(ValueError, match="initial_marks"):
                _init_population_reference(spec, m, anchored, rng, initial_marks)
    else:
        marks, values = _start_epochs(spec, m, anchored, stacked, initial_marks)
        assert marks.shape == (len(seeds), m, spec.dims) and values.shape == (len(seeds), m)
        for k, rng in enumerate(alone):
            want_marks, want_values = _init_population_reference(spec, m, anchored, rng,
                                                                  initial_marks)
            assert marks[k].tobytes() == want_marks.tobytes()
            assert values[k].tobytes() == want_values.tobytes()
    for got, want in zip(stacked, alone):
        assert got.bit_generator.state == want.bit_generator.state


class _KeepingObserver:
    """An observer that keeps every array it is handed, each with a copy
    taken when it was handed."""

    def __init__(self):
        self.kept = []

    def epoch(self, seed, marks, values):
        self.kept += [(a, a.copy()) for a in (marks, values)]

    def step(self, step, restart, raw, marks, values, best):
        self.kept += [(a, a.copy()) for a in (raw, marks, values)]


class _ScribblingObserver:
    """An observer that writes into every array it is handed."""

    def epoch(self, seed, marks, values):
        marks[:] = marks[::-1]
        values[:] = -1.0

    def step(self, step, restart, raw, marks, values, best):
        self.epoch(None, marks, values)
        raw[:] = math.nan


@pytest.mark.parametrize("kind", ["MWR", "DEsFR", "DEoF2"])
def test_arrays_handed_to_observe_stay_put(kind, ehrenfest15_spec):
    # restarts replace rows of the stack; the arrays observe saw keep theirs,
    # and an observer that writes into them leaves the run as it was (DEoF2
    # reads its best member from the values)
    cfg = SolverConfig(kind=kind, seed=3, steps_limit=40, marks=6,
                       radius=2 if kind == "MWR" else None, plateau_limit=2)
    observer = _KeepingObserver()
    record = run_solver(cfg, ehrenfest15_spec, observe=observer)
    assert record.restarts >= 2 or not cfg.restarts_enabled
    assert record.steps > 1
    assert all(a.tobytes() == copy.tobytes() for a, copy in observer.kept)
    assert run_solver(cfg, ehrenfest15_spec) == record
    assert run_solver(cfg, ehrenfest15_spec, observe=_ScribblingObserver()) == record


def test_record_keeps_the_coord_that_first_reached_its_best(ehrenfest4_spec):
    # on a staircase a later candidate below the running best can quantize to
    # the same value: a mark moves to its coord, the record does not
    cfg = SolverConfig(kind="DEoF3", seed=0, steps_limit=10, marks=4)
    steps = []

    class Watch:
        def epoch(self, seed, marks, values):
            pass

        def step(self, step, restart, raw, marks, values, best):
            steps.append((marks.copy(), values.copy()))

    record = run_solver(cfg, ehrenfest4_spec, observe=Watch())
    digits = ehrenfest4_spec.digits_target
    at_best = [{tuple(mark) for mark, value in zip(marks, quantize(values, digits))
                if value == record.value_best} for marks, values in steps]
    first = next(coords for coords in at_best if coords)
    assert any(coords - first for coords in at_best)
    assert record.coord_best in first


def _count_calls(monkeypatch, module, name, counts):
    """Replace ``module.name`` by a wrapper that counts its calls in
    ``counts[name]``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("cfg", [
    SolverConfig(kind="MW", seed=1, steps_limit=20, marks=6, radius=4),
    SolverConfig(kind="DEsFR", seed=1, steps_limit=20, marks=6),
], ids=["MW", "DEsFR"])
def test_a_kernel_nan_ranks_last(cfg):
    # NaN below 3, where MW anchors its first mark: were the NaN kept, that
    # mark could never accept a candidate, agentId could name a NaN mark and
    # the trace would hold a row its own reader refuses
    def nan_below_3(points):
        x = points[:, 0]
        return np.where(x < 3.0, np.nan, np.sqrt(x) + 1.43)

    spec = ObjectiveSpec(name="nan_below_3", dims=1, lower=[1.0], upper=[17.0],
                         fn=nan_below_3).with_target(0.0)
    record, trace = _traced(cfg, spec)
    final = trace.steps[-1][2]
    assert not np.isnan(final).any()
    assert final[record.agent_id - 1] == final.min()
    trace_wide_text(io.StringIO(trace_to_text(trace, record)))


def test_no_seeds_give_no_records(ehrenfest4_spec, monkeypatch):
    # an empty stack has nothing to step: a loop that stepped it anyway
    # fails on the fourth objective call instead of running forever
    counts = {"evaluate_batch": 0}

    def evaluate(spec, points):
        counts["evaluate_batch"] += 1
        assert counts["evaluate_batch"] <= 3, "stepped an empty stack"
        return evaluate_batch(spec, points)

    monkeypatch.setattr(solvers, "evaluate_batch", evaluate)
    monkeypatch.setattr(ruler, "evaluate_batch", evaluate)
    for cfg in (_small_mwr(seed=1, steps_limit=50), SolverConfig(kind="DEsFR", seed=1,
                                                                 steps_limit=50, marks=6)):
        assert run_seeds(cfg, ehrenfest4_spec, []) == []


@pytest.mark.parametrize("cfg", [
    SolverConfig(kind="MWR", seed=1, steps_limit=40, marks=6, radius=2, plateau_limit=2),
    SolverConfig(kind="DEsFR", seed=1, steps_limit=40, marks=6, plateau_limit=2),
], ids=["MWR", "DEsFR"])
def test_a_step_starts_every_restarting_seed_in_one_call(cfg, ehrenfest15_spec, monkeypatch):
    # the steps each seed restarts on, read from its lone trace
    seeds = list(range(1, 9))
    restart_steps = set()
    for seed in seeds:
        _record, trace = _traced(dataclasses.replace(cfg, seed=seed), ehrenfest15_spec)
        restart_steps.update(step for (step, epoch, _v), (_s, next_epoch, _w)
                             in zip(trace.steps, trace.steps[1:]) if next_epoch > epoch)
    counts = {"evaluate_batch": 0, "_greedy_commit": 0}
    _count_calls(monkeypatch, solvers, "evaluate_batch", counts)
    _count_calls(monkeypatch, ruler, "evaluate_batch", counts)
    _count_calls(monkeypatch, solvers, "_greedy_commit", counts)
    records = run_seeds(cfg, ehrenfest15_spec, seeds)
    steps = max(r.steps for r in records)
    # several seeds restart on one step
    assert sum(r.restarts for r in records) > len(restart_steps) > 1
    # the first epochs, each step's proposals, and each step that restarts seeds
    assert counts["evaluate_batch"] == 1 + steps + len(restart_steps)
    assert counts["_greedy_commit"] == steps
    assert records == _serial_records(cfg, ehrenfest15_spec, seeds)


# ---------------------------------------------------------------------------
# differential evolution pieces
# ---------------------------------------------------------------------------

def _de_trials_one(marks, values, cfg, spec, rng):
    """The trials ``_de_step`` proposes for one population: row 0 of a
    one-seed stack."""
    return _de_step(marks[None], values[None], cfg, spec, [rng])[0][0]


@settings(deadline=None)
@given(st.sampled_from(SOLVER_KINDS[2:]), st.integers(4, 12), st.sampled_from([0.0, 1.0, 1.7]),
       st.sampled_from([0.0, 0.3, 1.0]),
       st.sampled_from(["ehrenfest15", "trefethen1", "wild2", "wild3"]),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=5))
def test_stacked_trials_equal_the_serial_builder(kind, m, rde, cr, name, seeds):
    # each row of the stack is the trial block a lone run builds, and each
    # generator ends where the lone run leaves it
    spec = get_objective(name)
    cfg = SolverConfig(kind=kind, seed=0, steps_limit=5, marks=m, rde=rde, cr=cr)
    init = np.random.default_rng(seeds[0])
    marks = spec.lower + init.random((len(seeds), m, spec.dims)) * (spec.upper - spec.lower)
    values = np.stack([evaluate_batch(spec, x) for x in marks])
    stacked = [np.random.default_rng(seed) for seed in seeds]
    alone = [np.random.default_rng(seed) for seed in seeds]
    got, cand_values, raw = _de_step(marks, values, cfg, spec, stacked)
    assert cand_values is raw
    for k, rng in enumerate(alone):
        want = _de_trials_serial(marks[k], values[k], cfg, spec, rng)
        assert got[k].tobytes() == want.tobytes()
        assert raw[k].tobytes() == evaluate_batch(spec, want).tobytes()
        assert stacked[k].random() == rng.random()


def test_de_step_sorts_one_rank_block_at_a_time(ehrenfest15_spec):
    # four stacked (1024, 1024) rank blocks and their argsort indices would
    # take 64 MB; the builder holds one block at a time
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=1, marks=1024)
    tracemalloc.start()
    try:
        records = run_seeds(cfg, ehrenfest15_spec, [1, 2, 3, 4])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.steps for r in records] == [1, 1, 1, 1]
    assert peak < 32 << 20


def test_de_simple_trials_degenerate_scale():
    spec = get_objective("ehrenfest4")
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=5,
                       marks=4, rde=0.0)
    marks = np.array([[2.0], [5.0], [9.0], [14.0]])
    trials = _de_trials_one(marks, spec.fn(marks), cfg, spec, np.random.default_rng(0))
    assert all(t in marks[:, 0] for t in trials[:, 0])


def test_de_simple_trials_confinement_redraws_inside_box():
    spec = get_objective("ehrenfest4")
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=5,
                       marks=4, rde=1.0)
    marks = np.array([[1.0], [2.0], [4.0], [10.0]])
    rng = np.random.default_rng(1)
    for _ in range(200):
        trials = _de_trials_one(marks, spec.fn(marks), cfg, spec, rng)
        assert np.all(trials >= spec.lower) and np.all(trials <= spec.upper)


def test_confine_redraws_a_nan_row_and_keeps_rows_inside():
    # at rde = 0 a donor is its base row, or NaN when its triple holds a NaN
    # row; the NaN rows are redrawn inside the box, the others kept
    spec = dataclasses.replace(get_objective("wild2"), lower=np.zeros(2), upper=np.ones(2))
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=5, marks=6, rde=0.0)
    marks = np.array([[0.5, 0.5], [math.nan, 0.5], [0.0, 1.0], [0.5, math.nan],
                      [0.25, 0.75], [1.0, 0.0]])
    idx = np.argsort(np.random.default_rng(0).random((6, 6)), axis=1)[:, :3]  # the rank block
    nan_rows = np.isnan(marks[idx]).any(axis=(1, 2))
    assert nan_rows.any() and not nan_rows.all()
    out = _de_trials_one(marks, np.zeros(6), cfg, spec, np.random.default_rng(0))
    assert np.all((out >= spec.lower) & (out <= spec.upper))
    assert out[~nan_rows].tobytes() == marks[idx[~nan_rows, 0]].tobytes()


def test_de_population_collapse_only_confinement_escapes():
    spec = get_objective("wild1")
    cfg = SolverConfig(kind="DEsF", seed=1, steps_limit=5, marks=6)
    marks = np.full((6, 1), 3.25)
    trials = _de_trials_one(marks, spec.fn(marks), cfg, spec, np.random.default_rng(0))
    assert np.all(trials == 3.25)


def test_de_strategy_trials_stay_in_bounds():
    spec = get_objective("wild2")
    rng_init = np.random.default_rng(8)
    marks = spec.lower + rng_init.uniform(size=(12, 2)) * (spec.upper - spec.lower)
    values = np.asarray(spec.fn(marks))
    for strategy in range(1, 7):
        cfg = SolverConfig(kind=f"DEoF{strategy}", seed=1,
                           steps_limit=5, marks=12)
        trials = _de_trials_one(marks, values, cfg, spec, np.random.default_rng(3))
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
    trials = _de_trials_one(marks, values, cfg, spec, np.random.default_rng(5))
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
    trials = _de_trials_one(marks, values, cfg, spec, np.random.default_rng(6))
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
    record, trace = _traced(cfg, ehrenfest15_spec)
    assert record.restarts == len(trace.epoch_seeds) - 1
    if record.is_censored:
        assert record.steps == 50


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def test_trace_export_format(ehrenfest4_spec):
    cfg = SolverConfig(kind="MW", seed=1, steps_limit=50,
                       marks=6, radius=4, dither=0.0)
    record, trace = _traced(cfg, ehrenfest4_spec, initial_marks=DEMO_MARKS)
    text = trace_to_text(trace, record)
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
    record, trace = _traced(cfg, wild1_spec)
    assert record.is_censored
    assert trace_to_text(trace, record).splitlines()[-1] == "# first_passage=none"


_trace_steps = st.lists(
    st.tuples(st.integers(1, 10 ** 6), st.integers(0, 100),
              st.lists(st.floats(allow_nan=False), min_size=1, max_size=5)),
    max_size=6, unique_by=lambda s: (s[0], s[1]))


def _written_trace(steps, first_passage, epoch_seeds):
    """A trace of ``steps`` exported with the footer of a record that passed
    at ``first_passage = (step, agent_id)``, or is censored for None."""
    trace = WalkTrace(_cfg(), get_objective("ehrenfest4"))
    trace.header = ("objective = x", "solver = MW04")
    trace.epoch_seeds = epoch_seeds
    for step, restart, values in steps:
        trace.steps.append((step, restart, np.array(values)))
    step, agent_id = first_passage or (1, 1)
    record = RunRecord(coord_best=(1.0,), value_best=0.0, agent_id=agent_id, steps=step,
                       probes=0, restarts=0, is_censored=first_passage is None, seed=0)
    return trace_to_text(trace, record)


_first_passage = st.none() | st.tuples(st.integers(1, 10 ** 6), st.integers(1, 5))
_epoch_seeds = st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=3)


@given(steps=_trace_steps, first_passage=_first_passage, epoch_seeds=_epoch_seeds)
def test_trace_parse_roundtrip(steps, first_passage, epoch_seeds):
    # the pivot holds each step's repr(float(v)) in its agent column, after
    # the comment lines in order
    lines = _written_trace(steps, first_passage, epoch_seeds).splitlines()
    if not steps:
        with pytest.raises(ValueError, match="no data rows"):
            trace_wide_text(lines)
        return
    footer = ("# first_passage=none" if first_passage is None else
              f"# first_passage_step={first_passage[0]},"
              f"first_passage_agentId={first_passage[1]}")
    n_agents = max(len(values) for _, _, values in steps)
    expected = ["# objective = x", "# solver = MW04",
                f"# epoch_seeds = {','.join(map(str, epoch_seeds))}", footer,
                "step,restart," + ",".join(f"agent{a}" for a in range(1, n_agents + 1))]
    for step, restart, values in sorted(steps, key=lambda s: s[:2]):
        cells = [repr(float(v)) for v in values] + [""] * (n_agents - len(values))
        expected.append(f"{step},{restart}," + ",".join(cells))
    assert trace_wide_text(lines).splitlines() == expected


@pytest.mark.parametrize("row", ["0,0,1,1.0", "1,-1,1,1.0", "1,0,0,1.0",
                                 "1,0,1,abc", "1,0,1", "x,0,1,1.0", "1,0,1025,1.0",
                                 "1,0,1,nan"])
def test_parse_trace_rejects_meaningless_rows(row):
    with pytest.raises(ValueError, match="line 3"):
        trace_wide_text(["# solver = MW04", "step,restart,agentId,value", row])


@pytest.mark.parametrize("value", ["1_0", " 1.0", "1", "1e3", "+1.0", "infinity", "-0",
                                   "1.00", "0.1000000000000000055"])
def test_trace_wide_text_refuses_a_value_not_written_as_its_repr(value):
    # trace_to_text writes repr(float(v)); any other spelling is refused, not copied
    with pytest.raises(ValueError, match="line 2: .* written as its float's repr"):
        trace_wide_text(["step,restart,agentId,value", f"1,0,1,{value}"])


def test_trace_wide_text_keeps_every_repr_it_writes():
    values = ["-0.0", "inf", "-inf", "1e+300", "5e-324", "0.1", "-22934.6986"]
    rows = [f"1,0,{agent},{value}" for agent, value in enumerate(values, start=1)]
    assert trace_wide_text(rows).splitlines()[1] == "1,0," + ",".join(values)


def test_parse_trace_accepts_the_largest_population():
    # agentId is bounded by ruler.MAX_MARKS, so the pivot stays small
    out = trace_wide_text(["step,restart,agentId,value", "1,0,1024,1.0"]).splitlines()
    assert out == ["step,restart," + ",".join(f"agent{a}" for a in range(1, 1025)),
                   "1,0," + "," * 1023 + "1.0"]


def test_parse_trace_rejects_a_repeated_row_key():
    lines = ["step,restart,agentId,value", "1,0,1,1.0", "1,1,1,1.0", "1,0,2,3.0",
             "1,0,1,2.0"]
    with pytest.raises(ValueError, match=r"line 5: .*'1,0,1,2.0' repeats"):
        trace_wide_text(lines)


_trace_field = st.one_of(st.integers(-3, 3).map(str), st.floats().map(repr),
                         st.text(max_size=4))
_trace_text = st.one_of(
    st.text(),
    st.lists(st.one_of(st.lists(_trace_field, min_size=3, max_size=5).map(",".join),
                       st.text(max_size=8)), max_size=6).map("\n".join))


@given(_trace_text)
def test_parse_trace_on_arbitrary_text(text):
    # arbitrary text either pivots into meaningful rows or raises ValueError
    try:
        out = trace_wide_text(text.splitlines()).splitlines()
    except ValueError:
        return
    n_comments = sum(line.startswith("#") for line in out)
    assert out[n_comments].startswith("step,restart,agent1")
    for row in out[n_comments + 1:]:
        step, restart, *values = row.split(",")
        assert int(step) >= 1 and int(restart) >= 0
        assert not any(math.isnan(float(v)) for v in values if v)


def _wide_text_reference(lines):
    """The two-pass reader the merged ``trace_wide_text`` replaced: check
    every row into a list, then regroup the list by (step, restart)."""
    comments, rows = [], {}
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            comments.append(line)
        elif line and not line.startswith("step,"):
            try:
                step, restart, agent, value = line.split(",")
                row = (int(step), int(restart), int(agent), value)
                is_nan = math.isnan(float(value))
            except ValueError:
                raise ValueError(f"line {number}: malformed trace row {line!r} "
                                 "(expected step,restart,agentId,value)") from None
            if (row[0] < 1 or row[1] < 0 or not 1 <= row[2] <= MAX_MARKS or is_nan
                    or repr(float(value)) != value):
                raise ValueError(f"line {number}: trace row {line!r} needs step >= 1, "
                                 f"restart >= 0, agentId in [1, {MAX_MARKS}] and a "
                                 "value that is not NaN, written as its float's repr")
            if row[:3] in rows:
                raise ValueError(f"line {number}: trace row {line!r} repeats an earlier "
                                 "(step, restart, agentId)")
            rows[row[:3]] = row
    rows = list(rows.values())
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


def _text_or_error(reader, lines):
    try:
        return reader(lines)
    except ValueError as exc:
        return f"ValueError: {exc}"


# small step and restart ranges, so written traces repeat rows; NaN values too
_colliding_steps = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 2),
              st.lists(st.floats(), min_size=1, max_size=5)), max_size=6)


@given(st.one_of(
    _trace_text.map(lambda text: text.splitlines(keepends=True)),
    st.builds(_written_trace, st.one_of(_trace_steps, _colliding_steps),
              _first_passage, _epoch_seeds).map(str.splitlines)))
def test_trace_wide_text_matches_the_reference(lines):
    # the one-pass reader gives the same text, or the same error, as the
    # two-pass reference on arbitrary text and on written traces
    assert _text_or_error(trace_wide_text, lines) == _text_or_error(_wide_text_reference, lines)


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
