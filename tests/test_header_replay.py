"""Every output's ``#`` lines replay the configuration that wrote it.

The header is read back here, in the test only: the objective with its
bounds, the target with its digits, and one ``solver`` line per config.
Rerunning what the header names must rewrite the file byte for byte, so a
setting that a header leaves out fails these tests.
"""

import re
import string
from ast import literal_eval
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiwalk.experiments import (ExperimentPlan, run_experiment, summarize_experiment,
                                   write_bargraph_csv, write_runs_csv, write_summary_csv)
from multiwalk.objectives import get_objective, objective_names
from multiwalk.ruler import MIN_MARKS
from multiwalk.solvers import (KIND_SETTINGS, SOLVER_KINDS, SolverConfig, WalkTrace, run_solver,
                               trace_to_text)
from multiwalk.targets import compute_target

_OBJECTIVE = re.compile(r"# objective = (\S+) \(p = (\d+), bounds = \[(.*)\] \.\. \[(.*)\]\)")
_TARGET = re.compile(r"# valueTarget = (\S+) \(digitsTarget = (\d+)\)")
_SOLVER = re.compile(r"# solver (\S+): kind=(\S+) (.*) digitsTarget=(\d+)")
_KEYS = {"stepsLimit": "steps_limit", "plateauLimit": "plateau_limit"}


def _replay_header(lines, seed):
    """The spec and the configs, all at ``seed``, that ``lines`` name."""
    spec, configs = None, []
    for line in lines:
        if match := _OBJECTIVE.fullmatch(line):
            name, dims, lower, upper = match.groups()
            spec = replace(get_objective(name), lower=literal_eval(f"[{lower}]"),
                           upper=literal_eval(f"[{upper}]"))
            assert spec.dims == int(dims)
        elif match := _TARGET.fullmatch(line):
            spec = replace(spec, value_target=float(match[1]), digits_target=int(match[2]))
        elif match := _SOLVER.fullmatch(line):
            label, kind, settings, digits = match.groups()
            assert int(digits) == spec.digits_target
            kw = {_KEYS.get(key, key): literal_eval(value)
                  for key, value in (item.split("=") for item in settings.split())}
            configs.append(SolverConfig(kind=kind, seed=seed, label=label, **kw))
    return spec, configs


def _header_value(lines, key):
    (value,) = [line.split(" = ")[1] for line in lines if line.startswith(f"# {key} = ")]
    return value


@pytest.fixture(scope="module")
def narrow_trefethen1():
    # bounds and digits that differ from the registry's
    spec = replace(get_objective("trefethen1"), lower=[-0.75], upper=[0.5], digits_target=6)
    return spec.with_target(compute_target(spec).value_target)


@pytest.mark.parametrize("cfg", [
    SolverConfig(kind="MWR", seed=11, steps_limit=60, marks=8, radius=6, dither=0.25,
                 plateau_limit=3, label="walker"),
    SolverConfig(kind="DEoF3", seed=4, steps_limit=40, marks=10, rde=0.7, cr=0.5),
    SolverConfig(kind="DEsFR", seed=9, steps_limit=80, marks=6, rde=0.8, plateau_limit=2),
], ids=lambda cfg: cfg.kind)
def test_walk_trace_header_replays_the_run(cfg, narrow_trefethen1):
    _assert_trace_replays(cfg, narrow_trefethen1)


def _assert_trace_replays(cfg, spec):
    trace = WalkTrace(cfg, spec)
    record = run_solver(cfg, spec, observe=trace)
    text = trace_to_text(trace, record)
    lines = text.splitlines()
    seed = int(_header_value(lines, "epoch_seeds").split(",")[0])
    spec, (replayed,) = _replay_header(lines, seed)
    again = WalkTrace(replayed, spec)
    record = run_solver(replayed, spec, observe=again)
    assert trace_to_text(again, record) == text


def _write_all(tmp_path, prefix, plan):
    summaries = summarize_experiment(plan, results := run_experiment(plan))
    paths = [tmp_path / f"{prefix}_{part}.csv" for part in ("runs", "summary", "bars")]
    write_runs_csv(paths[0], plan, results)
    write_summary_csv(paths[1], plan, summaries)
    write_bargraph_csv(paths[2], plan, summaries)
    return [path.read_bytes() for path in paths]


def _assert_plan_replays(tmp_path, plan):
    written = _write_all(tmp_path, "first", plan)
    lines = written[0].decode().splitlines()
    spec, configs = _replay_header(lines, int(_header_value(lines, "baseSeed")))
    replayed = ExperimentPlan(spec=spec, configs=configs,
                              sample_size=int(_header_value(lines, "sampleSize")))
    assert _write_all(tmp_path, "again", replayed) == written


def test_runs_csv_header_replays_the_plan(tmp_path, narrow_trefethen1):
    common = dict(seed=42, steps_limit=50)
    _assert_plan_replays(tmp_path, ExperimentPlan(spec=narrow_trefethen1, sample_size=3, configs=[
        SolverConfig(kind="MWR", marks=12, radius=8, dither=0.02, plateau_limit=5,
                     label="A", **common),
        SolverConfig(kind="DEoF3", marks=8, rde=0.7, cr=0.5, **common),
        SolverConfig(kind="DEsF", **common)]))


_unit = st.floats(0.0, 1.0)
_label = st.text(string.ascii_letters + string.digits + "_-+.:", min_size=1, max_size=8)


@st.composite
def _configs(draw, seed, steps_limit):
    """One config of a drawn kind, drawing only the settings that kind reads."""
    kind = draw(st.sampled_from(SOLVER_KINDS))
    marks = draw(st.integers(MIN_MARKS, 12))
    setting = {"radius": st.integers(1, marks - 2), "dither": _unit, "rde": st.floats(-2.0, 2.0),
               "cr": _unit, "plateau_limit": st.none() | st.integers(1, 8)}
    return SolverConfig(kind=kind, seed=seed, steps_limit=steps_limit, marks=marks,
                        label=draw(st.none() | _label),
                        **{key: draw(setting[key]) for key in KIND_SETTINGS[kind]})


@st.composite
def _plans(draw):
    """A plan on a sub-box of a registered objective's bounds at digits 1-12.
    Any quantized target will do, since the replay reads it from the header,
    so the value at the box's lower corner stands in for an oracle run."""
    base = get_objective(draw(st.sampled_from(objective_names())))
    corners = [sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
               for lo, hi in zip(base.lower, base.upper)]
    spec = replace(base, lower=[lo for lo, _ in corners], upper=[hi for _, hi in corners],
                   digits_target=draw(st.integers(1, 12)))
    spec = spec.with_target(float(spec.fn(spec.lower[None])[0]))
    configs = st.lists(_configs(draw(st.integers(0, 2 ** 31 - 1)), draw(st.integers(1, 30))),
                       min_size=1, max_size=3, unique_by=lambda cfg: cfg.solver_label)
    return ExperimentPlan(spec=spec, configs=draw(configs), sample_size=draw(st.integers(1, 3)))


@settings(max_examples=25, deadline=None)
@given(plan=_plans())
def test_drawn_headers_replay_their_outputs(tmp_path_factory, plan):
    _assert_plan_replays(tmp_path_factory.mktemp("replay"), plan)
    _assert_trace_replays(plan.configs[0], plan.spec)
