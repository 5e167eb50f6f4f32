"""The benchmark's layer tracer (benchmarks/layers.py) wraps package
functions by their module-global names; these tests keep those names live."""

import functools
import importlib.util
import os
import sys

import multiwalk
import multiwalk.cli  # noqa: F401  (the tracer patches every package module)
from multiwalk.objectives import get_objective
from multiwalk.solvers import SolverConfig, run_solver

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "layers.py")


@functools.cache
def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_module_globals():
    layers = _layers()
    for mod_name in layers.PACKAGE_MODULES:
        assert hasattr(multiwalk, mod_name), mod_name
    for mod_name, fn_name in layers.TRACED_FUNCTIONS:
        module = getattr(multiwalk, mod_name)
        assert callable(vars(module).get(fn_name)), f"{mod_name}.{fn_name}"


def test_traced_mwr_run_records_step_spans(ehrenfest15_spec):
    cfg = SolverConfig(kind="MWR", seed=3, steps_limit=20,
                       marks=8, radius=4)
    untraced = run_solver(cfg, ehrenfest15_spec)
    with _layers().Tracer(multiwalk) as tracer:
        traced = multiwalk.solvers.run_solver(cfg, ehrenfest15_spec)
    assert traced == untraced
    stats = tracer.summary()
    assert stats["solvers.run_solver"].calls == 1
    assert stats["solvers.mw_step"].calls == traced.steps
    assert stats["ruler.neighborhood_eval"].calls == traced.steps
    assert stats["solvers.mw_step"].self_s > 0
    # after uninstall the package calls the plain functions again
    assert not hasattr(multiwalk.solvers.mw_step, "__wrapped__")


def test_traced_oracle_counts_the_separable_base_points():
    # wild2's target is wild1's over wild2's interval, in one compute_target
    # call; wild1's kernel is reached through the patched targets.get_objective:
    # one 40001-point coarse scan and 60 rounds of 33 points around 8 seeds
    with _layers().Tracer(multiwalk) as tracer:
        rec = multiwalk.targets.compute_target(get_objective("wild2"))
    assert rec.value_target == 67.4677347
    stats = tracer.summary()
    assert stats["targets.compute_target"].calls == 1
    assert stats["targets.grid_refine_minimum"].calls == 1
    assert stats["objectives.fn"].calls == 1 + 8 * 60
    assert tracer.counts["objectives.fn.points"] == 40001 + 8 * 60 * 33


def test_traced_oracle_counts_the_chain_base_points():
    # trefethen3 is scanned as trefethen2 pairs, reached through the patched
    # targets.get_objective.  Coarse 401^3 grid: one 401x401 tail grid plus
    # one 1x401 head row per slab (401 slabs of one row).  Refinement: 8
    # seeds x 60 rounds of an 11^3 grid in one slab, each an 11x11 tail and an
    # 11x11 head.  Calls 1 + 401 + 480 * 2; points 2 * 401^2 + 480 * 2 * 11^2.
    with _layers().Tracer(multiwalk) as tracer:
        rec = multiwalk.targets.compute_target(get_objective("trefethen3"))
    assert rec.value_target == -5.74309093
    stats = tracer.summary()
    assert stats["targets.compute_target"].calls == 1
    assert stats["targets.grid_refine_minimum"].calls == 1
    assert stats["objectives.fn"].calls == 1 + 401 + 8 * 60 * 2
    assert tracer.counts["objectives.fn.points"] == 2 * 401 ** 2 + 8 * 60 * 2 * 11 ** 2
