"""The benchmark's layer tracer (benchmarks/layers.py) wraps package
functions by their module-global names; these tests keep those names live."""

import functools
import importlib.util
import os
import sys

import multiwalk
import multiwalk.cli  # noqa: F401  (the tracer patches every package module)
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
