"""The benchmark's layer tracer (benchmarks/layers.py) wraps package
functions by their module-global names; these tests keep those names live."""

import csv
import functools
import importlib.util
import os
import sys

import multiwalk
import multiwalk.cli  # noqa: F401  (the tracer patches every package module)
from multiwalk.solvers import SolverConfig, run_solver
from test_targets import _counting_pairs

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
    # the tracer's probe count, taken at evaluate_batch, is the run's ledger
    assert tracer.counts["objectives.evaluate_batch.probes"] == traced.probes
    # after uninstall the package calls the plain functions again
    assert not hasattr(multiwalk.solvers.mw_step, "__wrapped__")


def test_traced_oracle_counts_the_separable_base_points():
    # wild2's target is its 1-D term's over wild2's interval, in one
    # compute_target call; wild2 is fetched through the patched
    # targets.get_objective, as the CLI fetches it through cli's, so its kernel
    # is counted: one 40001-point coarse scan, then 60 lockstep rounds, each
    # one call for the 33-point windows of all 8 seeds
    with _layers().Tracer(multiwalk) as tracer:
        rec = multiwalk.targets.compute_target(multiwalk.targets.get_objective("wild2"))
    assert rec.value_target == 67.4677347
    stats = tracer.summary()
    assert stats["targets.compute_target"].calls == 1
    assert stats["targets.grid_refine_minimum"].calls == 1
    assert stats["objectives.fn"].calls == 3 + 60
    assert tracer.counts["objectives.fn.points"] == 40001 + 8 * 60 * 33


def test_traced_and_untraced_oracle_reach_the_wild_term_with_the_same_points(tmp_path,
                                                                            monkeypatch):
    # the tracer hands each fetched objective a fresh kernel wrapper, so its
    # counts describe the untraced command only if no scan depends on the
    # kernel object: wild1, wild2 and wild3 each scan the 1-D term
    points, wild_term = [], multiwalk.objectives._wild_term

    def counted(t):
        points.append(t.size)
        return wild_term(t)
    monkeypatch.setattr(multiwalk.objectives, "_wild_term", counted)
    monkeypatch.chdir(tmp_path)
    argv = ["oracle", "--of", "wild1,wild2,wild3", "--out", "t.csv"]
    assert multiwalk.cli.main(argv) == 0
    untraced = sum(points)
    with _layers().Tracer(multiwalk):
        assert multiwalk.cli.main(argv) == 0
    assert sum(points) - untraced == untraced == 3 * (40001 + 8 * 60 * 33)


def test_traced_oracle_counts_the_chain_base_points(monkeypatch):
    # trefethen3 is scanned as a chain of its policy's pair term, broadcast
    # over the grid axes, so its kernel, fetched through the patched
    # targets.get_objective, is never called.  Coarse 401^3 grid: its three
    # axes are equal, so one 401x401 pair grid, evaluated in 11 slabs of 40
    # whole rows (at most 16384 points), serves as head and tail.
    # Refinement: 60 lockstep rounds, each one (8, 11, 11) head and one tail
    # broadcast for all 8 seeds' 11^3 windows.  Pair calls 11 + 2 * 60;
    # points 401^2 + 60 * 8 * 2 * 11^2.
    targets, calls = multiwalk.targets, []
    monkeypatch.setattr(targets, "_ORACLE_POLICY", _counting_pairs(calls))
    with _layers().Tracer(multiwalk) as tracer:
        rec = targets.compute_target(targets.get_objective("trefethen3"))
    assert rec.value_target == -5.74309093
    stats = tracer.summary()
    assert stats["targets.compute_target"].calls == 1
    assert stats["targets.grid_refine_minimum"].calls == 1
    assert stats["objectives.fn"].calls == 0
    assert tracer.counts["objectives.fn.points"] == 0
    assert len(calls) == 11 + 2 * 60
    assert sum(calls) == 401 ** 2 + 8 * 60 * 2 * 11 ** 2


def test_traced_cli_probe_ledger_matches_the_run_records(tmp_path, monkeypatch):
    # the ledger rule benchmarks/run.py enforces under --trace 1: every probe
    # the solvers make crosses evaluate_batch, and the oracle's grid points
    # reach the kernel without crossing it
    monkeypatch.chdir(tmp_path)
    with _layers().Tracer(multiwalk) as tracer:
        assert multiwalk.cli.main(["oracle", "--of", "ehrenfest4"]) == 0
        assert multiwalk.cli.main([
            "bench", "--of", "ehrenfest4", "--solver", "MWR:radius=2,marks=6",
            "--solver", "DEsFR:marks=6", "--sample-size", "5", "--steps-limit", "20",
            "--workers", "1", "--out", "b"]) == 0
    with open("b_runs.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 10
    probes = sum(int(row["probes"]) for row in rows)
    assert tracer.counts["objectives.evaluate_batch.probes"] == probes
    # plus the 17 states the oracle enumerates
    assert tracer.counts["objectives.fn.points"] == probes + 17
