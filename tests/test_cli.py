import argparse
import dataclasses
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiwalk import cli
from multiwalk.cli import _KEY_TYPES, _parse_solver_spec, build_parser
from multiwalk.experiments import (ExperimentPlan, run_experiment, summarize_experiment,
                                   write_bargraph_csv, write_runs_csv, write_summary_csv)
from multiwalk.objectives import get_objective
from multiwalk.solvers import KIND_SETTINGS, SOLVER_KINDS, SolverConfig
from multiwalk.targets import TargetStore

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run([sys.executable, "-m", "multiwalk", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    out = run_cli(["oracle", "--of", "ehrenfest4,wild1", "--out", "targets.csv"],
                  cwd=workdir)
    assert out.returncode == 0, out.stderr
    return workdir


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already.  The
    # staircase table computes its own ln-gamma, so a staircase oracle and a
    # pooled staircase bench (its parent builds the table) load no scipy either
    script = f"""
import sys
import numpy as np
from multiwalk import cli
from multiwalk.objectives import ehrenfest
store = {str(tmp_path / "targets.csv")!r}
assert cli.main(["oracle", "--of", "trefethen1,wild1", "--digits", "6", "--out", store]) == 0
assert cli.main(["solve", "--of", "wild1", "--solver", "MW:radius=4,marks=6", "--digits", "6",
                 "--steps-limit", "20", "--targets", store]) == 0
assert cli.main(["oracle", "--of", "ehrenfest4", "--out", store]) == 0
assert cli.main(["bench", "--of", "ehrenfest4", "--solver", "MWR:radius=4,marks=6",
                 "--solver", "DEsFR:marks=6", "--sample-size", "3", "--steps-limit", "200",
                 "--workers", "2", "--targets", store, "--out", "exp"]) == 0
try:
    ehrenfest(np.array([[1.0]]), n=24)
except ValueError:
    pass
else:
    raise AssertionError("ehrenfest24 was not refused")
assert "scipy" not in sys.modules, "scipy loaded"
"""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=tmp_path, env=env)
    assert out.returncode == 0, out.stderr
    assert "valueBest" in out.stdout


def test_list_without_store(tmp_path):
    out = run_cli(["list"], cwd=tmp_path)
    assert out.returncode == 0
    assert "ehrenfest15" in out.stdout
    assert "unset" in out.stdout


def test_oracle_then_list(store):
    out = run_cli(["list"], cwd=store)
    assert out.returncode == 0
    line = next(l for l in out.stdout.splitlines() if l.startswith("ehrenfest4"))
    assert "enumeration" in line


def test_oracle_writes_trailing_newline(store):
    data = (store / "targets.csv").read_bytes()
    assert data.endswith(b"\n")
    assert b"ehrenfest4" in data


def test_solve_deterministic_stdout(store):
    args = ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=4,marks=6",
            "--seed", "7", "--steps-limit", "50"]
    a = run_cli(args, cwd=store)
    b = run_cli(args, cwd=store)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    assert "valueBest" in a.stdout


def test_solve_unknown_objective(store):
    out = run_cli(["solve", "--of", "nope", "--solver", "MW:radius=4"], cwd=store)
    assert out.returncode == 1
    assert "unknown objective" in out.stderr


def test_solve_missing_target_points_at_oracle(store):
    out = run_cli(["solve", "--of", "trefethen1", "--solver", "MW:radius=4"],
                  cwd=store)
    assert out.returncode == 1
    assert "oracle" in out.stderr


@pytest.mark.parametrize("rde", ["1e308", "-1e308"])
def test_solve_with_an_overflowing_de_scale_exits_0(store, rde):
    # the donor overflows to inf - inf = NaN; confinement redraws that row,
    # so only numpy's overflow RuntimeWarning reaches stderr
    out = run_cli(["solve", "--of", "ehrenfest4", "--solver", f"DEoF2:marks=6,rde={rde}",
                   "--steps-limit", "20", "--targets", "targets.csv"], cwd=store)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert "valueBest" in out.stdout


def test_missing_store_points_at_oracle(tmp_path):
    out = run_cli(["solve", "--of", "ehrenfest4", "--solver", "MW:radius=4"],
                  cwd=tmp_path)
    assert out.returncode == 1
    assert "oracle" in out.stderr


def test_bad_solver_spec(store):
    out = run_cli(["solve", "--of", "ehrenfest4", "--solver", "MW:radius=400"],
                  cwd=store)
    assert out.returncode == 1
    out = run_cli(["solve", "--of", "ehrenfest4", "--solver", "XX"], cwd=store)
    assert out.returncode == 1


def test_bench_two_solvers(store):
    args = ["bench", "--of", "ehrenfest4", "--solver", "MWR:radius=4,marks=6",
            "--solver", "DEsFR:marks=6", "--sample-size", "3",
            "--steps-limit", "200", "--workers", "1", "--out", "exp"]
    out = run_cli(args, cwd=store)
    assert out.returncode == 0, out.stderr
    runs = (store / "exp_runs.csv").read_text()
    body = [l for l in runs.splitlines() if not l.startswith("#")]
    assert len(body) == 1 + 6
    summary = (store / "exp_summary.csv").read_text()
    assert len([l for l in summary.splitlines() if not l.startswith("#")]) == 3
    bars = (store / "exp_bars.csv").read_text()
    bars_body = [l for l in bars.splitlines() if not l.startswith("#")]
    assert bars_body[0] == "solver,mean,stderr,censored"
    assert bars_body[1].startswith("MWR04,")
    assert bars_body[2].startswith("DEsFR1,")


def test_bench_seeds_every_solver_from_base_seed(store):
    args = ["bench", "--of", "ehrenfest4", "--seed", "7",
            "--solver", "MW:radius=2,marks=6", "--solver", "MW:radius=4,marks=6",
            "--sample-size", "2", "--steps-limit", "200", "--workers", "1",
            "--out", "seeded"]
    out = run_cli(args, cwd=store)
    assert out.returncode == 0, out.stderr
    lines = (store / "seeded_runs.csv").read_text().splitlines()
    assert "# baseSeed = 7" in lines
    solver_lines = [l for l in lines if l.startswith("# solver ")]
    assert [l.split(":")[0] for l in solver_lines] == ["# solver MW02", "# solver MW04"]
    assert all(l.endswith(" digitsTarget=9") for l in solver_lines)
    seeds = [l.split(",")[2] for l in lines if l.startswith("ehrenfest4,")]
    assert seeds == ["7", "8", "7", "8"]


def test_solver_spec_without_flags_takes_config_defaults():
    args = build_parser().parse_args(["solve", "--of", "ehrenfest4", "--solver", "DEoF3"])
    assert _parse_solver_spec("DEoF3", args) == SolverConfig(kind="DEoF3", seed=1,
                                                             steps_limit=200)


def test_target_digits_flow_from_oracle_to_bench_and_solve(tmp_path):
    out = run_cli(["oracle", "--of", "trefethen1,wild2", "--digits", "6"], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    store = TargetStore.load(tmp_path / "targets.csv")
    bench = run_cli(["bench", "--of", "trefethen1", "--digits", "6", "--solver", "DEsFR",
                     "--sample-size", "2", "--workers", "1", "--out", "t6"], cwd=tmp_path)
    assert bench.returncode == 0, bench.stderr
    solve = run_cli(["solve", "--of", "wild2", "--digits", "6", "--solver", "MWR:radius=4",
                     "--steps-limit", "20", "--trace-out", "walk6.txt"], cwd=tmp_path)
    assert solve.returncode == 0, solve.stderr
    for name, path in (("trefethen1", "t6_runs.csv"), ("wild2", "walk6.txt")):
        header = [l for l in (tmp_path / path).read_text().splitlines() if l.startswith("#")]
        value = store.lookup(name, 6).value_target
        assert f"# valueTarget = {value!r} (digitsTarget = 6)" in header, header
        assert any(l.startswith("# solver ") and l.endswith(" digitsTarget=6")
                   for l in header), header
    missing = run_cli(["solve", "--of", "wild2", "--digits", "7", "--solver", "MWR:radius=4"],
                      cwd=tmp_path)
    assert missing.returncode == 1
    assert "at 7 digits" in missing.stderr


def test_solver_keys_match_config_fields_and_readme():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(_KEY_TYPES) <= fields
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    general = re.search(r"\(general keys: (.*?)\)", readme, re.S).group(1)
    kind_keys = {key for keys in KIND_SETTINGS.values() for key in keys}
    assert sorted(re.findall(r"`(\w+)`", general)) == sorted(set(_KEY_TYPES) - kind_keys)
    table = re.search(r"^\| kind \|.*?(?=\n\n)", readme, re.S | re.M).group(0)
    listed = {}
    for row in table.splitlines()[2:]:
        kinds, keys = row.strip("|").split("|")
        listed.update(dict.fromkeys(re.findall(r"`(\w+)`", kinds),
                                    tuple(re.findall(r"`(\w+)`", keys))))
    assert listed == KIND_SETTINGS


def test_solver_flags_and_spec_keys_are_disjoint():
    # a setting is a flag for every solver or a spec key, not both
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command in ("solve", "bench"):
        dests = {a.dest for a in subparsers.choices[command]._actions}
        assert not dests & set(_KEY_TYPES), command


def test_bench_and_solve_fail_on_unwritable_outputs_before_the_run(store, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before checking its outputs")

    monkeypatch.setattr(cli, "run_experiment", never)
    monkeypatch.setattr(cli, "run_solver", never)
    common = ["--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6", "--steps-limit", "5",
              "--targets", str(store / "targets.csv")]
    missing = store / "nodir"
    assert cli.main(["bench", *common, "--sample-size", "2", "--workers", "1",
                     "--out", str(missing / "x")]) == 1
    assert cli.main(["solve", *common, "--trace-out", str(missing / "w.txt")]) == 1


def test_oracle_fails_on_unwritable_out_before_the_scan(tmp_path):
    out = run_cli(["oracle", "--of", "ehrenfest4,wild1", "--out", "nodir/t.csv"], cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ")
    assert "valueTarget" not in out.stdout


def test_bench_byte_identical_across_worker_counts(store):
    base = ["bench", "--of", "ehrenfest4", "--solver", "MWR:radius=4,marks=6",
            "--sample-size", "4", "--steps-limit", "100"]
    a = run_cli([*base, "--workers", "1", "--out", "w1"], cwd=store)
    b = run_cli([*base, "--workers", "2", "--out", "w2"], cwd=store)
    assert a.returncode == 0 and b.returncode == 0
    for suffix in ("_runs.csv", "_summary.csv", "_bars.csv"):
        assert (store / f"w1{suffix}").read_bytes() == (store / f"w2{suffix}").read_bytes()


def test_library_writers_match_bench_bytes(store):
    out = run_cli(["bench", "--of", "ehrenfest4", "--solver", "MWR:radius=4,marks=6",
                   "--solver", "DEsFR:marks=6", "--sample-size", "3",
                   "--steps-limit", "100", "--workers", "1", "--out", "cli"], cwd=store)
    assert out.returncode == 0, out.stderr
    spec = TargetStore.load(store / "targets.csv").apply(get_objective("ehrenfest4"))
    configs = [SolverConfig(kind="MWR", seed=1, steps_limit=100, marks=6, radius=4),
               SolverConfig(kind="DEsFR", seed=1, steps_limit=100, marks=6)]
    plan = ExperimentPlan(spec=spec, configs=configs, sample_size=3)
    results = run_experiment(plan)
    summaries = summarize_experiment(plan, results)
    write_runs_csv(store / "lib_runs.csv", plan, results)
    write_summary_csv(store / "lib_summary.csv", plan, summaries)
    write_bargraph_csv(store / "lib_bars.csv", plan, summaries)
    for suffix in ("_runs.csv", "_summary.csv", "_bars.csv"):
        assert (store / f"lib{suffix}").read_bytes() == (store / f"cli{suffix}").read_bytes()


def test_bench_fully_censored_exit_code(store):
    args = ["bench", "--of", "wild1", "--solver", "MW:radius=4,marks=6",
            "--sample-size", "2", "--steps-limit", "1", "--workers", "1",
            "--out", "cens"]
    out = run_cli(args, cwd=store)
    assert out.returncode == 2
    assert "censored" in out.stdout


def test_trace_roundtrip(store):
    solve = run_cli(["solve", "--of", "ehrenfest4", "--solver", "MWR:radius=4,marks=6",
                     "--seed", "3", "--steps-limit", "100",
                     "--trace-out", "walk.txt"], cwd=store)
    assert solve.returncode == 0, solve.stderr
    text = (store / "walk.txt").read_text()
    assert "step,restart,agentId,value" in text
    assert text.startswith("# objective = ehrenfest4")
    wide = run_cli(["trace", "walk.txt"], cwd=store)
    assert wide.returncode == 0
    lines = [l for l in wide.stdout.splitlines() if not l.startswith("#")]
    assert lines[0] == "step,restart," + ",".join(f"agent{a}" for a in range(1, 7))
    out_file = run_cli(["trace", "walk.txt", "--out", "wide.csv"], cwd=store)
    assert out_file.returncode == 0
    assert (store / "wide.csv").read_text().endswith("\n")


def test_trace_missing_file(store):
    out = run_cli(["trace", "absent.txt"], cwd=store)
    assert out.returncode == 1


BAD_TRACE = "step,restart,agentId,value\n1,0,1\n"
BAD_STORE = "# name,valueTarget,digits,coords...,method\nehrenfest4,abc,9,9.0,enumeration\n"


@pytest.mark.parametrize("files,args", [
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=abc"]),
    ({"bad_walk.txt": BAD_TRACE}, ["trace", "bad_walk.txt"]),
    ({"bad_targets.csv": BAD_STORE}, ["list", "--targets", "bad_targets.csv"]),
    ({"bad_targets.csv": BAD_STORE},
     ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=4",
      "--targets", "bad_targets.csv"]),
    ({"nan_targets.csv": BAD_STORE.replace("abc", "nan")},
     ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=4",
      "--targets", "nan_targets.csv"]),
    ({}, ["oracle", "--of", "ehrenfest4", "--digits", "0", "--out", "digits0.csv"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=4,marks=6",
          "--trace-out", "missing_dir/walk.txt"]),
    ({"agent0_walk.txt": "step,restart,agentId,value\n1,0,0,1.0\n"},
     ["trace", "agent0_walk.txt"]),
    ({"abc_walk.txt": "step,restart,agentId,value\n1,0,1,abc\n"},
     ["trace", "abc_walk.txt"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=4", "--seed", "abc"]),
    ({}, ["solve", "--solver", "MW:radius=4"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6,digits_target=6"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "DEsF:rde=nan,marks=6",
          "--steps-limit", "20"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "DEoF3:de_jitter=inf,marks=6",
          "--steps-limit", "20"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6", "--seed", "-1"]),
    ({}, ["list", "--digits", "0"]),
    ({}, ["bench", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6",
          "--sample-size", "2", "--steps-limit", "5", "--workers", "0", "--out", "w0"]),
    ({}, ["bench", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6",
          "--sample-size", "2", "--steps-limit", "5", "--workers", "-3", "--out", "wneg"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=1000000",
          "--steps-limit", "1"]),
    ({}, ["bench", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6,label=",
          "--sample-size", "2", "--steps-limit", "5", "--workers", "1", "--out", "lempty"]),
    ({}, ["bench", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6,label=x",
          "--solver", "MW:radius=3,marks=6,label=x",
          "--sample-size", "2", "--steps-limit", "5", "--workers", "1", "--out", "ldup"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6", "--marks", "8"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6,steps_limit=5"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "DEsF:radius=3,marks=6",
          "--steps-limit", "5"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6,rde=0.5",
          "--steps-limit", "5"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6,plateau_limit=3",
          "--steps-limit", "5"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "DEsFR:marks=6,cr=0.5",
          "--steps-limit", "5"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,radius=3,marks=6"]),
    ({}, ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=2,marks=6,seed=50"]),
    ({"dup_targets.csv": BAD_STORE.replace("abc", "-8.5")
      + "ehrenfest4,-1.5,9,9.0,enumeration\n"},
     ["solve", "--of", "ehrenfest4", "--solver", "MW:radius=4",
      "--targets", "dup_targets.csv"]),
    ({"dup_walk.txt": "step,restart,agentId,value\n1,0,1,1.0\n1,0,1,2.0\n1,0,2,3.0\n"},
     ["trace", "dup_walk.txt"]),
    ({"agent1025_walk.txt": "step,restart,agentId,value\n1,0,1,1.0\n1,0,1025,1.0\n"},
     ["trace", "agent1025_walk.txt"]),
], ids=["solver-value", "trace-row", "store-list", "store-solve", "store-nan",
        "oracle-digits", "trace-out-dir", "trace-agent0", "trace-value",
        "flag-value", "flag-missing", "solver-digits", "solver-rde-nan",
        "solver-jitter-inf", "seed-negative", "list-digits0", "bench-workers0",
        "bench-workers-neg", "marks-huge", "label-empty", "label-duplicate",
        "flag-marks", "solver-steps-limit", "desf-radius", "mw-rde", "mw-plateau-limit",
        "desfr-cr", "repeated-key", "solver-seed", "store-duplicate",
        "trace-duplicate", "trace-agent1025"])
def test_bad_input_exits_1_without_traceback(store, files, args):
    for name, text in files.items():
        (store / name).write_text(text)
    out = run_cli(args, cwd=store)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: ")
    assert out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


def _raise(exc):
    def fail(spec):
        raise exc
    return fail


def test_value_error_deep_in_a_command_is_one_error_line(tmp_path, monkeypatch, capsys):
    # main is the one place where a refused input becomes exit 1
    monkeypatch.setattr(cli, "compute_target", _raise(ValueError("no target here")))
    out = str(tmp_path / "targets.csv")
    assert cli.main(["oracle", "--of", "ehrenfest4", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no target here\n"
    assert captured.out == ""


def test_other_errors_deep_in_a_command_propagate(tmp_path, monkeypatch):
    # a defect of any other type keeps its traceback
    monkeypatch.setattr(cli, "compute_target", _raise(RuntimeError("a defect")))
    out = str(tmp_path / "targets.csv")
    with pytest.raises(RuntimeError, match="a defect"):
        cli.main(["oracle", "--of", "ehrenfest4", "--out", out])


_SPEC_ARGS = build_parser().parse_args(["solve", "--of", "ehrenfest4", "--solver", "MW"])
_spec_option = st.tuples(st.sampled_from([*_KEY_TYPES, "bogus"]),
                         st.one_of(st.integers(-5, 40).map(str), st.floats().map(repr),
                                   st.text(max_size=5)))
_spec_text = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(SOLVER_KINDS),
              st.lists(_spec_option.map("=".join), max_size=4).map(",".join)
              ).map(":".join))


@given(_spec_text)
def test_solver_spec_parser_on_arbitrary_text(text):
    # arbitrary text either parses into a valid config or raises ValueError
    try:
        cfg = _parse_solver_spec(text, _SPEC_ARGS)
    except ValueError:
        return
    assert isinstance(cfg, SolverConfig)


def test_seed_is_no_solver_spec_key():
    with pytest.raises(ValueError, match="unknown solver option 'seed'"):
        _parse_solver_spec("MW:radius=2,marks=6,seed=50", _SPEC_ARGS)


def test_repeated_solver_spec_key_is_named():
    with pytest.raises(ValueError, match="repeated solver option 'radius'"):
        _parse_solver_spec("MW:radius=2,radius=3,marks=6", _SPEC_ARGS)


_KEY_VALUES = {"marks": "6", "seed": "3", "label": "x", "radius": "2", "dither": "0.5",
               "rde": "0.5", "cr": "0.5", "plateau_limit": "3", "de_jitter": "0.0"}
# 40 of the 90 (kind, key) pairs: marks and label, plus what each kind reads
_ACCEPTED = {
    "MW": "marks label radius dither",
    "MWR": "marks label radius dither plateau_limit",
    "DEsF": "marks label rde",
    "DEsFR": "marks label rde plateau_limit",
    **dict.fromkeys((f"DEoF{s}" for s in range(1, 7)), "marks label rde cr"),
}


@pytest.mark.parametrize("kind", SOLVER_KINDS)
@pytest.mark.parametrize("key", _KEY_VALUES)
def test_solver_spec_takes_only_the_keys_its_kind_reads(kind, key):
    value = _KEY_VALUES[key]
    options = [f"{key}={value}"]
    if kind in ("MW", "MWR") and key != "radius":
        options.append("radius=2")
    if key != "marks":
        options.append("marks=6")
    text = f"{kind}:{','.join(options)}"
    if key in _ACCEPTED[kind].split():
        cfg = _parse_solver_spec(text, _SPEC_ARGS)
        assert getattr(cfg, key) == _KEY_TYPES[key](value)
    else:
        with pytest.raises(ValueError):
            _parse_solver_spec(text, _SPEC_ARGS)
