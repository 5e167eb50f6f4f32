import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiwalk.cli import _KEY_TYPES, CliError, _parse_solver_spec, build_parser
from multiwalk.solvers import SOLVER_KINDS, SolverConfig

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


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


def test_bench_byte_identical_across_worker_counts(store):
    base = ["bench", "--of", "ehrenfest4", "--solver", "MWR:radius=4,marks=6",
            "--sample-size", "4", "--steps-limit", "100"]
    a = run_cli([*base, "--workers", "1", "--out", "w1"], cwd=store)
    b = run_cli([*base, "--workers", "2", "--out", "w2"], cwd=store)
    assert a.returncode == 0 and b.returncode == 0
    for suffix in ("_runs.csv", "_summary.csv", "_bars.csv"):
        assert (store / f"w1{suffix}").read_bytes() == (store / f"w2{suffix}").read_bytes()


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
], ids=["solver-value", "trace-row", "store-list", "store-solve", "store-nan",
        "oracle-digits", "trace-out-dir", "trace-agent0", "trace-value",
        "flag-value", "flag-missing"])
def test_bad_input_exits_1_without_traceback(store, files, args):
    for name, text in files.items():
        (store / name).write_text(text)
    out = run_cli(args, cwd=store)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


_SPEC_ARGS = build_parser().parse_args(["solve", "--of", "ehrenfest4", "--solver", "MW"])
_spec_option = st.tuples(st.sampled_from([*_KEY_TYPES, "label", "bogus"]),
                         st.one_of(st.integers(-5, 40).map(str), st.floats().map(repr),
                                   st.text(max_size=5)))
_spec_text = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(SOLVER_KINDS),
              st.lists(_spec_option.map("=".join), max_size=4).map(",".join)
              ).map(":".join))


@given(_spec_text)
def test_solver_spec_parser_on_arbitrary_text(text):
    # arbitrary text either parses into a valid config or raises CliError
    try:
        cfg = _parse_solver_spec(text, _SPEC_ARGS)
    except CliError:
        return
    assert isinstance(cfg, SolverConfig)
