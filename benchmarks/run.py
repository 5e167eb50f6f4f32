"""First-passage benchmark of the multiwalk CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload staircase_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's CLI commands in child processes
(``python3 -m multiwalk`` on ``src/``) and prints the end-to-end metrics.
``--trace 1`` runs the same commands in this process at one worker under the
layer trace of ``layers.py`` and prints the per-layer metrics.  Either way the
outputs are checked (exit status, probe ledger, byte identity across
repetitions and worker counts, and at seed 1 the golden fingerprint), a
report goes to stdout, and the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See README.md next to this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 1

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0

SWEEP_SOLVERS = ("MWR:radius=2", "MWR:radius=4", "MWR:radius=8", "MWR:radius=30",
                 "DEsFR", "DEoF1", "DEoF2", "DEoF3", "DEoF4", "DEoF5", "DEoF6")
HARD_SOLVERS = ("MWR:radius=30", "DEsFR")
# wild3 at nine digits is fully censored for both solvers (2000 steps each),
# so its cost is the same for every seed; four seeds make it about half of a
# repetition, which damps the seed-to-seed spread of the trefethen1 plan.
WILD3_SEEDS = 4
KERNEL_OBJECTIVES = ("ehrenfest15", "wild3", "trefethen1", "trefethen3")
KERNEL_BATCHES = (32, 128, 960, 160801)
KERNEL_MIN_CALLS = 5
KERNEL_MIN_S = 0.05


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Command:
    """One ``multiwalk`` invocation and the files it writes into its cwd."""

    argv: tuple
    outputs: tuple = ()


def _bench(of, solvers, out, seed, workers, store, *flags):
    argv = ["bench", "--of", of, *flags, "--seed", str(seed), "--workers", str(workers),
            "--targets", store, "--out", out]
    for solver in solvers:
        argv += ["--solver", solver]
    return Command(tuple(argv), tuple(f"{out}_{kind}.csv" for kind in ("runs", "summary", "bars")))


def _staircase_sweep(seed, workers, store):
    return [_bench("ehrenfest15", SWEEP_SOLVERS, "sweep", seed, workers, store,
                   "--steps-limit", "200", "--sample-size", "100")]


def _continuous_hard(seed, workers, store):
    return [
        _bench("trefethen1", HARD_SOLVERS, "trefethen1", seed, workers, store,
               "--digits", "6", "--steps-limit", "2000", "--sample-size", "100"),
        _bench("wild3", HARD_SOLVERS, "wild3", seed, workers, store,
               "--steps-limit", "2000", "--sample-size", str(WILD3_SEEDS)),
        Command(("solve", "--of", "trefethen1", "--digits", "6", "--solver", "MWR:radius=30",
                 "--seed", str(seed), "--targets", store, "--trace-out", "walk.txt"),
                ("walk.txt",)),
        Command(("trace", "walk.txt", "--out", "walk_wide.csv"), ("walk_wide.csv",)),
    ]


def _oracle_all(seed, workers, store):
    return [Command(("oracle", "--of", "all", "--out", "targets.csv"), ("targets.csv",))]


@dataclasses.dataclass(frozen=True)
class Workload:
    # oracle commands building the store the workload reads; each writes a
    # fresh file, because `oracle --out` merges into an existing store
    setup: tuple
    commands: object     # (seed, workers, store path) -> list[Command]
    workers: int         # worker count of the timed run
    min_reps: int        # repetitions per timed run, more while they fit in --seconds


WORKLOADS = {
    "staircase_sweep": Workload(
        setup=(("oracle", "--of", "ehrenfest15"),),
        commands=_staircase_sweep, workers=2, min_reps=3),
    "continuous_hard": Workload(
        setup=(("oracle", "--of", "trefethen1", "--digits", "6"),
               ("oracle", "--of", "wild3")),
        commands=_continuous_hard, workers=1, min_reps=2),
    "oracle_all": Workload(setup=(), commands=_oracle_all, workers=1, min_reps=1),
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Tally:
    """Commands attempted and failed; a command fails when its exit status
    is not the expected one or one of its outputs fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append(f"{label}: {'; '.join(problems)}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_rows(path: Path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _solver_costs(runs_csv: Path) -> dict:
    """Solver label -> (marks, probes per step) from the config comment lines."""
    costs = {}
    for line in runs_csv.read_text(encoding="utf-8").splitlines():
        if line.startswith("# solver "):
            label, _, rest = line[len("# solver "):].partition(": ")
            fields = dict(item.split("=", 1) for item in rest.split())
            marks = int(fields["marks"])
            per_step = marks * int(fields["radius"]) if fields["kind"] in ("MW", "MWR") else marks
            costs[label] = (marks, per_step)
    return costs


def ledger_problems(runs_csv: Path) -> list:
    """Every row must satisfy probes == marks*(1+restarts) + steps*per_step."""
    costs = _solver_costs(runs_csv)
    bad = 0
    for row in _data_rows(runs_csv):
        marks, per_step = costs[row["solver"]]
        expected = marks * (1 + int(row["restarts"])) + int(row["steps"]) * per_step
        bad += int(row["probes"]) != expected
    return [f"{runs_csv.name}: {bad} rows break the probe ledger"] if bad else []


def _expected_status(cmd: Command, cwd: Path) -> int:
    """`bench` exits 2 when some solver is censored on every run (the wild3
    plan), 0 otherwise; every other command exits 0."""
    if cmd.argv[0] != "bench":
        return 0
    rows = _data_rows(cwd / cmd.outputs[1])
    return 2 if any(r["n"] == r["censored"] for r in rows) else 0


def check_command(cmd: Command, cwd: Path, status: int, golden, reference) -> tuple:
    """Checks one command's exit status and outputs against the golden
    fingerprint and against ``reference``, the hashes of an earlier run of
    the same command.  Returns (problems, {output name: sha256})."""
    problems, hashes = [], {}
    try:
        for name in cmd.outputs:
            hashes[name] = _sha256(cwd / name)
        expected = _expected_status(cmd, cwd)
        if status != expected:
            problems.append(f"exit status {status}, expected {expected}")
        if cmd.argv[0] == "bench":
            problems += ledger_problems(cwd / cmd.outputs[0])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable outputs ({exc!r})")
    for name, digest in hashes.items():
        if golden is not None and golden.get(name) != digest:
            problems.append(f"{name} differs from the golden fingerprint")
        if reference is not None and reference.get(name) != digest:
            problems.append(f"{name} differs from the first run")
    return problems, hashes


def load_golden(workload: str, seed: int):
    if seed != GOLDEN_SEED:
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {})


# ---------------------------------------------------------------------------
# timed runs in child processes (--trace 0)
# ---------------------------------------------------------------------------

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def run_child(args, cwd: Path):
    """Run ``python3 <args>`` in ``cwd``; returns (status, wall s, cpu s,
    peak RSS MB).  The rusage of the reaped child covers its own reaped
    children, so pool workers count in CPU time and peak RSS."""
    with open(cwd / "commands.log", "ab") as log:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=CHILD_ENV,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def timed_run(name: str, seed: int, seconds: float, work: Path, tally: Tally, golden):
    wl = WORKLOADS[name]

    setup_s = []
    store = None
    for i in range(SETUP_REPEATS):
        cwd = _fresh_dir(work / f"setup{i}")
        store = cwd / "targets.csv"
        steps = [("-m", "multiwalk", *argv, "--out", str(store)) for argv in wl.setup]
        total = 0.0
        for args in steps or [("-c", "import multiwalk.cli")]:
            status, wall, _, _ = run_child(args, cwd)
            tally.record(f"setup {' '.join(args)}", [] if status == 0 else [f"exit status {status}"])
            total += wall
        setup_s.append(total)

    commands = wl.commands(seed, wl.workers, str(store))
    walls = [[] for _ in commands]
    cpus = [[] for _ in commands]
    peak_rss = 0.0
    probes = None
    first_hashes = None
    start = perf_counter()
    rep = 0
    # repeat while the next repetition is expected to end within --seconds
    while rep < wl.min_reps or (perf_counter() - start) * (rep + 1) / rep <= seconds:
        cwd = _fresh_dir(work / f"rep{rep}")
        hashes = {}
        for k, cmd in enumerate(commands):
            status, wall, cpu, rss = run_child(("-m", "multiwalk", *cmd.argv), cwd)
            walls[k].append(wall)
            cpus[k].append(cpu)
            peak_rss = max(peak_rss, rss)
            problems, digests = check_command(cmd, cwd, status, golden, first_hashes)
            hashes.update(digests)
            tally.record(f"repetition {rep}: {' '.join(cmd.argv)}", problems)
        if first_hashes is None:
            first_hashes = hashes
            probes = sum(int(r["probes"]) for r in run_records(cwd, commands))
        shutil.rmtree(cwd)
        rep += 1

    wall_s = sum(statistics.median(w) for w in walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report = [f"setup walls = {', '.join(f'{t:.3f}' for t in setup_s)} s",
              f"repetition walls = {', '.join(f'{sum(w):.3f}' for w in zip(*walls))} s"]
    if probes:
        report.append(f"probes_per_s = {probes / wall_s:.1f} 1/s  (probes = {probes}; "
                      "gated through wall_s, since a seed fixes the probe count)")
    return metrics, first_hashes, report


def _solve_record(cwd: Path) -> dict:
    """Fields of the record `solve` printed into commands.log."""
    record = {}
    for line in (cwd / "commands.log").read_text(encoding="utf-8").splitlines():
        key, eq, value = line.partition(" = ")
        if eq and key in ("steps", "probes", "restarts", "censored"):
            record[key] = value
    return record


def run_records(cwd: Path, commands) -> list:
    """The workload's run records: `runs.csv` rows plus the `solve` record."""
    records = []
    for cmd in commands:
        if cmd.argv[0] == "bench":
            records += _data_rows(cwd / cmd.outputs[0])
        elif cmd.argv[0] == "solve":
            records.append(_solve_record(cwd))
    return records


# ---------------------------------------------------------------------------
# traced run in this process (--trace 1)
# ---------------------------------------------------------------------------

def _call_cli(cli, argv, cwd: Path):
    """``cli.main(argv)`` in ``cwd``; stdout and stderr go to commands.log."""
    buffer = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            try:
                status = cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
    finally:
        os.chdir(previous)
        with open(cwd / "commands.log", "a", encoding="utf-8") as log:
            log.write(buffer.getvalue())
    return status


def _in_process_pass(cli, wl, seed, workers, cwd: Path, tally, golden, label, reference=None):
    """Setup plus workload commands through ``cli.main``.  Returns the setup
    and command wall times, the commands and their output hashes."""
    store = cwd / "targets.csv"
    start = perf_counter()
    for argv in wl.setup:
        status = _call_cli(cli, (*argv, "--out", str(store)), cwd)
        tally.record(f"{label}: {' '.join(argv)}", [] if status == 0 else [f"exit status {status}"])
    setup_s = perf_counter() - start
    commands = wl.commands(seed, workers, str(store))
    hashes = {}
    start = perf_counter()
    for cmd in commands:
        status = _call_cli(cli, cmd.argv, cwd)
        problems, digests = check_command(cmd, cwd, status, golden, reference)
        hashes.update(digests)
        tally.record(f"{label}: {' '.join(cmd.argv)}", problems)
    return setup_s, perf_counter() - start, commands, hashes


def kernel_microbench(objectives, seed: int) -> dict:
    """ns per point of each objective's ``fn`` on fixed inputs drawn from the
    seed inside its box, after one warm-up call."""
    rng = np.random.default_rng(seed)
    out = {}
    for name in KERNEL_OBJECTIVES:
        spec = objectives.get_objective(name)
        for batch in KERNEL_BATCHES:
            points = spec.lower + rng.uniform(size=(batch, spec.dims)) * (spec.upper - spec.lower)
            spec.fn(points)
            times = []
            while len(times) < KERNEL_MIN_CALLS or sum(times) < KERNEL_MIN_S:
                start = perf_counter()
                spec.fn(points)
                times.append(perf_counter() - start)
            out[f"objectives.kernel.{name}.b{batch}.ns_per_point"] = (
                statistics.median(times) / batch * 1e9, "ns")
    return out


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def traced_run(name: str, seed: int, work: Path, tally: Tally, golden):
    sys.path.insert(0, str(SRC))
    import multiwalk
    from multiwalk import cli, objectives

    from layers import Tracer

    wl = WORKLOADS[name]
    setup_s, untraced_s, commands, reference = _in_process_pass(
        cli, wl, seed, 1, _fresh_dir(work / "untraced"), tally, golden, "untraced")

    pool_speedup = 0.0
    if wl.workers > 1:
        _, pooled_s, _, _ = _in_process_pass(cli, wl, seed, wl.workers, _fresh_dir(work / "pooled"),
                                             tally, golden, "pooled", reference)
        pool_speedup = untraced_s / pooled_s

    cwd = _fresh_dir(work / "traced")
    with Tracer(multiwalk) as tracer:
        traced_setup_s, traced_s, _, _ = _in_process_pass(
            cli, wl, seed, 1, cwd, tally, golden, "traced", reference)

    metrics = layer_metrics(tracer, cwd, commands, tally)
    metrics["experiments.pool_speedup"] = (pool_speedup, "ratio")
    metrics["trace.overhead_frac"] = (
        (traced_setup_s + traced_s) / (setup_s + untraced_s) - 1.0, "ratio")
    metrics.update(kernel_microbench(objectives, seed))
    report = [f"untraced pass = {setup_s + untraced_s:.3f} s (workload commands {untraced_s:.3f} s)",
              f"traced pass = {traced_setup_s + traced_s:.3f} s (workload commands {traced_s:.3f} s)"]
    if wl.workers > 1:
        report.append(f"pooled pass at {wl.workers} workers: workload commands {pooled_s:.3f} s")
    return metrics, report


def layer_metrics(tracer, cwd: Path, commands, tally) -> dict:
    """Per-layer figures from the spans and counts of one traced pass and
    the outputs it wrote."""
    stats = tracer.summary()
    counts = tracer.counts

    s = stats.__getitem__  # a name that never ran reads as zero calls
    runs = run_records(cwd, commands)
    csv_bytes = sum((cwd / o).stat().st_size for cmd in commands if cmd.argv[0] == "bench"
                    for o in cmd.outputs)
    probes = sum(int(r["probes"]) for r in runs)
    steps = sum(int(r["steps"]) for r in runs)
    traced_probes = counts["objectives.evaluate_batch.probes"]
    tally.record("traced probe count", [] if traced_probes == probes else [
        f"evaluate_batch saw {traced_probes} probes, the run records sum to {probes}"])

    fn, batch, ne, run = (s("objectives.fn"), s("objectives.evaluate_batch"),
                          s("ruler.neighborhood_eval"), s("solvers.run_solver"))
    run_ms = [d * 1e3 for d in run.durations]
    points = counts["objectives.fn.points"]
    return {
        "objectives.fn.calls": (fn.calls, "count"),
        "objectives.fn.points": (points, "count"),
        "objectives.fn.self_s": (fn.self_s, "s"),
        "objectives.fn.ns_per_point": (fn.self_s / points * 1e9 if points else 0.0, "ns"),
        "objectives.evaluate_batch.calls": (batch.calls, "count"),
        "objectives.evaluate_batch.probes": (counts["objectives.evaluate_batch.probes"], "count"),
        "objectives.evaluate_batch.self_s": (batch.self_s, "s"),
        "objectives.quantize.calls": (s("objectives.quantize").calls, "count"),
        "objectives.quantize.self_s": (s("objectives.quantize").self_s, "s"),
        "ruler.neighborhood_eval.calls": (ne.calls, "count"),
        "ruler.neighborhood_eval.self_s": (ne.self_s, "s"),
        "ruler.neighborhood_eval.us_per_call": (ne.self_s / ne.calls * 1e6 if ne.calls else 0.0, "us"),
        "solvers.run_solver.calls": (run.calls, "count"),
        "solvers.run_solver.self_s": (run.self_s, "s"),
        "solvers.mw_step.self_s": (s("solvers.mw_step").self_s, "s"),
        "solvers.us_per_step": (run.total_s / steps * 1e6 if steps else 0.0, "us"),
        "solvers.run_ms.p50": (_percentile(run_ms, 0.50), "ms"),
        "solvers.run_ms.p95": (_percentile(run_ms, 0.95), "ms"),
        "solvers.steps": (steps, "count"),
        "solvers.restarts": (sum(int(r["restarts"]) for r in runs), "count"),
        "solvers.passed_frac": (
            sum(r["censored"] == "false" for r in runs) / len(runs) if runs else 0.0, "ratio"),
        "experiments.run_experiment.self_s": (s("experiments.run_experiment").self_s, "s"),
        "experiments.summarize_experiment.s": (s("experiments.summarize_experiment").total_s, "s"),
        "experiments.write_csv.s": (sum(s(f"experiments.write_{k}").total_s
                                        for k in ("runs_csv", "summary_csv", "bargraph_csv")), "s"),
        "experiments.csv_bytes": (csv_bytes, "bytes"),
        "targets.compute_target.calls": (s("targets.compute_target").calls, "count"),
        "targets.grid_refine_minimum.self_s": (s("targets.grid_refine_minimum").self_s, "s"),
        "targets.enumerate_integer_minimum.self_s": (
            s("targets.enumerate_integer_minimum").self_s, "s"),
        "targets.TargetStore.load.s": (s("targets.TargetStore.load").total_s, "s"),
        "targets.TargetStore.save.s": (s("targets.TargetStore.save").total_s, "s"),
        "cli.main.self_s": (s("cli.main").self_s, "s"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def provenance(seed: int, golden: str) -> dict:
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout.strip() or commit
    cpu_model = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model,
        "seed": seed,
        "golden": golden,
    }


def write_golden(name: str, hashes: dict) -> None:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    golden[name] = dict(sorted(hashes.items()))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="repeat the workload's commands while the next repetition is "
                             "expected to end within this many seconds (each workload has "
                             "a minimum repetition count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"store the outputs' sha256 as the fingerprint (seed {GOLDEN_SEED}, "
                             "--trace 0 only)")
    args = parser.parse_args(argv)
    if not (SRC / "multiwalk" / "cli.py").is_file():
        print(f"error: no multiwalk sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.write_golden and (args.seed != GOLDEN_SEED or args.trace):
        parser.error(f"--write-golden needs --seed {GOLDEN_SEED} --trace 0")

    golden = None if args.write_golden else load_golden(args.workload, args.seed)
    work = WORK_ROOT / f"multiwalk-{args.workload}-{os.getpid()}"
    tally = Tally()
    shutil.rmtree(work, ignore_errors=True)  # left over by a killed run with this pid
    try:
        work.mkdir(parents=True)
        if args.trace:
            metrics, report = traced_run(args.workload, args.seed, work, tally, golden)
        else:
            metrics, hashes, report = timed_run(args.workload, args.seed, args.seconds,
                                                work, tally, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}")
    if args.write_golden:
        golden_note = "recorded"
    elif golden is None:
        golden_note = (f"not applicable at seed {args.seed}; a claim must hold here too, "
                       "checked by the probe ledger and byte identity across runs and workers")
    else:
        golden_note = "checked"
    print("provenance = " + json.dumps(provenance(args.seed, golden_note), sort_keys=True))
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(f"failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} commands)")
    for note in tally.notes:
        print(f"FAILED {note}")
    if args.write_golden and not tally.failed:
        write_golden(args.workload, hashes)
        print(f"wrote {GOLDEN_PATH.name} for {args.workload}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
