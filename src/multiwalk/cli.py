"""Command-line front end: list objectives, compute targets, run single
solves with traces, run N-seed benchmarks, emit CSV/bargraph/trace files.

Exit status: 0 on success; 1 on any bad input (flags, solver specs, target
stores, walk traces, unreadable or unwritable paths), reported as one
``error:`` line by ``main``, which catches every ``ValueError`` (the
library's input checks raise it) and ``OSError``; 2 only when a benchmark
completes but every run of some solver was censored (the comparison is then
unreliable).  ``main`` cannot tell a refused input from a defect that raises
``ValueError`` inside a command (a numpy shape mismatch in a solver, say):
that too ends as one ``error:`` line and exit 1, without a traceback.
Exceptions of any other type propagate with theirs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiments import (RUN_COLUMNS, ExperimentPlan, run_experiment, run_fields,
                          summarize_experiment, write_bargraph_csv, write_runs_csv,
                          write_summary_csv)
from .objectives import ObjectiveSpec, get_objective, objective_names
from .solvers import (KIND_SETTINGS, SOLVER_KINDS, SolverConfig, WalkTrace, run_solver,
                      trace_to_text, trace_wide_text)
from .targets import TargetStore, compute_target

_KEY_TYPES = {
    **dict.fromkeys(("marks", "radius", "plateau_limit"), int),
    **dict.fromkeys(("dither", "rde", "cr"), float),
    "label": str.strip,
}


def _positive_int(text: str) -> int:
    """argparse type for a count that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports argparse's own errors (bad, missing or unknown flags) as
    ValueError, so they exit 1 like every other bad input; subparsers inherit
    the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _parse_solver_spec(text: str, args) -> SolverConfig:
    """Parse ``KIND`` or ``KIND:key=value,...`` with the keys the kind reads,
    each at most once; ``--seed`` and ``--steps-limit`` apply to every solver
    and are no spec keys, and unset keys take ``SolverConfig``'s defaults."""
    kind, _, tail = text.partition(":")
    fields = {"kind": kind.strip(), "seed": args.seed, "steps_limit": args.steps_limit}
    # every kind reads these two; an unknown kind is left for SolverConfig
    readable = ("marks", "label", *KIND_SETTINGS.get(fields["kind"], _KEY_TYPES))
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().replace("-", "_")
            if not eq:
                raise ValueError(f"bad solver option {item!r} in {text!r} (expected key=value)")
            if key not in _KEY_TYPES:
                raise ValueError(f"unknown solver option {key!r} in {text!r}")
            if key in fields:
                raise ValueError(f"repeated solver option {key!r} in {text!r}")
            if key not in readable:
                raise ValueError(f"{fields['kind']} does not read solver option {key!r} "
                                 f"in {text!r} (it reads {', '.join(readable)})")
            try:
                fields[key] = _KEY_TYPES[key](value)
            except ValueError:
                raise ValueError(f"bad value {value!r} for solver option {key!r} "
                                 f"in {text!r}") from None
    return SolverConfig(**fields)


def _load_store(path) -> TargetStore:
    """The target store at ``path``, or an empty one if there is none."""
    return TargetStore.load(path) if os.path.exists(path) else TargetStore()


def _load_objective(args):
    """``args.of`` at ``args.digits``, with its target from the store ``args.targets``."""
    spec = replace(get_objective(args.of), digits_target=args.digits)
    if not os.path.exists(args.targets):
        raise ValueError(f"target store {args.targets!r} not found; compute it with "
                         f"`multiwalk oracle --of {args.of}`")
    return TargetStore.load(args.targets).apply(spec)


def _cmd_list(args) -> int:
    store = _load_store(args.targets)
    print("name  p  bounds  digitsTarget  target")
    for name in objective_names():
        spec = get_objective(name)
        rec = store.lookup(name, args.digits)
        status = f"{rec.value_target!r} ({rec.method})" if rec else "unset"
        bounds = f"[{float(spec.lower[0])!r}, {float(spec.upper[0])!r}]^{spec.dims}"
        print(f"{name}  {spec.dims}  {bounds}  {args.digits}  {status}")
    return 0


def _cmd_oracle(args) -> int:
    names = objective_names() if args.of == "all" else [n.strip() for n in args.of.split(",")]
    specs = [replace(get_objective(name), digits_target=args.digits) for name in names]
    store = _load_store(args.out)
    open(args.out, "a").close()  # an unwritable --out fails before the scan
    for spec in specs:
        record = compute_target(spec)
        store.add(record)
        coords = ",".join(repr(float(c)) for c in record.coords)
        print(f"{spec.name}: valueTarget = {record.value_target!r} at ({coords}) "
              f"[{record.method}, digits = {record.digits}]")
    store.save(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_solve(args) -> int:
    spec = _load_objective(args)
    cfg = _parse_solver_spec(args.solver, args)
    if args.trace_out:
        # opened first, so an unwritable path fails before the run
        with open(args.trace_out, "w", encoding="utf-8", newline="\n") as fh:
            trace = WalkTrace(cfg, spec)
            record = run_solver(cfg, spec, observe=trace)
            fh.write(trace_to_text(trace, record))
    else:
        record = run_solver(cfg, spec)
    for column, field in zip(RUN_COLUMNS.split(","), run_fields(spec, cfg, record)):
        print(f"{column} = {field}")
    print(f"coordBest = {','.join(repr(c) for c in record.coord_best)}")
    return 0


def _cmd_bench(args) -> int:
    spec = _load_objective(args)
    configs = [_parse_solver_spec(s, args) for s in args.solver]
    plan = ExperimentPlan(spec=spec, configs=configs, sample_size=args.sample_size)
    runs_csv, summary_csv, bars_csv = outputs = [
        f"{args.out}_{part}.csv" for part in ("runs", "summary", "bars")]
    for path in outputs:
        open(path, "a").close()  # an unwritable --out fails before the run
    results = run_experiment(plan, workers=args.workers)
    summaries = summarize_experiment(plan, results)
    write_runs_csv(runs_csv, plan, results)
    write_summary_csv(summary_csv, plan, summaries)
    write_bargraph_csv(bars_csv, plan, summaries)
    status = 0
    for s in summaries:
        flag = ""
        if s.censored == s.n:
            flag, status = " (all runs censored!)", 2
        mean = "n/a" if s.mean_steps_unc is None else f"{s.mean_steps_unc:.2f}"
        print(f"{s.label}: n={s.n} censored={s.censored} mean_steps_unc={mean}{flag}")
    print(f"wrote {', '.join(outputs)}")
    return status


def _cmd_trace(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            text = trace_wide_text(fh)
        except ValueError as exc:
            raise ValueError(f"trace file {args.input!r}: {exc}") from None
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_solver_flags(sub) -> None:
    sub.add_argument("--of", required=True, help="objective name (see `list`)")
    sub.add_argument("--steps-limit", type=int, default=200)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--digits", type=_positive_int, default=ObjectiveSpec.digits_target)
    sub.add_argument("--targets", default="targets.csv",
                     help="target store path (written by `oracle`)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multiwalk",
        description="Multi-walk and differential-evolution solvers under "
                    "first-passage-time benchmarking.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_list = subs.add_parser("list", help="list registered objectives and target status")
    p_list.add_argument("--targets", default="targets.csv")
    p_list.add_argument("--digits", type=_positive_int, default=ObjectiveSpec.digits_target)
    p_list.set_defaults(fn=_cmd_list)

    p_oracle = subs.add_parser("oracle", help="compute best-known targets by brute force")
    p_oracle.add_argument("--of", required=True,
                          help="objective name, comma list, or 'all'")
    p_oracle.add_argument("--digits", type=_positive_int, default=ObjectiveSpec.digits_target)
    p_oracle.add_argument("--out", default="targets.csv")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_solve = subs.add_parser("solve", help="run one solver once and print the record")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--solver", required=True,
                         help=f"solver spec, e.g. 'MWR:radius=4' (kinds: {', '.join(SOLVER_KINDS)})")
    p_solve.add_argument("--trace-out", default=None)
    p_solve.set_defaults(fn=_cmd_solve)

    p_bench = subs.add_parser("bench", help="N-seed first-passage benchmark")
    _add_solver_flags(p_bench)
    p_bench.add_argument("--solver", action="append", required=True,
                         help="solver spec; repeat for several solvers")
    p_bench.add_argument("--sample-size", type=int, default=ExperimentPlan.sample_size)
    p_bench.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1)
    p_bench.add_argument("--out", required=True, help="output path prefix")
    p_bench.set_defaults(fn=_cmd_bench)

    p_trace = subs.add_parser("trace", help="re-emit a stored walk trace in wide, plot-ready form")
    p_trace.add_argument("input")
    p_trace.add_argument("--out", default=None)
    p_trace.set_defaults(fn=_cmd_trace)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    # ValueError: a refused input, or any other ValueError a command raises;
    # OSError: an unreadable or unwritable path
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
