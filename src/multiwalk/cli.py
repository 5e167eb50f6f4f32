"""Command-line front end: list objectives, compute targets, run single
solves with traces, run N-seed benchmarks, emit CSV/bargraph/trace files.

Exit status: 0 on success; 1 on any bad input (flags, solver specs, target
stores, walk traces, unreadable or unwritable paths), reported as one
``error:`` line; 2 only when a benchmark completes but every run of some
solver was censored (the comparison is then unreliable).
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (ExperimentPlan, run_experiment, summarize_experiment,
                          write_bargraph_csv, write_runs_csv, write_summary_csv)
from .objectives import get_objective, objective_names
from .solvers import (SOLVER_KINDS, SolverConfig, parse_trace, run_solver,
                      trace_to_text)
from .targets import TargetStore, compute_target

_KEY_TYPES = {
    **dict.fromkeys(("marks", "radius", "plateau_limit", "steps_limit", "seed",
                     "digits_target"), int),
    **dict.fromkeys(("dither", "rde", "cr", "de_jitter"), float),
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports argparse's own errors (bad, missing or unknown flags) as
    CliError, so they exit 1 like every other bad input; subparsers inherit
    the class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _parse_solver_spec(text: str, args) -> SolverConfig:
    """Parse ``KIND`` or ``KIND:key=value,...``; unset keys fall back to the
    global flags."""
    kind, _, tail = text.partition(":")
    kind = kind.strip()
    fields = {
        "kind": kind,
        "objective": args.of,
        "seed": args.seed,
        "steps_limit": args.steps_limit,
        "marks": args.marks,
        "radius": args.radius,
        "dither": args.dither,
        "rde": args.rde,
        "cr": args.cr,
        "plateau_limit": args.plateau_limit,
        "digits_target": args.digits,
    }
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().replace("-", "_")
            if not eq:
                raise CliError(f"bad solver option {item!r} in {text!r} (expected key=value)")
            if key == "label":
                fields["label"] = value.strip()
            elif key in _KEY_TYPES:
                try:
                    fields[key] = _KEY_TYPES[key](value)
                except ValueError:
                    raise CliError(f"bad value {value!r} for solver option {key!r} "
                                   f"in {text!r}") from None
            else:
                raise CliError(f"unknown solver option {key!r} in {text!r}")
    try:
        return SolverConfig(**fields)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _load_store(path) -> TargetStore:
    """The target store at ``path``, or an empty one if there is none."""
    if not os.path.exists(path):
        return TargetStore()
    try:
        return TargetStore.load(path)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _load_objective(args):
    try:
        spec = get_objective(args.of)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from None
    if not os.path.exists(args.targets):
        raise CliError(
            f"target store {args.targets!r} not found; compute it with "
            f"`multiwalk oracle --of {args.of}`"
        )
    store = _load_store(args.targets)
    try:
        return store.apply(spec, args.digits)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from None


def _config_lines(spec, configs, sample_size=None, base_seed=None):
    lines = [
        f"objective = {spec.name} (p = {spec.dims}, bounds = "
        f"[{', '.join(repr(float(v)) for v in spec.lower)}] .. "
        f"[{', '.join(repr(float(v)) for v in spec.upper)}])",
        f"valueTarget = {spec.value_target!r} (digitsTarget = {spec.digits_target})",
    ]
    for cfg in configs:
        parts = [f"kind={cfg.kind}", f"marks={cfg.marks}"]
        if cfg.uses_ruler:
            parts.append(f"radius={cfg.radius}")
            parts.append(f"dither={cfg.dither!r}")
        else:
            parts.append(f"rde={cfg.rde!r}")
            if cfg.de_strategy is not None:
                parts.append(f"cr={cfg.cr!r}")
        parts.append(f"stepsLimit={cfg.steps_limit}")
        if cfg.restarts_enabled:
            parts.append(f"plateauLimit={cfg.effective_plateau_limit}")
        parts.append(f"digitsTarget={cfg.digits_target}")
        lines.append(f"solver {cfg.solver_label}: " + " ".join(parts))
    if sample_size is not None:
        lines.append(f"sampleSize = {sample_size}")
    if base_seed is not None:
        lines.append(f"baseSeed = {base_seed}")
    return lines


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
    if args.digits < 1:
        raise CliError(f"--digits must be >= 1, got {args.digits}")
    names = objective_names() if args.of == "all" else [n.strip() for n in args.of.split(",")]
    store = _load_store(args.out)
    for name in names:
        try:
            spec = get_objective(name)
        except KeyError as exc:
            raise CliError(str(exc.args[0])) from None
        record = compute_target(spec, digits=args.digits)
        store.add(record)
        coords = ",".join(repr(float(c)) for c in record.coords)
        print(f"{name}: valueTarget = {record.value_target!r} at ({coords}) "
              f"[{record.method}, digits = {record.digits}]")
    store.save(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_solve(args) -> int:
    spec = _load_objective(args)
    cfg = _parse_solver_spec(args.solver, args)
    if args.trace_out:
        record, trace = run_solver(cfg, spec, record_trace=True)
        lines = _config_lines(spec, [cfg])
        with open(args.trace_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(trace_to_text(trace, config_lines=lines))
    else:
        record = run_solver(cfg, spec)
    print(f"objective = {spec.name}")
    print(f"solver = {cfg.solver_label}")
    print(f"seed = {record.seed}")
    print(f"steps = {record.steps}")
    print(f"probes = {record.probes}")
    print(f"restarts = {record.restarts}")
    print(f"censored = {'true' if record.is_censored else 'false'}")
    print(f"valueBest = {record.value_best!r}")
    print(f"agentId = {record.agent_id}")
    print(f"coordBest = {','.join(repr(c) for c in record.coord_best)}")
    return 0


def _cmd_bench(args) -> int:
    spec = _load_objective(args)
    configs = [_parse_solver_spec(s, args) for s in args.solver]
    try:
        plan = ExperimentPlan(objective=args.of, configs=configs,
                              sample_size=args.sample_size)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    results = run_experiment(plan, spec, workers=args.workers)
    summaries = summarize_experiment(plan, results)
    lines = _config_lines(spec, plan.configs, sample_size=plan.sample_size,
                          base_seed=args.seed)
    write_runs_csv(f"{args.out}_runs.csv", plan, results, config_lines=lines)
    write_summary_csv(f"{args.out}_summary.csv", plan, summaries, config_lines=lines)
    write_bargraph_csv(f"{args.out}_bars.csv", summaries, config_lines=lines)
    status = 0
    for s in summaries:
        flag = " (all runs censored!)" if s.censored == s.n else ""
        if s.censored == s.n:
            status = 2
        mean = "n/a" if s.mean_steps_unc is None else f"{s.mean_steps_unc:.2f}"
        print(f"{s.label}: n={s.n} censored={s.censored} mean_steps_unc={mean}{flag}")
    print(f"wrote {args.out}_runs.csv, {args.out}_summary.csv, {args.out}_bars.csv")
    return status


def _cmd_trace(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            comments, rows = parse_trace(fh)
        except ValueError as exc:
            raise CliError(f"trace file {args.input!r}: {exc}") from None
    if not rows:
        raise CliError(f"trace file {args.input!r} has no data rows")
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
    text = "\n".join(out) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_solver_flags(sub) -> None:
    sub.add_argument("--of", required=True, help="objective name (see `list`)")
    sub.add_argument("--marks", type=int, default=32)
    sub.add_argument("--radius", type=int, default=None)
    sub.add_argument("--dither", type=float, default=0.01)
    sub.add_argument("--rde", type=float, default=1.0)
    sub.add_argument("--cr", type=float, default=0.9)
    sub.add_argument("--steps-limit", type=int, default=200, dest="steps_limit")
    sub.add_argument("--plateau-limit", type=int, default=None, dest="plateau_limit")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--digits", type=int, default=9)
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
    p_list.add_argument("--digits", type=int, default=9)
    p_list.set_defaults(fn=_cmd_list)

    p_oracle = subs.add_parser("oracle", help="compute best-known targets by brute force")
    p_oracle.add_argument("--of", required=True,
                          help="objective name, comma list, or 'all'")
    p_oracle.add_argument("--digits", type=int, default=9)
    p_oracle.add_argument("--out", default="targets.csv")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_solve = subs.add_parser("solve", help="run one solver once and print the record")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--solver", required=True,
                         help=f"solver spec, e.g. 'MWR:radius=4' (kinds: {', '.join(SOLVER_KINDS)})")
    p_solve.add_argument("--trace-out", default=None, dest="trace_out")
    p_solve.set_defaults(fn=_cmd_solve)

    p_bench = subs.add_parser("bench", help="N-seed first-passage benchmark")
    _add_solver_flags(p_bench)
    p_bench.add_argument("--solver", action="append", required=True,
                         help="solver spec; repeat for several solvers")
    p_bench.add_argument("--sample-size", type=int, default=100, dest="sample_size")
    p_bench.add_argument("--workers", type=int, default=os.cpu_count() or 1)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
