"""Recording per-agent walks with restart boundaries.

Every mark doubles as an agent whose objective value is recorded after each
step.  Restarting solvers draw a fresh seed whenever the error plateaus for
``plateau_limit`` consecutive steps, and the trace keeps the epoch index so
plots can show dotted restart segments.  The run ends at first passage: the
step where the quantized running best first equals the quantized target.
"""

from dataclasses import replace

from multiwalk import SolverConfig, WalkTrace, get_objective, run_solver, trace_to_text
from multiwalk.targets import compute_target

spec = replace(get_objective("trefethen1"), digits_target=6)
spec = spec.with_target(compute_target(spec).value_target)
print(f"objective trefethen1, six-digit target {spec.value_target!r}")
print()

for kind, extra in (("MWR", dict(radius=4, dither=0.01)), ("DEsFR", {})):
    cfg = SolverConfig(kind=kind, seed=5, steps_limit=2000, marks=32, **extra)
    trace = WalkTrace(cfg, spec)  # an observer: it sees every epoch and step
    run = run_solver(cfg, spec, observe=trace)
    passage = "none" if run.is_censored else f"step {run.steps}, agent {run.agent_id}"
    print(f"{cfg.solver_label}: steps={run.steps} probes={run.probes} "
          f"restarts={run.restarts} first_passage={passage}")
    path = f"walk_{cfg.solver_label}.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_text(trace, run))
    print(f"  trace written to {path}  (wide form: multiwalk trace {path})")
print()
print("columns: step,restart,agentId,value; the footer is the run record's first passage.")
