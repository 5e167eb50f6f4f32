"""First-passage benchmarking across neighborhood radii, desk scale.

Runs the restarting multi-walk solver at several neighborhood radii on the
32769-state staircase objective, 20 seeds each, and writes Fig-style
bargraph data (inclusive means, censored runs entering at the step limit).
The full 100-seed protocol lives in the acceptance suite.
"""

from multiwalk import (ExperimentPlan, SolverConfig, get_objective,
                       run_experiment, summarize_experiment,
                       write_bargraph_csv, write_summary_csv)
from multiwalk.targets import compute_target

record = compute_target(get_objective("ehrenfest15"))
spec = get_objective("ehrenfest15").with_target(record.value_target)
print(f"objective ehrenfest15, target {record.value_target!r} at x = {record.coords[0]}")

configs = [SolverConfig(kind="MWR", seed=1, steps_limit=200, marks=32,
                        radius=r, dither=0.01)
           for r in (2, 4, 8, 30)]
configs.append(SolverConfig(kind="DEsFR", seed=1, steps_limit=200, marks=32))
plan = ExperimentPlan(spec=spec, configs=configs, sample_size=20)

results = run_experiment(plan)
summaries = summarize_experiment(plan, results)
print()
print(f"{'solver':>8} {'n':>4} {'censored':>9} {'mean steps (unc)':>17} {'mean probes':>12}")
for s in summaries:
    mean = "-" if s.mean_steps_unc is None else f"{s.mean_steps_unc:.2f}"
    print(f"{s.label:>8} {s.n:>4} {s.censored:>9} {mean:>17} {s.mean_probes:>12.0f}")

write_summary_csv("sweep_summary.csv", plan, summaries)
write_bargraph_csv("sweep_bars.csv", plan, summaries)
print()
print("wrote sweep_summary.csv and sweep_bars.csv (solver,mean,stderr,censored)")
print("steps are the coarse cost unit; probes count objective evaluations,")
print("and one multi-walk step costs marks*radius probes versus marks for DE.")
