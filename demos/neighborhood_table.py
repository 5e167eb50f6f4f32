"""The ruler data structure and its pairwise-difference neighborhood.

A ruler is an ordered set of marks on one problem dimension.  Candidate
moves come from absolute pairwise differences between marks, offset by the
lower bound so every candidate is a coordinate inside the box.  On the
classic 6-mark demo ruler the full neighborhood already contains the global
minimizer of the 17-state staircase objective, so the solver stops after a
single step.
"""

import numpy as np

from multiwalk import (SolverConfig, candidate_table_text, get_objective,
                       run_solver)
from multiwalk.targets import compute_target

marks = np.array([1.0, 2.0, 4.0, 10.0, 12.0, 17.0])[:, None]

print("ruler marks:", marks[:, 0].tolist())
print()
print("full-radius candidate table (rows = marks, columns = neighbors):")
print(candidate_table_text(marks, [1.0], [17.0]))

spec = get_objective("ehrenfest4")
record = compute_target(spec)
print(f"oracle target for {spec.name}: {record.value_target!r} at x = {record.coords[0]}")
print("note the candidate 9 in row 3: one step away from the optimum.")
print()

spec = spec.with_target(record.value_target)
cfg = SolverConfig(kind="MW", seed=1, steps_limit=50, marks=6, radius=4,
                   dither=0.0)
run = run_solver(cfg, spec, initial_marks=marks)
print(f"solve from this ruler: steps={run.steps}, censored={run.is_censored}, "
      f"valueBest={run.value_best!r}, coordBest={run.coord_best}")
