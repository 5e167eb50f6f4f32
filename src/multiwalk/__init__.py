"""Multi-walk stochastic global optimizer, differential-evolution baselines,
and an uncensored first-passage-time benchmarking harness."""

from .experiments import (ExperimentPlan, run_experiment, summarize_experiment,
                          write_bargraph_csv, write_summary_csv)
from .objectives import get_objective, objective_names
from .ruler import candidate_table_text
from .solvers import SolverConfig, WalkTrace, run_solver, trace_to_text
from .targets import TargetStore

__version__ = "0.1.0"
