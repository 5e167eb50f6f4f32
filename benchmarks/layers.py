"""Outside-in layer trace for the multiwalk package.

The tracer wraps public functions of the package modules where they are
looked up: ``solvers``, ``ruler``, ``experiments``, ``cli`` and ``targets``
import their callees by name, so a wrapper on the defining module alone would
miss every call made through those copies.  Each objective's ``fn`` is
wrapped by wrapping ``get_objective`` in ``cli`` and ``targets``, the two
places the CLI obtains specs from.

Spans stay in memory as (name, start, end, parent) until ``summary()``; a
layer's self time is its spans' duration minus the part their child spans
cover.  Nothing is traced in pool children, so traced runs use one worker.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped wherever the package binds them by name.
TRACED_FUNCTIONS = (
    ("objectives", "evaluate_batch"),
    ("objectives", "quantize"),
    ("ruler", "neighborhood_eval"),
    ("solvers", "run_solver"),
    ("solvers", "mw_step"),
    ("experiments", "run_experiment"),
    ("experiments", "summarize_experiment"),
    ("experiments", "write_runs_csv"),
    ("experiments", "write_summary_csv"),
    ("experiments", "write_bargraph_csv"),
    ("targets", "compute_target"),
    ("targets", "grid_refine_minimum"),
    ("targets", "enumerate_integer_minimum"),
)
PACKAGE_MODULES = ("objectives", "ruler", "solvers", "experiments", "targets", "cli")


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = dataclasses.field(default_factory=list)


class Tracer:
    """Records spans of the wrapped functions and counts the points and
    probes that cross the objective boundary."""

    def __init__(self, package):
        self._package = package
        self._names: list = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._stack: list = []
        self._patches: list = []
        self.counts: dict = defaultdict(int)

    def wrap(self, name, fn, count=None):
        names, starts, ends, parents, stack = (self._names, self._starts, self._ends,
                                               self._parents, self._stack)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if count is not None:
                count(args)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = self._package
        modules = [getattr(pkg, m) for m in PACKAGE_MODULES]
        counts = self.counts

        def count_probes(args):
            counts["objectives.evaluate_batch.probes"] += len(args[1])

        def count_points(args):
            counts["objectives.fn.points"] += len(args[0])

        for mod_name, fn_name in TRACED_FUNCTIONS:
            original = getattr(getattr(pkg, mod_name), fn_name)
            count = count_probes if fn_name == "evaluate_batch" else None
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, count)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._set(mod, fn_name, wrapper)

        get_objective = pkg.objectives.get_objective

        def traced_get_objective(name):
            spec = get_objective(name)
            return dataclasses.replace(
                spec, fn=self.wrap("objectives.fn", spec.fn, count_points))

        for mod in (pkg.cli, pkg.targets):
            self._set(mod, "get_objective", traced_get_objective)

        self._set(pkg.cli, "main", self.wrap("cli.main", pkg.cli.main))

        store = pkg.targets.TargetStore
        load = store.__dict__["load"].__func__
        self._set(store, "load", classmethod(self.wrap("targets.TargetStore.load", load)))
        self._set(store, "save", self.wrap("targets.TargetStore.save", store.save))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total duration, self time and durations."""
        starts = np.array(self._starts, dtype=float)
        ends = np.array(self._ends, dtype=float)
        parents = np.array(self._parents, dtype=np.int64)
        durations = ends - starts
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=durations[nested],
                            minlength=len(durations))
        stats: dict = defaultdict(SpanStats)
        for name, dur, own in zip(self._names, durations.tolist(),
                                  (durations - child).tolist()):
            s = stats[name]
            s.calls += 1
            s.total_s += dur
            s.self_s += own
            s.durations.append(dur)
        return stats
