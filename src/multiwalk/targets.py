"""Brute-force computation and storage of best-known target values.

Targets are computed before any benchmarking and stored; solvers never
certify their own targets.  Integer staircases are enumerated exhaustively,
continuous objectives get a dense coarse grid scan followed by local grid
refinement with a halving window around each of the best few scan cells.
Every target is quantized to the spec's ``digits_target``.

A wrong target poisons every benchmark on its objective (a solver that finds
a better value than the stored target can never match it), so the per-
objective scan policy errs on the dense side and the averaged ``wild``
family is reduced to its 1-D term, which the mean-aggregation makes exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .objectives import MAX_ENUMERATION_STATES, ObjectiveSpec, get_objective, quantize

__all__ = [
    "TargetRecord",
    "TargetStore",
    "enumerate_integer_minimum",
    "grid_refine_minimum",
    "compute_target",
]

COARSE_POINTS = {1: 4001, 2: 1001, 3: 201}
REFINE_POINTS = {1: 33, 2: 33, 3: 11}
REFINE_ROUNDS = 60
REFINE_INCUMBENTS = 8

# Scan policy per registered objective.  wild's basins are ~0.15 wide over a
# 100-wide box, far below the generic coarse spacing, and its coordinate-mean
# aggregation makes the minimum of every wildP the minimum of the 1-D term.
_ORACLE_POLICY = {
    "wild1": {"coarse_points": 40001},
    "wild2": {"separable_base": "wild1"},
    "wild3": {"separable_base": "wild1"},
    "trefethen3": {"coarse_points": 401},
}


@dataclass(frozen=True)
class TargetRecord:
    """Best-known value for one objective, quantized to ``digits``."""

    name: str
    value_target: float
    digits: int
    coords: tuple            # primary minimizer (lowest, when tied)
    method: str              # "enumeration" | "grid+refine"


def enumerate_integer_minimum(spec: ObjectiveSpec) -> TargetRecord:
    """Exhaustive scan of every integer state of a staircase objective.

    Returns the quantized exact minimum and its lowest minimizer.  Refuses
    non-staircase objectives and state counts beyond 2**24; a grid scan is
    no substitute on a staircase.
    """
    if not spec.staircase:
        raise ValueError(f"{spec.name} is not an integer staircase; use grid_refine_minimum")
    lo = int(round(spec.lower[0]))
    hi = int(round(spec.upper[0]))
    n_states = hi - lo + 1
    if n_states > MAX_ENUMERATION_STATES:
        raise ValueError(
            f"{spec.name} has {n_states} states, beyond the enumeration limit "
            f"of {MAX_ENUMERATION_STATES}"
        )
    xs = np.arange(lo, hi + 1, dtype=float)[:, None]
    values = np.asarray(spec.fn(xs), dtype=float)
    best = int(np.argmin(values))  # first minimum = lowest state
    return TargetRecord(
        name=spec.name,
        value_target=float(quantize(float(values[best]), spec.digits_target)),
        digits=spec.digits_target,
        coords=(float(xs[best, 0]),),
        method="enumeration",
    )


def _scan_top_cells(spec: ObjectiveSpec, axes, keep: int):
    """Lowest-value grid points of a full tensor scan, chunked along the
    first axis so 3-D scans stay flat in memory.  Ties and orderings resolve
    toward the lowest coordinates (C-order argmin)."""
    dims = spec.dims
    if dims == 1:
        pts = axes[0][:, None]
        values = np.asarray(spec.fn(pts), dtype=float)
        order = np.argsort(values, kind="stable")[:keep]
        return values[order], pts[order]
    rest = np.meshgrid(*axes[1:], indexing="ij")
    tail = np.stack([r.ravel() for r in rest], axis=1)
    best_v = np.empty(0)
    best_x = np.empty((0, dims))
    for x0 in axes[0]:
        pts = np.column_stack([np.full(len(tail), x0), tail])
        values = np.asarray(spec.fn(pts), dtype=float)
        order = np.argsort(values, kind="stable")[:keep]
        best_v = np.concatenate([best_v, values[order]])
        best_x = np.concatenate([best_x, pts[order]])
        merge = np.argsort(best_v, kind="stable")[:keep]
        best_v, best_x = best_v[merge], best_x[merge]
    return best_v, best_x


def _separated_incumbents(values, points, spacing, keep: int):
    """Greedily keep the best cells at least two cells apart per dimension,
    so the refinement seeds cover distinct basins."""
    chosen_v, chosen_x = [], []
    for v, x in zip(values, points):
        if all(np.any(np.abs(x - cx) > 2.0 * spacing) for cx in chosen_x):
            chosen_v.append(float(v))
            chosen_x.append(np.asarray(x, dtype=float))
            if len(chosen_x) == keep:
                break
    return chosen_v, chosen_x


def _refine(spec: ObjectiveSpec, start_v: float, start_x: np.ndarray,
            spacing: np.ndarray):
    """Local grid refinement, halving the window around the incumbent each
    round; the incumbent value never increases."""
    local = REFINE_POINTS[spec.dims]
    best_v, best_x = start_v, np.asarray(start_x, dtype=float)
    half = 2.0 * spacing
    for _ in range(REFINE_ROUNDS):
        lo = np.maximum(spec.lower, best_x - half)
        hi = np.minimum(spec.upper, best_x + half)
        axes = [np.linspace(lo[d], hi[d], local) for d in range(spec.dims)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        values = np.asarray(spec.fn(pts), dtype=float)
        i = int(np.argmin(values))
        if values[i] < best_v:
            best_v = float(values[i])
            best_x = pts[i].copy()
        half = half / 2.0
    return best_v, best_x


def grid_refine_minimum(spec: ObjectiveSpec) -> TargetRecord:
    """Dense coarse grid scan, then halving-window local refinement around
    each of the best separated scan cells; the overall best wins, ties
    breaking toward the lowest coordinates.  The coarse grid is the scan
    policy's, else ``COARSE_POINTS[spec.dims]`` points per dimension.

    Only defined for continuous objectives with at most 3 dimensions.
    """
    if spec.staircase:
        raise ValueError(f"{spec.name} is an integer staircase; use enumerate_integer_minimum")
    if spec.dims > 3:
        raise ValueError("grid refinement supports at most 3 dimensions")
    coarse = _ORACLE_POLICY.get(spec.name, {}).get("coarse_points", COARSE_POINTS[spec.dims])

    axes = [np.linspace(spec.lower[d], spec.upper[d], coarse) for d in range(spec.dims)]
    spacing = (spec.upper - spec.lower) / (coarse - 1)
    top_v, top_x = _scan_top_cells(spec, axes, keep=max(REFINE_INCUMBENTS * 8, 32))
    seeds_v, seeds_x = _separated_incumbents(top_v, top_x, spacing, REFINE_INCUMBENTS)

    best_v, best_x = math.inf, None
    for sv, sx in zip(seeds_v, seeds_x):
        v, x = _refine(spec, sv, sx, spacing)
        if v < best_v or (v == best_v and tuple(x) < tuple(best_x)):
            best_v, best_x = v, x

    return TargetRecord(
        name=spec.name,
        value_target=float(quantize(best_v, spec.digits_target)),
        digits=spec.digits_target,
        coords=tuple(float(c) for c in best_x),
        method="grid+refine",
    )


def compute_target(spec: ObjectiveSpec) -> TargetRecord:
    """Dispatch to enumeration or grid refinement by objective kind,
    applying the per-objective scan policy."""
    if spec.staircase:
        return enumerate_integer_minimum(spec)
    base_name = _ORACLE_POLICY.get(spec.name, {}).get("separable_base")
    if base_name is not None:
        base = compute_target(replace(get_objective(base_name),
                                      digits_target=spec.digits_target))
        return replace(base, name=spec.name, coords=base.coords * spec.dims)
    return grid_refine_minimum(spec)


class TargetStore:
    """Text-backed store of target records, keyed by (objective, digits).

    One record per line: ``name,valueTarget,digits,coords...,method`` with
    the method tag last so the coordinate list can span p fields.
    """

    def __init__(self):
        self._records: dict = {}

    def add(self, record: TargetRecord) -> None:
        self._records[(record.name, record.digits)] = record

    def lookup(self, name: str, digits: int) -> Optional[TargetRecord]:
        return self._records.get((name, digits))

    def records(self) -> list:
        return [self._records[k] for k in sorted(self._records)]

    def apply(self, spec: ObjectiveSpec) -> ObjectiveSpec:
        """Return the spec with its stored target filled in; raise if the
        store has no record for it at ``spec.digits_target``."""
        record = self.lookup(spec.name, spec.digits_target)
        if record is None:
            raise KeyError(
                f"no stored target for {spec.name!r} at {spec.digits_target} digits; "
                "run the target oracle first"
            )
        return spec.with_target(record.value_target)

    def dumps(self) -> str:
        lines = ["# name,valueTarget,digits,coords...,method"]
        for rec in self.records():
            coords = ",".join(repr(float(c)) for c in rec.coords)
            lines.append(f"{rec.name},{rec.value_target!r},{rec.digits},{coords},{rec.method}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "TargetStore":
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for number, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split(",")
                try:
                    if len(fields) < 5:
                        raise ValueError("too few fields")
                    value = float(fields[1])
                    if not math.isfinite(value):
                        raise ValueError("valueTarget must be finite")
                    digits = int(fields[2])
                    if digits < 1:
                        raise ValueError("digits must be >= 1")
                    coords = tuple(float(c) for c in fields[3:-1])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {number}: malformed target "
                                     f"record {line!r} ({exc})") from None
                store.add(TargetRecord(
                    name=fields[0], value_target=value, digits=digits,
                    coords=coords, method=fields[-1],
                ))
        return store
