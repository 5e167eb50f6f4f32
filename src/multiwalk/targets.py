"""Brute-force computation and storage of best-known target values.

Targets are computed before any benchmarking and stored; solvers never
certify their own targets.  Integer staircases are enumerated exhaustively,
continuous objectives get a dense coarse grid scan followed by local grid
refinement with a halving window around each of the best few scan cells.
All of them share one grid scan: ties go to the lowest grid index (lowest
coordinates) and NaN sorts last.  Targets are quantized to ``digits_target``.
trefethen3 is a chain of trefethen2 pairs, f(x, y) + f(y, z), so its scan
sums two 2-D pair grids by broadcasting instead of evaluating every 3-D
point; the sum is the same float operations, so the values are bit for bit
those of its kernel.

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
SCAN_POINTS = 401 ** 2    # most points per slab of a grid scan: one trefethen3 coarse row

# Scan policy per registered objective.  wild's basins are ~0.15 wide over a
# 100-wide box, far below the generic coarse spacing, and its coordinate-mean
# aggregation makes wildP's minimum on [a, b]^P the 1-D term's minimum on [a, b].
# trefethen3's grid values are trefethen2's on the first two axes plus
# trefethen2's on the last two, which the chain scan adds by broadcasting.
_ORACLE_POLICY = {
    "wild1": {"coarse_points": 40001},
    "wild2": {"separable_base": "wild1"},
    "wild3": {"separable_base": "wild1"},
    "trefethen3": {"coarse_points": 401, "chain_base": "trefethen2"},
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

    Returns the quantized lowest non-NaN value and its lowest state.
    Refuses non-staircase objectives and state counts beyond 2**24 (a grid
    scan is no substitute on a staircase), and a staircase whose lowest
    value is not finite.
    """
    if not spec.staircase:
        raise ValueError(f"{spec.name} is not an integer staircase; use grid_refine_minimum")
    lo = int(round(spec.lower[0]))
    hi = int(round(spec.upper[0]))
    if hi - lo + 1 > MAX_ENUMERATION_STATES:
        raise ValueError(
            f"{spec.name} has {hi - lo + 1} states, beyond the enumeration limit "
            f"of {MAX_ENUMERATION_STATES}"
        )
    (value,), (state,) = _scan_top_cells(spec, [np.arange(lo, hi + 1, dtype=float)], keep=1)
    return _target_record(spec, float(value), state, "enumeration")


def _target_record(spec: ObjectiveSpec, value: float, coords, method: str) -> TargetRecord:
    """The scan's best quantized to ``spec.digits_target``.  A target that is
    not finite (every scanned value NaN, or an infinite best) is refused,
    since the store cannot read it back."""
    target = float(quantize(value, spec.digits_target))
    if not math.isfinite(target):
        raise ValueError(f"{spec.name}: the {method} scan found no finite "
                         f"minimum (best {value!r}); no target can be stored")
    return TargetRecord(
        name=spec.name,
        value_target=target,
        digits=spec.digits_target,
        coords=tuple(float(c) for c in coords),
        method=method,
    )


def _scan_top_cells(spec: ObjectiveSpec, axes, keep: int):
    """The ``keep`` lowest values over the tensor grid of ``axes`` and their
    points, best first, evaluated in slabs of whole first-axis rows of at
    most ``SCAN_POINTS`` points (or one row) so 3-D scans stay flat in memory.
    Each slab's top is chosen by ``_lowest`` (a partition, then a stable
    sort of only the cells at or below the cut), which equals the slab's
    stable argsort; the slab tops, in slab order, merge stably, so the result
    is a stable argsort of the whole grid: ties go to the lowest C-order index
    and NaN sorts last.  A kept cell's point is read from the axes at its grid
    index.  A policy's ``chain_base`` makes each slab the broadcast sum of the
    base over the slab's first two axes and over the last two, which is
    computed once."""
    chain = _ORACLE_POLICY.get(spec.name, {}).get("chain_base")
    if chain is not None:
        pair = get_objective(chain).fn
        tail = _grid_values(pair, axes[1:]).reshape(len(axes[1]), len(axes[2]))
    width = math.prod(len(a) for a in axes[1:])
    rows = max(1, SCAN_POINTS // width)
    tops_v, tops_i = [], []
    for start in range(0, len(axes[0]), rows):
        slab = [axes[0][start:start + rows], *axes[1:]]
        if chain is None:
            values = _grid_values(spec.fn, slab)
        else:
            head = _grid_values(pair, slab[:2]).reshape(-1, len(axes[1]), 1)
            values = (head + tail).reshape(-1)
        order = _lowest(values, keep)
        tops_v.append(values[order])
        tops_i.append(order + start * width)
    best_v, best_i = np.concatenate(tops_v), np.concatenate(tops_i)
    merge = _lowest(best_v, keep)
    cells = np.unravel_index(best_i[merge], [len(a) for a in axes])
    return best_v[merge], np.array([a[i] for a, i in zip(axes, cells)]).T


def _grid_values(fn, axes) -> np.ndarray:
    """``fn`` over the points of the tensor grid of ``axes``, in C order."""
    grids = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.asarray(fn(np.stack(grids, axis=-1).reshape(-1, len(axes))), dtype=float)


def _lowest(values: np.ndarray, keep: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:keep]`` without sorting every
    value: the cells at or below the keep-th lowest value hold all of its
    ties in ascending index order, and NaN is never among them.  A keep-th
    value that is NaN (fewer than ``keep`` numbers) takes the full sort."""
    if len(values) > keep:
        cut = np.partition(values, keep - 1)[keep - 1]
        if not np.isnan(cut):
            idx = np.flatnonzero(values <= cut)
            return idx[np.argsort(values[idx], kind="stable")][:keep]
    return np.argsort(values, kind="stable")[:keep]


def _separated_incumbents(values, points, spacing):
    """Greedily keep the ``REFINE_INCUMBENTS`` best cells at least two cells
    apart per dimension, so the refinement seeds cover distinct basins."""
    chosen_v, chosen_x = [], []
    for v, x in zip(values, points):
        if all(np.any(np.abs(x - cx) > 2.0 * spacing) for cx in chosen_x):
            chosen_v.append(float(v))
            chosen_x.append(np.asarray(x, dtype=float))
            if len(chosen_x) == REFINE_INCUMBENTS:
                break
    return chosen_v, chosen_x


def _refine(spec: ObjectiveSpec, best_v: float, best_x: np.ndarray, spacing: np.ndarray):
    """Local grid refinement, halving the window around the incumbent each
    round; the incumbent value never increases."""
    half = 2.0 * spacing
    for _ in range(REFINE_ROUNDS):
        lo = np.maximum(spec.lower, best_x - half)
        hi = np.minimum(spec.upper, best_x + half)
        axes = [np.linspace(lo[d], hi[d], REFINE_POINTS[spec.dims]) for d in range(spec.dims)]
        (v,), (x,) = _scan_top_cells(spec, axes, keep=1)
        if v < best_v:
            best_v, best_x = float(v), x
        half = half / 2.0
    return best_v, best_x


def grid_refine_minimum(spec: ObjectiveSpec) -> TargetRecord:
    """Dense coarse grid scan, then halving-window local refinement around
    each of the best separated scan cells; the lowest value wins, ties going
    to the lowest coordinates, and NaN never beats a number.  The coarse grid
    is the scan policy's, else ``COARSE_POINTS[spec.dims]`` points per dimension.

    Only defined for continuous objectives with at most 3 dimensions; a
    lowest value that is not finite is refused.
    """
    if spec.staircase:
        raise ValueError(f"{spec.name} is an integer staircase; use enumerate_integer_minimum")
    if spec.dims > 3:
        raise ValueError("grid refinement supports at most 3 dimensions")
    coarse = _ORACLE_POLICY.get(spec.name, {}).get("coarse_points", COARSE_POINTS[spec.dims])

    axes = [np.linspace(spec.lower[d], spec.upper[d], coarse) for d in range(spec.dims)]
    spacing = (spec.upper - spec.lower) / (coarse - 1)
    top_v, top_x = _scan_top_cells(spec, axes, keep=8 * REFINE_INCUMBENTS)
    seeds_v, seeds_x = _separated_incumbents(top_v, top_x, spacing)

    best_v, best_x = min((_refine(spec, sv, sx, spacing) for sv, sx in zip(seeds_v, seeds_x)),
                         key=lambda vx: (vx[0], tuple(vx[1])))

    return _target_record(spec, best_v, best_x, "grid+refine")


def compute_target(spec: ObjectiveSpec) -> TargetRecord:
    """Dispatch to enumeration or grid refinement by objective kind, over the
    box and at the digits of ``spec``; a separable objective scans its 1-D
    base over the one interval that all of the spec's coordinates share."""
    if spec.staircase:
        return enumerate_integer_minimum(spec)
    base_name = _ORACLE_POLICY.get(spec.name, {}).get("separable_base")
    if base_name is None:
        return grid_refine_minimum(spec)
    if np.any(spec.lower != spec.lower[0]) or np.any(spec.upper != spec.upper[0]):
        raise ValueError(f"{spec.name} is separable, so its coordinates must share one interval")
    base = grid_refine_minimum(replace(get_objective(base_name), lower=spec.lower[:1],
                                       upper=spec.upper[:1], digits_target=spec.digits_target))
    return replace(base, name=spec.name, coords=base.coords * spec.dims)


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
                    if store.lookup(fields[0], digits) is not None:
                        raise ValueError(f"a second record for ({fields[0]}, {digits})")
                except ValueError as exc:
                    raise ValueError(f"{path}: line {number}: bad target "
                                     f"record {line!r} ({exc})") from None
                store.add(TargetRecord(
                    name=fields[0], value_target=value, digits=digits,
                    coords=coords, method=fields[-1],
                ))
        return store
