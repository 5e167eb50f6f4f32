"""Brute-force computation and storage of best-known target values.

Targets are computed before any benchmarking and stored; solvers never
certify their own targets.  Integer staircases are enumerated exhaustively,
continuous objectives get a dense coarse grid scan followed by local grid
refinement with a halving window around each of the best few scan cells,
all windows in lockstep with one kernel call per round.  Enumeration and
the coarse scan share one grid scan; it and every refinement window rank
NaN as ``+inf``, as ``evaluate_batch`` does, and ties to the lowest grid
index (lowest coordinates).  Targets are quantized to ``digits_target``.

A target is a function of the spec's kernel, box and digits, never of its
name: each kernel's scan policy errs on the dense side, since a wrong target
poisons every benchmark on its objective (a solver that finds a better value
than the stored target can never match it).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .objectives import (BATCH_POINTS, MAX_ENUMERATION_STATES, ObjectiveSpec, get_objective,
                         quantize, wild)

__all__ = [
    "TargetStore",
    "enumerate_integer_minimum",
    "grid_refine_minimum",
    "compute_target",
]

COARSE_POINTS = {1: 4001, 2: 1001, 3: 201}
REFINE_POINTS = {1: 33, 2: 33, 3: 11}
REFINE_ROUNDS = 60
REFINE_INCUMBENTS = 8

# Scan policy per registered kernel: wild's basins (~0.15 wide in a 100-wide
# box) need a dense grid, and its coordinate mean makes its minimum on
# [a, b]^P the 1-D term's on [a, b]; trefethen3's values are trefethen2's on
# the first two axes plus on the last two, which the chain scan broadcasts.
_ORACLE_POLICY = (
    (wild, {"coarse_points": 40001, "separable": True}),
    (get_objective("trefethen3").fn, {"coarse_points": 401, "chain_base": "trefethen2"}),
)


def _policy(spec: ObjectiveSpec) -> dict:
    """The scan policy of ``inspect.unwrap(spec.fn)``, matched by identity (a
    kernel need not be hashable): a wrapper that sets ``__wrapped__`` keeps
    its kernel's policy, one that hides it gets the generic scan."""
    kernel = inspect.unwrap(spec.fn)
    return next((policy for fn, policy in _ORACLE_POLICY if fn is kernel), {})


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

    Returns the quantized lowest value (NaN ranking as ``+inf``) and its
    lowest state.  Refuses non-staircase objectives and state counts beyond
    2**24 (a grid scan is no substitute on a staircase), and a staircase
    whose lowest value is not finite.
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
    (value,), (state,) = _scan_top_cells(spec.fn, [np.arange(lo, hi + 1, dtype=float)], keep=1)
    return _target_record(spec, float(value), state, "enumeration")


def _target_record(spec: ObjectiveSpec, value: float, coords, method: str) -> TargetRecord:
    """The scan's best quantized to ``spec.digits_target``.  A target that is
    not finite (``+inf`` when every value is NaN, or ``-inf``) is refused,
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


def _scan_top_cells(fn, axes, keep: int, pair=None):
    """The ``keep`` lowest values of ``fn`` over the tensor grid of ``axes``
    and their points, best first, evaluated in slabs of at most
    ``BATCH_POINTS`` points, taken as flat C-order index ranges, so every
    scan stays flat in memory.  Each slab merges into the running top by
    ``_merge``, and the top's cells precede the slab's, so the result is a
    stable argsort of the whole grid with NaN read as ``+inf``: ties go to
    the lowest C-order index.  A chain's ``pair`` kernel makes the scan
    ``_chain_top_cells``."""
    shape = [len(a) for a in axes]
    if pair is not None:
        top_v, top_i = _chain_top_cells(pair, axes, keep)
    else:
        top_v, top_i = np.empty(0), np.empty(0, dtype=np.intp)
        for cells in _slabs(math.prod(shape)):
            values = _grid_values(fn, np.unravel_index(cells, shape), axes)
            top_v, top_i = _merge(top_v, top_i, values, cells, keep)
    return top_v, _points(axes, np.unravel_index(top_i, shape))


def _chain_top_cells(pair, axes, keep: int):
    """``_scan_top_cells`` of a chain: each value is the broadcast sum of
    ``pair`` over the first two axes (the head cell) and over the last two,
    each pair grid evaluated once in slabs (one grid serves both when the
    three axes are equal).  A slab is at most ``BATCH_POINTS // n2`` head
    cells (at least one), each with its ``n2`` sums.  Once the running top is
    full, a slab skips the head cells whose head plus their row's lowest tail
    (NaN skipped) is above the top's last value: rounding is monotone, so no
    sum of theirs could enter the top, and a NaN bound skips nothing.
    Returns the top's values and flat indices, as ``_merge`` ranks them."""
    n1, n2 = len(axes[1]), len(axes[2])

    def pair_grid(ax):
        shape = (len(ax[0]), len(ax[1]))
        return np.concatenate([_grid_values(pair, np.unravel_index(c, shape), ax)
                               for c in _slabs(math.prod(shape))])

    tail = pair_grid(axes[1:]).reshape(n1, n2)
    same = np.array_equal(axes[0], axes[1]) and np.array_equal(axes[1], axes[2])
    head = tail.reshape(-1) if same else pair_grid(axes[:2])
    floor = np.fmin.reduce(tail, axis=1)
    step = max(1, BATCH_POINTS // n2)
    top_v, top_i = np.empty(0), np.empty(0, dtype=np.intp)
    for cells in _slabs(len(head)):
        while len(cells):  # prune against the current top, then take one slab
            cut = top_v[-1] if len(top_v) == keep else np.inf  # nothing is above +inf
            cells = cells[~(head[cells] + floor[cells % n1] > cut)]
            r, cells = cells[:step], cells[step:]
            top_v, top_i = _merge(top_v, top_i, (head[r, None] + tail[r % n1]).reshape(-1),
                                  (r[:, None] * n2 + np.arange(n2)).reshape(-1), keep)
    return top_v, top_i


def _slabs(n: int):
    """The flat indices ``0..n-1`` in ranges of at most ``BATCH_POINTS``."""
    for start in range(0, n, BATCH_POINTS):
        yield np.arange(start, min(start + BATCH_POINTS, n))


def _points(axes, idx) -> np.ndarray:
    """The points of the tensor grid of ``axes`` at the grid index ``idx``,
    one row of coordinates each.  ``idx`` holds one index per axis: an
    ``np.unravel_index`` array, or for axes of shape ``(K, n_d)``, K windows
    stacked by row, a ``(window, array)`` pair, so the window comes first."""
    return np.stack([a[i] for a, i in zip(axes, idx)], -1)


def _grid_values(fn, idx, *grids) -> np.ndarray:
    """``fn``, in one call, at the points ``_points(axes, idx)`` of each of
    ``grids`` in turn: the oracle's one kernel call.  A scan slab holds at
    most ``BATCH_POINTS`` points, a refinement round at most
    ``REFINE_INCUMBENTS`` windows of ``REFINE_POINTS[dims]**dims``."""
    points = [_points(axes, idx).reshape(-1, len(axes)) for axes in grids]
    return np.asarray(fn(np.concatenate(points)), dtype=float)


def _merge(top_v, top_i, values, idx, keep: int):
    """The ``keep`` lowest of the running top followed by a slab, NaN read as
    ``+inf`` (and returned so), as the head of a stable argsort: the cells at
    or below the keep-th lowest value hold all of its ties in index order."""
    v, i = np.fmin(np.concatenate([top_v, values]), np.inf), np.concatenate([top_i, idx])
    kth = min(keep, len(v)) - 1
    cells = np.flatnonzero(v <= np.partition(v, kth)[kth])
    cells = cells[np.argsort(v[cells], kind="stable")][:keep]
    return v[cells], i[cells]


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


def _refine(spec: ObjectiveSpec, seeds_v, seeds_x, spacing: np.ndarray, pair):
    """Local grid refinement of every incumbent in lockstep: each round halves
    the windows around the incumbents and evaluates all their grids (or, for
    a chain's ``pair`` kernel, the head and tail pair grids) in one kernel
    call.  Each window picks its lowest value by the scan's rule (NaN as
    ``+inf``, ties to the lowest index), and its incumbent moves only to a
    lower value, so a window with no value below ``+inf`` never moves it."""
    best_v, best_x = np.array(seeds_v, dtype=float), np.array(seeds_x, dtype=float)
    win, n = np.arange(len(best_v)), REFINE_POINTS[spec.dims]
    shape = [n] * (spec.dims if pair is None else 2)  # a chain evaluates pair grids
    grid = [(win[:, None], i) for i in np.unravel_index(np.arange(n ** len(shape)), shape)]
    half = 2.0 * spacing
    for _ in range(REFINE_ROUNDS):
        lo = np.maximum(spec.lower, best_x - half)
        hi = np.minimum(spec.upper, best_x + half)
        # numpy's linspace per axis (arange * step + start, then the endpoint;
        # lo + 0.0 on a zero-width window): a stacked linspace would take its
        # zero-step formula for every row once any window has zero width
        axes = lo.T[..., None] + np.arange(n) * ((hi - lo) / (n - 1)).T[..., None]
        axes[..., -1] = hi.T
        if pair is None:
            values = _grid_values(spec.fn, grid, axes).reshape(len(win), -1)
        else:
            head, tail = _grid_values(pair, grid, axes[:2], axes[1:]).reshape(2, -1, n, n)
            values = (head[:, :, :, None] + tail[:, None]).reshape(len(win), -1)
        pick = np.fmin(values, np.inf).argmin(axis=1)
        v = values[win, pick]
        x = _points(axes, [(win, i) for i in np.unravel_index(pick, [n] * spec.dims)])
        better = v < best_v
        best_v[better], best_x[better] = v[better], x[better]
        half = half / 2.0
    return best_v, best_x


def grid_refine_minimum(spec: ObjectiveSpec) -> TargetRecord:
    """Dense coarse grid scan, then halving-window local refinement around
    each of the best separated scan cells; the lowest value wins (NaN as
    ``+inf``, ties to the lowest coordinates).  The scan policy, read once,
    gives the coarse grid (else ``COARSE_POINTS[dims]`` points per axis), a
    chain's pair kernel for scan and refinement, and a separable kernel's
    path on its first coordinate alone, over the interval all coordinates
    must share, with the minimizer repeated.  Only continuous objectives
    with at most 3 scanned dimensions; a non-finite lowest value is refused.
    """
    if spec.staircase:
        raise ValueError(f"{spec.name} is an integer staircase; use enumerate_integer_minimum")
    policy, scan = _policy(spec), spec
    if policy.get("separable"):
        if np.any(spec.lower != spec.lower[0]) or np.any(spec.upper != spec.upper[0]):
            raise ValueError(f"{spec.name} is separable: its coordinates must share one interval")
        scan = replace(spec, dims=1, lower=spec.lower[:1], upper=spec.upper[:1])
    elif spec.dims > 3:
        raise ValueError("grid refinement supports at most 3 dimensions")
    pair = get_objective(policy["chain_base"]).fn if "chain_base" in policy else None
    coarse = policy.get("coarse_points", COARSE_POINTS[scan.dims])
    axes = [np.linspace(scan.lower[d], scan.upper[d], coarse) for d in range(scan.dims)]
    spacing = (scan.upper - scan.lower) / (coarse - 1)
    top_v, top_x = _scan_top_cells(scan.fn, axes, 8 * REFINE_INCUMBENTS, pair)
    seeds_v, seeds_x = _separated_incumbents(top_v, top_x, spacing)
    best_v, best_x = min(zip(*_refine(scan, seeds_v, seeds_x, spacing, pair)),
                         key=lambda vx: (vx[0], tuple(vx[1])))
    return _target_record(spec, float(best_v), np.resize(best_x, spec.dims), "grid+refine")


def compute_target(spec: ObjectiveSpec) -> TargetRecord:
    """Enumeration for an integer staircase, grid refinement otherwise."""
    if spec.staircase:
        return enumerate_integer_minimum(spec)
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
        """Return the spec with its stored target filled in; raise ValueError
        if the store has no record for it at ``spec.digits_target``."""
        record = self.lookup(spec.name, spec.digits_target)
        if record is None:
            raise ValueError(
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
