"""Ruler population structure and pairwise-difference candidate generation.

A population of ``m`` marks on ``p`` rulers (one ruler per dimension) moves by
proposing, for each mark, candidate coordinates built from absolute pairwise
differences between marks, offset by the lower bound so every candidate is a
valid coordinate.  The number of neighbors consulted per mark is the
neighborhood radius, between 1 and ``m - 2``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .objectives import EvalCounter, ObjectiveSpec, evaluate_batch

__all__ = [
    "eligible_neighbors",
    "neighborhood_eval",
    "candidate_table_text",
]

MIN_MARKS = 4  # radius <= m - 2 must admit radius >= 2


@lru_cache(maxsize=None)
def eligible_neighbors(n_marks: int) -> np.ndarray:
    """Read-only (m, m - 2) table: row ``i`` holds the neighbor indices of
    mark ``i`` (0-based, ascending).

    Besides itself, mark 0 skips the last mark and every other mark skips
    mark 0.  Exclusion is by fixed index, so at the anchored initial state
    the skipped column would only reproduce the mark's own position (or the
    upper bound, for mark 0).
    """
    if n_marks < MIN_MARKS:
        raise ValueError(f"need at least {MIN_MARKS} marks, got {n_marks}")
    i = np.arange(n_marks)[:, None]
    k = np.arange(1, n_marks - 1)
    table = k + ((k >= i) & (i > 0))  # step over mark i itself
    table.flags.writeable = False
    return table


def _candidates(marks: np.ndarray, neighbor_sets: np.ndarray, lower: np.ndarray,
                upper: np.ndarray, dither: float = 0.0,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """(m, r, p) candidates for mark ``i`` from neighbor ``neighbor_sets[i, k]``:
    the pairwise difference offset by the lower bound, optionally dithered,
    clamped into the box.

    Per dimension: ``clip(lower + |marks[i] - marks[j]| * (1 + dither * u),
    lower, upper)`` with ``u`` drawn from U(-1, 1) as one block filled
    mark-major, neighbor-minor, dimension-minor.  With ``dither == 0`` no
    draws are consumed.
    """
    diffs = np.abs(marks[:, None, :] - marks[neighbor_sets])
    if dither > 0.0:
        diffs = diffs * (1.0 + dither * rng.uniform(-1.0, 1.0, size=diffs.shape))
    return np.clip(lower + diffs, lower, upper)


def _neighbor_sets(n_marks: int, radius: int, rng: np.random.Generator) -> np.ndarray:
    """(m, radius) neighbor indices per mark, ascending.  At full radius
    (m - 2) every eligible neighbor, with no draws; otherwise a uniform
    sample of ``radius`` eligible neighbors per mark from one rank block."""
    eligible = eligible_neighbors(n_marks)
    if radius == n_marks - 2:
        return eligible
    ranks = rng.uniform(size=(n_marks, n_marks - 2))
    sel = np.sort(np.argsort(ranks, axis=1)[:, :radius], axis=1)
    return np.take_along_axis(eligible, sel, axis=1)


def neighborhood_eval(marks: np.ndarray, spec: ObjectiveSpec, radius: int,
                      dither: float, rng: np.random.Generator,
                      counter: EvalCounter):
    """Evaluate each mark's neighborhood and return ``(coords, values)``:
    the best candidate per mark, (m, p), and its raw objective value, (m,).

    At full radius (m - 2) every eligible neighbor is consulted; otherwise a
    fresh uniform sample of ``radius`` neighbors is drawn per mark per step,
    shared across dimensions.  Random draws happen in a fixed order (sampling
    block first, then one dither block filled mark-major, neighbor-minor,
    dimension-minor) so the evaluations themselves can be farmed out without
    changing the committed step.  Costs exactly ``m * radius`` probes.
    Ties between candidates break toward the lowest neighbor index.
    """
    m, p = marks.shape
    if not 1 <= radius <= m - 2:
        raise ValueError(f"radius must be in [1, {m - 2}], got {radius}")
    neighbor_sets = _neighbor_sets(m, radius, rng)
    cands = _candidates(marks, neighbor_sets, spec.lower, spec.upper, dither, rng)

    values = evaluate_batch(spec, cands.reshape(m * radius, p), counter)
    values = values.reshape(m, radius)
    pick = np.argmin(values, axis=1)  # first minimum = lowest index (sets ascend)
    rows = np.arange(m)
    return cands[rows, pick], values[rows, pick]


def candidate_table_text(marks: np.ndarray, lower, upper) -> str:
    """Dump the undithered candidate table of (m, p) ``marks`` as text, one
    block per dimension: rows are marks, columns the eligible (full-radius)
    neighbor candidates.
    """
    marks = np.asarray(marks, dtype=float)
    m, p = marks.shape
    cands = _candidates(marks, eligible_neighbors(m), np.asarray(lower, dtype=float),
                        np.asarray(upper, dtype=float))
    lines = []
    for dim in range(p):
        if p > 1:
            lines.append(f"dimension {dim + 1}")
        lines.append("mark | " + " ".join(f"n{j + 1:>6d}"[-7:] for j in range(m - 2)))
        for i in range(m):
            cells = " ".join(f"{c:7.6g}" for c in cands[i, :, dim])
            lines.append(f"{i + 1:4d} | {cells}")
    return "\n".join(lines) + "\n"
