"""Ruler population structure and pairwise-difference candidate generation.

A population of ``m`` marks on ``p`` rulers (one ruler per dimension) moves by
proposing, for each mark, candidate coordinates built from absolute pairwise
differences between marks, offset by the lower bound so every candidate is a
valid coordinate.  The number of neighbors consulted per mark is the
neighborhood radius, between 1 and ``m - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import EvalCounter, ObjectiveSpec, evaluate_batch

__all__ = [
    "RulerState",
    "NeighborhoodProposal",
    "eligible_neighbors",
    "neighborhood_eval",
    "candidate_table_text",
]

MIN_MARKS = 4  # radius <= m - 2 must admit radius >= 2


@dataclass
class RulerState:
    """Mark coordinates (m, p) and their raw objective values (m,)."""

    marks: np.ndarray
    values: np.ndarray


@dataclass
class NeighborhoodProposal:
    """Best evaluated candidate per mark for one step.

    ``coords[i]`` is the winning candidate for mark ``i``, ``values[i]`` its
    raw objective value, ``chosen[i]`` the neighbor index that produced it and
    ``neighbor_sets[i]`` the full index set consulted (ascending).
    """

    coords: np.ndarray
    values: np.ndarray
    chosen: np.ndarray
    neighbor_sets: np.ndarray


def eligible_neighbors(i: int, n_marks: int) -> np.ndarray:
    """The m - 2 neighbor indices of mark ``i`` (0-based, ascending).

    Besides itself, mark 0 skips the last mark and every other mark skips
    mark 0.  Exclusion is by fixed index, so at the anchored initial state
    the skipped column would only reproduce the mark's own position (or the
    upper bound, for mark 0).
    """
    if n_marks < MIN_MARKS:
        raise ValueError(f"need at least {MIN_MARKS} marks, got {n_marks}")
    if not 0 <= i < n_marks:
        raise ValueError(f"mark index {i} out of range for {n_marks} marks")
    if i == 0:
        return np.arange(1, n_marks - 1)
    return np.array([j for j in range(1, n_marks) if j != i])


_ELIGIBLE_CACHE: dict = {}


def _eligible_matrix(n_marks: int) -> np.ndarray:
    """(m, m - 2) matrix of eligible neighbor indices, row per mark."""
    table = _ELIGIBLE_CACHE.get(n_marks)
    if table is None:
        table = np.stack([eligible_neighbors(i, n_marks) for i in range(n_marks)])
        _ELIGIBLE_CACHE[n_marks] = table
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


def neighborhood_eval(state: RulerState, spec: ObjectiveSpec, radius: int,
                      dither: float, rng: np.random.Generator,
                      counter: EvalCounter) -> NeighborhoodProposal:
    """Evaluate each mark's neighborhood and keep its best candidate.

    At full radius (m - 2) every eligible neighbor is consulted; otherwise a
    fresh uniform sample of ``radius`` neighbors is drawn per mark per step,
    shared across dimensions.  Random draws happen in a fixed order (sampling
    block first, then one dither block filled mark-major, neighbor-minor,
    dimension-minor) so the evaluations themselves can be farmed out without
    changing the committed step.  Costs exactly ``m * radius`` probes.
    Ties between candidates break toward the lowest neighbor index.
    """
    marks = state.marks
    m, p = marks.shape
    if not 1 <= radius <= m - 2:
        raise ValueError(f"radius must be in [1, {m - 2}], got {radius}")
    eligible = _eligible_matrix(m)
    if radius == m - 2:
        neighbor_sets = eligible
    else:
        ranks = rng.uniform(size=(m, m - 2))
        sel = np.sort(np.argsort(ranks, axis=1)[:, :radius], axis=1)
        neighbor_sets = np.take_along_axis(eligible, sel, axis=1)

    cands = _candidates(marks, neighbor_sets, spec.lower, spec.upper, dither, rng)

    values = evaluate_batch(spec, cands.reshape(m * radius, p), counter)
    values = values.reshape(m, radius)
    pick = np.argmin(values, axis=1)  # first minimum = lowest index (sets ascend)
    rows = np.arange(m)
    return NeighborhoodProposal(
        coords=cands[rows, pick],
        values=values[rows, pick],
        chosen=neighbor_sets[rows, pick],
        neighbor_sets=neighbor_sets,
    )


def candidate_table_text(marks: np.ndarray, lower, upper) -> str:
    """Dump the undithered candidate table of (m, p) ``marks`` as text, one
    block per dimension: rows are marks, columns the eligible (full-radius)
    neighbor candidates.
    """
    marks = np.asarray(marks, dtype=float)
    m, p = marks.shape
    cands = _candidates(marks, _eligible_matrix(m), np.asarray(lower, dtype=float),
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
