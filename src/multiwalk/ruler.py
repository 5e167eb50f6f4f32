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

from .objectives import ObjectiveSpec, evaluate_batch

__all__ = [
    "eligible_neighbors",
    "neighborhood_eval",
    "candidate_table_text",
]

MIN_MARKS = 4  # radius <= m - 2 must admit radius >= 2
MAX_MARKS = 1024  # keeps the (m, m - 2) tables and rank blocks in the tens of MB


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
                u: np.ndarray | None = None) -> np.ndarray:
    """Candidates for mark ``i`` from neighbor ``neighbor_sets[..., i, k]``:
    the pairwise difference offset by the lower bound, optionally dithered,
    clamped into the box.  ``marks`` is (m, p) or (N, m, p); the (m, r) sets
    are shared by every population, (N, m, r) sets give each its own.  The
    result is (..., m, r, p).

    Per dimension: ``clip(lower + |marks[i] - marks[j]| * (1 + dither * u),
    lower, upper)`` with ``u`` the caller's U(-1, 1) draws shaped like the
    result (overwritten); with ``dither == 0`` it is not read.
    """
    if neighbor_sets.ndim == 3:  # one set table per stacked population
        others = marks[np.arange(len(marks))[:, None, None], neighbor_sets]
    else:
        others = marks[..., neighbor_sets, :]
    diffs = marks[..., None, :] - others
    np.abs(diffs, out=diffs)
    if dither > 0.0:
        u *= dither
        u += 1.0
        diffs *= u
    diffs += lower
    np.maximum(diffs, lower, out=diffs)
    return np.minimum(diffs, upper, out=diffs)


def _neighbor_sets(n_marks: int, radius: int, ranks: np.ndarray | None) -> np.ndarray:
    """Neighbor indices per mark, ascending.  At full radius (m - 2) the
    shared (m, m - 2) table of every eligible neighbor, and ``ranks`` is not
    read; otherwise (..., m, radius), a uniform sample of ``radius`` eligible
    neighbors per mark from its row of the (..., m, m - 2) rank block."""
    eligible = eligible_neighbors(n_marks)
    if radius == n_marks - 2:
        return eligible
    sel = np.sort(np.argsort(ranks, axis=-1)[..., :radius], axis=-1)
    return eligible[np.arange(n_marks)[:, None], sel]


def neighborhood_eval(marks: np.ndarray, spec: ObjectiveSpec, radius: int,
                      dither: float, rngs):
    """Evaluate the neighborhoods of N stacked (m, p) populations, (N, m, p),
    population ``n`` drawing from ``rngs[n]``, in one objective call.
    Returns ``(coords, values, raw)``: the best candidate per mark,
    (N, m, p), its raw objective value, (N, m), and every evaluated value,
    (N, m * radius), mark-major in evaluation order.

    At full radius (m - 2) every eligible neighbor is consulted; otherwise a
    fresh uniform sample of ``radius`` neighbors is drawn per mark per step,
    shared across dimensions.  Each population draws one block of doubles
    per step from its own generator: the (m, m - 2) sampling ranks (below
    full radius), then the dither block filled mark-major, neighbor-minor,
    dimension-minor (dither > 0), ``u`` entering as ``-1 + 2 u``, which is
    ``uniform(-1, 1)`` bit for bit.  So a population's step does not depend
    on the others it is stacked with.  Costs exactly ``m * radius`` probes
    per population.  Ties between candidates break toward the lowest
    neighbor index, and NaN never wins: a mark proposes a NaN only when all
    of its candidates are NaN.
    """
    n, m, p = marks.shape
    if not 1 <= radius <= m - 2:
        raise ValueError(f"radius must be in [1, {m - 2}], got {radius}")
    n_ranks = 0 if radius == m - 2 else m * (m - 2)
    draws = np.empty((n, n_ranks + (m * radius * p if dither > 0.0 else 0)))
    if draws.shape[1]:
        for row, rng in zip(draws, rngs):
            rng.random(out=row)
    neighbor_sets = _neighbor_sets(m, radius, draws[:, :n_ranks].reshape(n, m, -1))
    u = draws[:, n_ranks:].reshape(n, m, radius, -1)
    if dither > 0.0:
        u *= 2.0
        u -= 1.0
    cands = _candidates(marks, neighbor_sets, spec.lower, spec.upper, dither, u)

    raw = evaluate_batch(spec, cands.reshape(n * m * radius, p))
    values = raw.reshape(n * m, radius)
    pick = values.argmin(axis=1)  # first minimum = lowest index (sets ascend)
    rows = np.arange(n * m)
    best = values[rows, pick]
    nan = np.isnan(best)  # argmin stops at a row's first NaN
    if nan.any():
        pick[nan] = np.argsort(values[nan], axis=1, kind="stable")[:, 0]
        best = values[rows, pick]
    return (cands.reshape(n * m, radius, p)[rows, pick].reshape(n, m, p),
            best.reshape(n, m), raw.reshape(n, m * radius))


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
