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

__all__ = ["candidate_table_text"]

MIN_MARKS = 4  # radius <= m - 2 must admit radius >= 2
MAX_MARKS = 1024  # keeps the (m, m - 2) table and one population's rank block in the tens of MB


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
    for d, (lo, hi) in enumerate(zip(lower, upper)):  # scalar bounds: no length-p inner loops
        col = diffs[..., d]
        col += lo
        np.maximum(col, lo, out=col)
        np.minimum(col, hi, out=col)
    return diffs


def _neighbor_sets(n_marks: int, radius: int, columns: np.ndarray) -> np.ndarray:
    """Neighbor indices per mark, ascending.  At full radius (m - 2) the
    shared (m, m - 2) table of every eligible neighbor, and ``columns`` is
    not read; otherwise (..., m, radius), the eligible neighbors in the
    sampled ``columns`` (..., m, radius) of each mark's row, in any order."""
    eligible = eligible_neighbors(n_marks)
    if radius == n_marks - 2:
        return eligible
    return eligible[np.arange(n_marks)[:, None], np.sort(columns, axis=-1)]


def neighborhood_eval(marks: np.ndarray, spec: ObjectiveSpec, radius: int,
                      dither: float, rngs):
    """Evaluate the neighborhoods of N stacked (m, p) populations, (N, m, p),
    population ``n`` drawing from ``rngs[n]``, in one objective call.
    Returns ``(coords, values, raw)``: the best candidate per mark,
    (N, m, p), its raw objective value, (N, m), and every evaluated value,
    (N, m * radius), mark-major in evaluation order.

    At full radius (m - 2) every eligible neighbor is consulted; otherwise a
    fresh uniform sample of ``radius`` neighbors is drawn per mark per step,
    shared across dimensions.  Each population draws from its own generator,
    in turn: the (m, m - 2) sampling ranks (below full radius), which it
    turns at once into the ``radius`` columns of each mark's lowest ranks,
    so no rank block is stacked; then the dither block (dither > 0),
    mark-major, neighbor-minor, dimension-minor, straight into its row of
    the stacked (N, m, radius, p) block, ``u`` entering as ``-1 + 2 u``,
    which is ``uniform(-1, 1)`` bit for bit; an empty block draws nothing.
    So a population's step does not depend on the others it is stacked with.
    Costs exactly ``m * radius`` probes per population.  Ties between
    candidates break toward the lowest neighbor index.  ``evaluate_batch``
    reports a kernel's NaN as ``+inf``, so an undefined candidate never wins
    over a number: a mark proposes ``+inf`` only when all of its candidates
    are ``+inf`` or undefined.
    """
    n, m, p = marks.shape
    if not 1 <= radius <= m - 2:
        raise ValueError(f"radius must be in [1, {m - 2}], got {radius}")
    full = radius == m - 2
    ranks, columns = np.empty((m, m - 2)), np.empty((n, m, 0 if full else radius), np.intp)
    u = np.empty((n, m, radius, p if dither > 0.0 else 0))
    for k, rng in enumerate(rngs):
        if not full:
            rng.random(out=ranks)
            columns[k] = ranks.argsort(axis=1)[:, :radius]
        rng.random(out=u[k])
    u *= 2.0
    u -= 1.0
    neighbor_sets = _neighbor_sets(m, radius, columns)
    cands = _candidates(marks, neighbor_sets, spec.lower, spec.upper, dither, u)

    raw = evaluate_batch(spec, cands.reshape(n * m * radius, p))
    values = raw.reshape(n * m, radius)
    pick = values.argmin(axis=1)  # first minimum = lowest index (sets ascend)
    rows = np.arange(n * m)
    return (cands.reshape(n * m, radius, p)[rows, pick].reshape(n, m, p),
            values[rows, pick].reshape(n, m), raw.reshape(n, m * radius))


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
