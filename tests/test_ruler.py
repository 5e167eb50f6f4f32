import numpy as np
import pytest

from multiwalk.objectives import ObjectiveSpec, evaluate_batch, get_objective
from multiwalk.ruler import (_candidates, _neighbor_sets, candidate_table_text,
                             eligible_neighbors, neighborhood_eval)
from multiwalk.solvers import _start_epochs

DEMO_MARKS = np.array([1.0, 2.0, 4.0, 10.0, 12.0, 17.0])[:, None]


def _anchored_init(spec, n_marks, seed):
    """The ruler kinds' one-population epoch start, kept apart from the
    stacked ``solvers._start_epochs`` it is checked against: uniform marks
    with rows 1 and m pinned at the bounds, and their values."""
    u = np.random.default_rng(seed).uniform(size=(n_marks, spec.dims))
    marks = spec.lower + u * (spec.upper - spec.lower)
    marks[0], marks[-1] = spec.lower, spec.upper
    return marks, evaluate_batch(spec, marks)


def _dither_draws(rng, shape, dither):
    """The U(-1, 1) dither block a candidate table of ``shape`` draws, or
    None when ``dither == 0`` draws nothing."""
    return rng.uniform(-1.0, 1.0, size=shape) if dither > 0.0 else None


def _ranks(rng, n_marks, radius):
    """The sampling rank block, or None at full radius (no draws)."""
    return None if radius == n_marks - 2 else rng.uniform(size=(n_marks, n_marks - 2))


def _eval_one(marks, spec, radius, dither, rng):
    """``neighborhood_eval`` of one (m, p) population: row 0 of each output."""
    return tuple(a[0] for a in neighborhood_eval(marks[None], spec, radius, dither, [rng]))


def _pair_table(marks, lower, upper, dither=0.0, rng=None):
    """(m, m, p) candidates of every mark from every mark, self included."""
    m, p = marks.shape
    return _candidates(marks, np.tile(np.arange(m), (m, 1)), lower, upper, dither,
                       _dither_draws(rng, (m, m, p), dither))


def _start(spec, n_marks, seeds):
    """Anchored epoch starts of one stacked population per seed."""
    return _start_epochs(spec, n_marks, True, [np.random.default_rng(s) for s in seeds])


def test_init_anchors_exactly_at_bounds():
    spec = get_objective("ehrenfest4")
    marks, values = _start(spec, 6, [11, 12])
    assert np.all(marks[:, 0, 0] == 1.0)
    assert np.all(marks[:, 5, 0] == 17.0)
    assert values.shape == (2, 6)


def test_init_marks_within_bounds():
    spec = get_objective("trefethen2")
    marks, values = _start(spec, 16, [5, 6, 7])
    assert np.all(marks >= spec.lower) and np.all(marks <= spec.upper)
    assert np.array_equal(values, np.array([[spec.fn(row[None])[0] for row in population]
                                            for population in marks]))


def test_init_deterministic():
    spec = get_objective("wild2")
    a_marks, a_values = _start(spec, 8, [7, 8])
    b_marks, b_values = _start(spec, 8, [7, 8])
    assert np.array_equal(a_marks, b_marks)
    assert np.array_equal(a_values, b_values)


def test_eligible_neighbors():
    table = eligible_neighbors(6)
    assert table[0].tolist() == [1, 2, 3, 4]
    assert table[3].tolist() == [1, 2, 4, 5]
    assert table[5].tolist() == [1, 2, 3, 4]
    assert eligible_neighbors(4)[1].tolist() == [2, 3]
    for i in range(6):
        assert len(table[i]) == 4
        assert i not in table[i]


def test_eligible_neighbors_closed_form_matches_definition():
    # mark 0 skips the last mark, every other mark skips mark 0; each skips itself
    for m in range(4, 70):
        expected = [list(range(1, m - 1))] + [
            [j for j in range(1, m) if j != i] for i in range(1, m)]
        assert eligible_neighbors(m).tolist() == expected


def test_eligible_neighbors_errors():
    with pytest.raises(IndexError):
        eligible_neighbors(6)[6]
    with pytest.raises(ValueError):
        eligible_neighbors(3)
    # the cached table is shared by every caller, so it must be read-only
    with pytest.raises(ValueError):
        eligible_neighbors(6)[0, 0] = 0


def test_candidate_from_pairwise_difference():
    table = _pair_table(DEMO_MARKS, np.array([1.0]), np.array([17.0]))
    # mark at 10 with neighbor at 12: one plus their distance
    assert table[3, 4, 0] == 3.0
    # the lower-anchor mark reproduces its neighbor's own position
    for j in range(1, 6):
        assert table[0, j, 0] == DEMO_MARKS[j, 0]
    # the upper-anchor mark mirrors the neighbor through the box
    assert table[5, 1, 0] == 16.0


def test_candidate_rejects_self_pairing():
    # the neighbor table every candidate is built from never pairs a mark
    # with itself
    for m in (4, 6, 32):
        table = eligible_neighbors(m)
        assert table.shape == (m, m - 2)
        assert not np.any(table == np.arange(m)[:, None])


def test_candidate_dither_stays_in_bounds():
    spec = get_objective("wild2")
    rng = np.random.default_rng(3)
    marks = spec.lower + rng.uniform(size=(12, 2)) * (spec.upper - spec.lower)
    for dither in (0.0, 0.01, 0.5, 1.0):
        c = _pair_table(marks, spec.lower, spec.upper, dither=dither, rng=rng)
        assert np.all(c >= spec.lower) and np.all(c <= spec.upper)


def _candidates_reference(marks, neighbor_sets, lower, upper, dither=0.0, rng=None):
    """The out-of-place ``np.clip`` form ``_candidates`` replaced; the
    in-place kernel must match it bit for bit and draw the same block."""
    diffs = np.abs(marks[:, None, :] - marks[neighbor_sets])
    if dither > 0.0:
        diffs = diffs * (1.0 + dither * rng.uniform(-1.0, 1.0, size=diffs.shape))
    return np.clip(lower + diffs, lower, upper)


def _neighbor_sets_reference(n_marks, radius, rng):
    """The ``np.take_along_axis`` form ``_neighbor_sets`` replaced."""
    eligible = eligible_neighbors(n_marks)
    if radius == n_marks - 2:
        return eligible
    ranks = rng.uniform(size=(n_marks, n_marks - 2))
    sel = np.sort(np.argsort(ranks, axis=1)[:, :radius], axis=1)
    return np.take_along_axis(eligible, sel, axis=1)


@pytest.mark.parametrize("name", ["ehrenfest15", "wild3", "trefethen1"])
@pytest.mark.parametrize("dither", [0.0, 0.01, 1.0])
def test_candidates_match_clip_reference(name, dither):
    spec = get_objective(name)
    for seed, (m, radius) in enumerate([(4, 1), (8, 3), (32, 30), (32, 4)]):
        marks, _values = _anchored_init(spec, m, seed)
        neighbor_sets = _neighbor_sets(m, radius, _ranks(np.random.default_rng(seed), m, radius))
        assert np.array_equal(
            neighbor_sets, _neighbor_sets_reference(m, radius, np.random.default_rng(seed)))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _candidates(marks, neighbor_sets, spec.lower, spec.upper, dither,
                          _dither_draws(rng, (m, radius, spec.dims), dither))
        want = _candidates_reference(marks, neighbor_sets, spec.lower, spec.upper,
                                     dither, ref_rng)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # both consumed the same draws
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_anchored_noop_columns_on_integer_ruler():
    # at the anchored initial state, the excluded fixed column would only
    # reproduce the mark itself (or the upper bound, for mark 0)
    table = _pair_table(DEMO_MARKS, np.array([1.0]), np.array([17.0]))
    for i in range(1, 6):
        assert table[i, 0, 0] == DEMO_MARKS[i, 0]
    assert table[0, 5, 0] == 17.0


def test_anchored_noop_columns_on_random_init():
    spec = get_objective("wild3")
    marks, _values = _anchored_init(spec, 10, 21)
    table = _pair_table(marks, spec.lower, spec.upper)
    for i in range(1, 10):
        assert table[i, 0] == pytest.approx(marks[i], rel=1e-12, abs=1e-12)
    assert table[0, 9] == pytest.approx(spec.upper, rel=1e-12)


def test_full_radius_proposal_finds_center_state(ehrenfest4_spec):
    spec = ehrenfest4_spec
    coords, values, raw = _eval_one(DEMO_MARKS.copy(), spec, radius=4, dither=0.0,
                                    rng=np.random.default_rng(0))
    # mark at coordinate 4 reaches nine via its distance to the mark at 12
    assert coords[2, 0] == 9.0
    row = _candidates(DEMO_MARKS, eligible_neighbors(6), spec.lower, spec.upper)[2, :, 0]
    assert eligible_neighbors(6)[2][row == coords[2, 0]].tolist() == [4]
    assert values[2] == spec.fn(np.array([[9.0]]))[0]
    # raw holds every evaluated value, mark-major; values is its row minimum
    assert raw.shape == (6 * 4,)
    assert np.array_equal(values, raw.reshape(6, 4).min(axis=1))


def test_nan_never_wins_a_marks_pick():
    # NaN outside [9, 15], half the box: argmin alone would stop at each
    # row's first NaN and propose it
    def half_nan(points):
        x = points[:, 0]
        return np.where((x >= 9.0) & (x <= 15.0), -x, np.nan)

    spec = ObjectiveSpec(name="half_nan", dims=1, lower=[1.0], upper=[17.0], fn=half_nan)
    coords, values, raw = _eval_one(DEMO_MARKS, spec, radius=4, dither=0.0,
                                    rng=np.random.default_rng(0))
    assert np.isnan(raw).sum() == 14
    # the lowest number of each candidate row (test_candidate_table_text)
    assert coords[:, 0].tolist() == [12.0, 11.0, 14.0, 9.0, 11.0, 14.0]
    assert values.tolist() == [-12.0, -11.0, -14.0, -9.0, -11.0, -14.0]
    # a mark whose candidates are all NaN proposes its first one
    all_nan = ObjectiveSpec(name="all_nan", dims=1, lower=[1.0], upper=[17.0],
                            fn=lambda points: np.full(len(points), np.nan))
    coords, values, _raw = _eval_one(DEMO_MARKS, all_nan, radius=4, dither=0.0,
                                     rng=np.random.default_rng(0))
    assert coords[:, 0].tolist() == [2.0, 3.0, 3.0, 9.0, 11.0, 16.0]
    assert np.isnan(values).all()


def test_probe_count_per_step_both_modes(ehrenfest4_spec):
    spec = ehrenfest4_spec
    for radius in (1, 2, 4):
        _coords, _values, raw = _eval_one(DEMO_MARKS, spec, radius=radius,
                                          dither=0.01, rng=np.random.default_rng(9))
        assert raw.shape == (6 * radius,)


def test_full_radius_dither_zero_ignores_rng(ehrenfest4_spec):
    spec = ehrenfest4_spec
    rng = np.random.default_rng(123)
    before = rng.bit_generator.state
    a_coords, a_values, _raw = _eval_one(DEMO_MARKS, spec, radius=4, dither=0.0,
                                         rng=rng)
    assert rng.bit_generator.state == before
    b_coords, b_values, _raw = _eval_one(DEMO_MARKS, spec, radius=4, dither=0.0,
                                         rng=np.random.default_rng(999))
    assert np.array_equal(a_coords, b_coords)
    assert np.array_equal(a_values, b_values)


def test_random_radius_samples_eligible_sorted(ehrenfest4_spec):
    spec = ehrenfest4_spec
    neighbor_sets = _neighbor_sets(6, 2, _ranks(np.random.default_rng(17), 6, 2))
    assert neighbor_sets.shape == (6, 2)
    for i in range(6):
        row = neighbor_sets[i]
        assert sorted(row) == list(row)
        eligible = set(eligible_neighbors(6)[i].tolist())
        assert set(row.tolist()) <= eligible
    # neighborhood_eval draws the same sets: each pick is one of their candidates
    coords, _values, _raw = _eval_one(DEMO_MARKS, spec, radius=2, dither=0.0,
                                      rng=np.random.default_rng(17))
    cands = _candidates(DEMO_MARKS, neighbor_sets, spec.lower, spec.upper)
    for i in range(6):
        assert coords[i, 0] in cands[i, :, 0]


def test_radius_out_of_range(ehrenfest4_spec):
    for radius in (0, 5):
        with pytest.raises(ValueError):
            _eval_one(DEMO_MARKS, ehrenfest4_spec, radius=radius, dither=0.0,
                      rng=np.random.default_rng(0))


def test_proposals_in_bounds_any_dither():
    spec = get_objective("trefethen3")
    marks, _values = _anchored_init(spec, 8, 2)
    for dither in (0.0, 0.3, 1.0):
        coords, _values, _raw = _eval_one(marks, spec, radius=6, dither=dither,
                                          rng=np.random.default_rng(4))
        assert np.all(coords >= spec.lower) and np.all(coords <= spec.upper)


def test_candidate_table_text():
    text = candidate_table_text(DEMO_MARKS, [1.0], [17.0])
    rows = [line.split("|")[1].split() for line in text.strip().splitlines()[1:]]
    table = [[float(c) for c in row] for row in rows]
    assert table == [
        [2, 4, 10, 12],
        [3, 9, 11, 16],
        [3, 7, 9, 14],
        [9, 7, 3, 8],
        [11, 9, 3, 6],
        [16, 14, 8, 6],
    ]
    assert text.endswith("\n")
    # p > 1: one block per dimension under a "dimension N" header
    marks = np.hstack([DEMO_MARKS, DEMO_MARKS[::-1]])
    text2 = candidate_table_text(marks, [1.0, 1.0], [17.0, 17.0])
    blocks = text2.split("dimension ")
    assert blocks[0] == "" and [b.splitlines()[0] for b in blocks[1:]] == ["1", "2"]
    assert blocks[1][2:] == text
    assert len(blocks[2].splitlines()) == 1 + 1 + 6
