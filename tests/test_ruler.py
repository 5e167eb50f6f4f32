import numpy as np
import pytest

from multiwalk.objectives import EvalCounter, get_objective
from multiwalk.ruler import (_candidates, _neighbor_sets, candidate_table_text,
                             eligible_neighbors, neighborhood_eval)
from multiwalk.solvers import _init_population

DEMO_MARKS = np.array([1.0, 2.0, 4.0, 10.0, 12.0, 17.0])[:, None]


def _anchored_init(spec, n_marks, seed, counter):
    """The ruler kinds' epoch initialization, as the solver loop calls it."""
    return _init_population(spec, n_marks, True, np.random.default_rng(seed), counter)


def _pair_table(marks, lower, upper, dither=0.0, rng=None):
    """(m, m, p) candidates of every mark from every mark, self included."""
    m = marks.shape[0]
    return _candidates(marks, np.tile(np.arange(m), (m, 1)), lower, upper, dither, rng)


def test_init_anchors_exactly_at_bounds():
    spec = get_objective("ehrenfest4")
    counter = EvalCounter()
    marks, _values = _anchored_init(spec, 6, 11, counter)
    assert marks[0, 0] == 1.0
    assert marks[5, 0] == 17.0
    assert counter.probes == 6


def test_init_marks_within_bounds():
    spec = get_objective("trefethen2")
    counter = EvalCounter()
    marks, values = _anchored_init(spec, 16, 5, counter)
    assert np.all(marks >= spec.lower) and np.all(marks <= spec.upper)
    assert np.array_equal(values, np.array([spec.fn(row[None])[0] for row in marks]))


def test_init_deterministic():
    spec = get_objective("wild2")
    a_marks, a_values = _anchored_init(spec, 8, 7, EvalCounter())
    b_marks, b_values = _anchored_init(spec, 8, 7, EvalCounter())
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


def test_anchored_noop_columns_on_integer_ruler():
    # at the anchored initial state, the excluded fixed column would only
    # reproduce the mark itself (or the upper bound, for mark 0)
    table = _pair_table(DEMO_MARKS, np.array([1.0]), np.array([17.0]))
    for i in range(1, 6):
        assert table[i, 0, 0] == DEMO_MARKS[i, 0]
    assert table[0, 5, 0] == 17.0


def test_anchored_noop_columns_on_random_init():
    spec = get_objective("wild3")
    marks, _values = _anchored_init(spec, 10, 21, EvalCounter())
    table = _pair_table(marks, spec.lower, spec.upper)
    for i in range(1, 10):
        assert table[i, 0] == pytest.approx(marks[i], rel=1e-12, abs=1e-12)
    assert table[0, 9] == pytest.approx(spec.upper, rel=1e-12)


def test_full_radius_proposal_finds_center_state(ehrenfest4_spec):
    spec = ehrenfest4_spec
    counter = EvalCounter()
    coords, values = neighborhood_eval(DEMO_MARKS.copy(), spec, radius=4, dither=0.0,
                                       rng=np.random.default_rng(0), counter=counter)
    # mark at coordinate 4 reaches nine via its distance to the mark at 12
    assert coords[2, 0] == 9.0
    row = _candidates(DEMO_MARKS, eligible_neighbors(6), spec.lower, spec.upper)[2, :, 0]
    assert eligible_neighbors(6)[2][row == coords[2, 0]].tolist() == [4]
    assert values[2] == spec.fn(np.array([[9.0]]))[0]
    assert counter.probes == 6 * 4


def test_probe_count_per_step_both_modes(ehrenfest4_spec):
    spec = ehrenfest4_spec
    for radius in (1, 2, 4):
        counter = EvalCounter()
        neighborhood_eval(DEMO_MARKS, spec, radius=radius, dither=0.01,
                          rng=np.random.default_rng(9), counter=counter)
        assert counter.probes == 6 * radius


def test_full_radius_dither_zero_ignores_rng(ehrenfest4_spec):
    spec = ehrenfest4_spec
    rng = np.random.default_rng(123)
    before = rng.bit_generator.state
    a_coords, a_values = neighborhood_eval(DEMO_MARKS, spec, radius=4, dither=0.0,
                                           rng=rng, counter=EvalCounter())
    assert rng.bit_generator.state == before
    b_coords, b_values = neighborhood_eval(DEMO_MARKS, spec, radius=4, dither=0.0,
                                           rng=np.random.default_rng(999),
                                           counter=EvalCounter())
    assert np.array_equal(a_coords, b_coords)
    assert np.array_equal(a_values, b_values)


def test_random_radius_samples_eligible_sorted(ehrenfest4_spec):
    spec = ehrenfest4_spec
    neighbor_sets = _neighbor_sets(6, 2, np.random.default_rng(17))
    assert neighbor_sets.shape == (6, 2)
    for i in range(6):
        row = neighbor_sets[i]
        assert sorted(row) == list(row)
        eligible = set(eligible_neighbors(6)[i].tolist())
        assert set(row.tolist()) <= eligible
    # neighborhood_eval draws the same sets: each pick is one of their candidates
    coords, _values = neighborhood_eval(DEMO_MARKS, spec, radius=2, dither=0.0,
                                        rng=np.random.default_rng(17),
                                        counter=EvalCounter())
    cands = _candidates(DEMO_MARKS, neighbor_sets, spec.lower, spec.upper)
    for i in range(6):
        assert coords[i, 0] in cands[i, :, 0]


def test_radius_out_of_range(ehrenfest4_spec):
    for radius in (0, 5):
        with pytest.raises(ValueError):
            neighborhood_eval(DEMO_MARKS, ehrenfest4_spec, radius=radius, dither=0.0,
                              rng=np.random.default_rng(0), counter=EvalCounter())


def test_proposals_in_bounds_any_dither():
    spec = get_objective("trefethen3")
    marks, _values = _anchored_init(spec, 8, 2, EvalCounter())
    for dither in (0.0, 0.3, 1.0):
        coords, _ = neighborhood_eval(marks, spec, radius=6, dither=dither,
                                      rng=np.random.default_rng(4), counter=EvalCounter())
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
